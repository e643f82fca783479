#include "la/matrix.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "la/kernels.h"

namespace newsdiff::la {

Matrix Matrix::FromRows(const std::vector<std::vector<double>>& rows) {
  if (rows.empty()) return Matrix();
  Matrix m(rows.size(), rows[0].size());
  for (size_t r = 0; r < rows.size(); ++r) {
    assert(rows[r].size() == m.cols_);
    std::copy(rows[r].begin(), rows[r].end(), m.RowPtr(r));
  }
  return m;
}

Matrix Matrix::Random(size_t rows, size_t cols, double lo, double hi,
                      Rng& rng) {
  Matrix m(rows, cols);
  for (double& v : m.data_) v = rng.Uniform(lo, hi);
  return m;
}

Matrix Matrix::RandomNormal(size_t rows, size_t cols, double stddev,
                            Rng& rng) {
  Matrix m(rows, cols);
  for (double& v : m.data_) v = rng.Gaussian(0.0, stddev);
  return m;
}

Matrix Matrix::Identity(size_t n) {
  Matrix m(n, n);
  for (size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

void Matrix::Fill(double value) {
  std::fill(data_.begin(), data_.end(), value);
}

void Matrix::Resize(size_t rows, size_t cols) {
  rows_ = rows;
  cols_ = cols;
  data_.assign(rows * cols, 0.0);
}

Matrix Matrix::Transposed() const {
  Matrix t(cols_, rows_);
  for (size_t r = 0; r < rows_; ++r) {
    const double* src = RowPtr(r);
    for (size_t c = 0; c < cols_; ++c) t.data_[c * rows_ + r] = src[c];
  }
  return t;
}

void Matrix::Add(const Matrix& other) {
  assert(rows_ == other.rows_ && cols_ == other.cols_);
  AxpyN(data_.data(), other.data_.data(), 1.0, data_.size());
}

void Matrix::Sub(const Matrix& other) {
  assert(rows_ == other.rows_ && cols_ == other.cols_);
  for (size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
}

void Matrix::Scale(double s) {
  for (double& v : data_) v *= s;
}

void Matrix::HadamardInPlace(const Matrix& other, const Parallelism& par) {
  assert(rows_ == other.rows_ && cols_ == other.cols_);
  ParallelFor(par, data_.size(), [&](size_t, size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) data_[i] *= other.data_[i];
  });
}

void Matrix::DivideInPlace(const Matrix& other, double eps,
                           const Parallelism& par) {
  assert(rows_ == other.rows_ && cols_ == other.cols_);
  ParallelFor(par, data_.size(), [&](size_t, size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) data_[i] /= (other.data_[i] + eps);
  });
}

void Matrix::ClampMin(double lo, const Parallelism& par) {
  ParallelFor(par, data_.size(), [&](size_t, size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      if (data_[i] < lo) data_[i] = lo;
    }
  });
}

double Matrix::Sum() const {
  double s = 0.0;
  for (double v : data_) s += v;
  return s;
}

double Matrix::FrobeniusNorm() const {
  return std::sqrt(SumSquaresN(data_.data(), data_.size()));
}

double Matrix::MaxAbs() const {
  double m = 0.0;
  for (double v : data_) m = std::max(m, std::abs(v));
  return m;
}

double Matrix::RowNorm(size_t r) const {
  return std::sqrt(SumSquaresN(RowPtr(r), cols_));
}

std::vector<double> Matrix::Row(size_t r) const {
  const double* p = RowPtr(r);
  return std::vector<double>(p, p + cols_);
}

void Matrix::SetRow(size_t r, const std::vector<double>& v) {
  assert(v.size() == cols_);
  std::copy(v.begin(), v.end(), RowPtr(r));
}

std::string Matrix::ToString(int max_rows, int max_cols) const {
  std::string out = "Matrix(" + std::to_string(rows_) + "x" +
                    std::to_string(cols_) + ")\n";
  size_t show_r = std::min<size_t>(rows_, static_cast<size_t>(max_rows));
  size_t show_c = std::min<size_t>(cols_, static_cast<size_t>(max_cols));
  char buf[32];
  for (size_t r = 0; r < show_r; ++r) {
    out += "  [";
    for (size_t c = 0; c < show_c; ++c) {
      std::snprintf(buf, sizeof(buf), "%9.4f", (*this)(r, c));
      out += buf;
      if (c + 1 < show_c) out += ", ";
    }
    if (show_c < cols_) out += ", ...";
    out += "]\n";
  }
  if (show_r < rows_) out += "  ...\n";
  return out;
}

// ---------------------------------------------------------------------------
// Naive (seed-bitwise) GEMM loops. These write into a pre-resized `out`
// (Resize zero-fills, matching the original fresh-Matrix construction
// bitwise) and are kept verbatim as the cross-binary-reproducible reference
// the blocked kernels are tested against.
// ---------------------------------------------------------------------------
namespace internal {

void NaiveMatMul(const Matrix& a, const Matrix& b, Matrix* out,
                 const Parallelism& par) {
  assert(a.cols() == b.rows());
  assert(out != &a && out != &b);
  const size_t n = a.rows(), k = a.cols(), m = b.cols();
  out->Resize(n, m);
  // ikj loop order: streams through b and out rows, cache-friendly. Output
  // rows are disjoint across shards and each element's accumulation runs in
  // p order regardless of sharding, so parallel == serial bitwise.
  ParallelFor(par, n, [&](size_t, size_t row_begin, size_t row_end) {
    for (size_t i = row_begin; i < row_end; ++i) {
      const double* arow = a.RowPtr(i);
      double* orow = out->RowPtr(i);
      for (size_t p = 0; p < k; ++p) {
        const double av = arow[p];
        if (av == 0.0) continue;
        const double* brow = b.RowPtr(p);
        for (size_t j = 0; j < m; ++j) orow[j] += av * brow[j];
      }
    }
  });
}

void NaiveMatMulTransA(const Matrix& a, const Matrix& b, Matrix* out,
                       const Parallelism& par) {
  assert(a.rows() == b.rows());
  assert(out != &a && out != &b);
  const size_t k = a.rows(), n = a.cols(), m = b.cols();
  out->Resize(n, m);
  // Gathers per output row i (column i of a) instead of scattering per
  // input row p, so shards own disjoint output rows; the per-element sum
  // still runs over p in ascending order, matching the scatter kernel's
  // accumulation chain bitwise.
  ParallelFor(par, n, [&](size_t, size_t row_begin, size_t row_end) {
    for (size_t i = row_begin; i < row_end; ++i) {
      double* orow = out->RowPtr(i);
      for (size_t p = 0; p < k; ++p) {
        const double av = a.RowPtr(p)[i];
        if (av == 0.0) continue;
        const double* brow = b.RowPtr(p);
        for (size_t j = 0; j < m; ++j) orow[j] += av * brow[j];
      }
    }
  });
}

void NaiveMatMulTransB(const Matrix& a, const Matrix& b, Matrix* out,
                       const Parallelism& par) {
  assert(a.cols() == b.cols());
  assert(out != &a && out != &b);
  const size_t k = a.cols(), m = b.rows();
  out->Resize(a.rows(), m);
  ParallelFor(par, a.rows(), [&](size_t, size_t row_begin, size_t row_end) {
    for (size_t i = row_begin; i < row_end; ++i) {
      const double* arow = a.RowPtr(i);
      double* orow = out->RowPtr(i);
      for (size_t j = 0; j < m; ++j) {
        orow[j] = DotN(arow, b.RowPtr(j), k);
      }
    }
  });
}

}  // namespace internal

void MatMulInto(const Matrix& a, const Matrix& b, Matrix* out,
                const Parallelism& par) {
  internal::BlockedMatMul(a, b, out, par);
}

void MatMulTransAInto(const Matrix& a, const Matrix& b, Matrix* out,
                      const Parallelism& par) {
  internal::BlockedMatMulTransA(a, b, out, par);
}

void MatMulTransBInto(const Matrix& a, const Matrix& b, Matrix* out,
                      const Parallelism& par) {
  internal::BlockedMatMulTransB(a, b, out, par);
}

Matrix MatMul(const Matrix& a, const Matrix& b, const Parallelism& par) {
  Matrix out;
  MatMulInto(a, b, &out, par);
  return out;
}

Matrix MatMulTransA(const Matrix& a, const Matrix& b, const Parallelism& par) {
  Matrix out;
  MatMulTransAInto(a, b, &out, par);
  return out;
}

Matrix MatMulTransB(const Matrix& a, const Matrix& b, const Parallelism& par) {
  Matrix out;
  MatMulTransBInto(a, b, &out, par);
  return out;
}

}  // namespace newsdiff::la
