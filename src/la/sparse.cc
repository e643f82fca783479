#include "la/sparse.h"

#include <algorithm>
#include <cassert>

#include "la/vector_ops.h"

namespace newsdiff::la {

CsrMatrix CsrMatrix::FromTriplets(size_t rows, size_t cols,
                                  std::vector<Triplet> triplets) {
  CsrMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  std::sort(triplets.begin(), triplets.end(),
            [](const Triplet& a, const Triplet& b) {
              if (a.row != b.row) return a.row < b.row;
              return a.col < b.col;
            });
  m.row_ptr_.assign(rows + 1, 0);
  m.col_idx_.reserve(triplets.size());
  m.values_.reserve(triplets.size());
  size_t i = 0;
  while (i < triplets.size()) {
    assert(triplets[i].row < rows && triplets[i].col < cols);
    uint32_t r = triplets[i].row;
    uint32_t c = triplets[i].col;
    double v = triplets[i].value;
    size_t j = i + 1;
    while (j < triplets.size() && triplets[j].row == r &&
           triplets[j].col == c) {
      v += triplets[j].value;
      ++j;
    }
    m.col_idx_.push_back(c);
    m.values_.push_back(v);
    m.row_ptr_[r + 1] += 1;
    i = j;
  }
  for (size_t r = 0; r < rows; ++r) m.row_ptr_[r + 1] += m.row_ptr_[r];
  return m;
}

double CsrMatrix::At(size_t r, size_t c) const {
  assert(r < rows_ && c < cols_);
  const auto begin = col_idx_.begin() + static_cast<ptrdiff_t>(row_ptr_[r]);
  const auto end = col_idx_.begin() + static_cast<ptrdiff_t>(row_ptr_[r + 1]);
  auto it = std::lower_bound(begin, end, static_cast<uint32_t>(c));
  if (it == end || *it != c) return 0.0;
  return values_[static_cast<size_t>(it - col_idx_.begin())];
}

double CsrMatrix::SquaredFrobeniusNorm() const {
  double s = 0.0;
  for (double v : values_) s += v * v;
  return s;
}

Matrix CsrMatrix::ToDense() const {
  Matrix d(rows_, cols_);
  for (size_t r = 0; r < rows_; ++r) {
    for (size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      d(r, col_idx_[k]) = values_[k];
    }
  }
  return d;
}

CsrMatrix CsrMatrix::Transposed() const {
  CsrMatrix t;
  t.rows_ = cols_;
  t.cols_ = rows_;
  t.row_ptr_.assign(cols_ + 1, 0);
  t.col_idx_.resize(values_.size());
  t.values_.resize(values_.size());
  for (uint32_t c : col_idx_) t.row_ptr_[c + 1] += 1;
  for (size_t c = 0; c < cols_; ++c) t.row_ptr_[c + 1] += t.row_ptr_[c];
  std::vector<size_t> fill(t.row_ptr_.begin(), t.row_ptr_.end() - 1);
  // Scanning rows in ascending order keeps each transposed row's entries
  // sorted by original row — the order TransposeMultiplyDense visits them.
  for (size_t r = 0; r < rows_; ++r) {
    for (size_t p = row_ptr_[r]; p < row_ptr_[r + 1]; ++p) {
      size_t slot = fill[col_idx_[p]]++;
      t.col_idx_[slot] = static_cast<uint32_t>(r);
      t.values_[slot] = values_[p];
    }
  }
  return t;
}

Matrix CsrMatrix::MultiplyDense(const Matrix& d, const Parallelism& par) const {
  assert(cols_ == d.rows());
  Matrix out(rows_, d.cols());
  const size_t k = d.cols();
  // Per output element the accumulation runs over the row's nonzeros in
  // ascending column order, whatever the row partition.
  ParallelFor(par, rows_, [&](size_t, size_t row_begin, size_t row_end) {
    for (size_t r = row_begin; r < row_end; ++r) {
      double* orow = out.RowPtr(r);
      for (size_t p = row_ptr_[r]; p < row_ptr_[r + 1]; ++p) {
        AxpyN(orow, d.RowPtr(col_idx_[p]), values_[p], k);
      }
    }
  });
  return out;
}

Matrix CsrMatrix::TransposeMultiplyDense(const Matrix& d) const {
  assert(rows_ == d.rows());
  Matrix out(cols_, d.cols());
  const size_t k = d.cols();
  for (size_t r = 0; r < rows_; ++r) {
    const double* drow = d.RowPtr(r);
    for (size_t p = row_ptr_[r]; p < row_ptr_[r + 1]; ++p) {
      const double v = values_[p];
      double* orow = out.RowPtr(col_idx_[p]);
      for (size_t j = 0; j < k; ++j) orow[j] += v * drow[j];
    }
  }
  return out;
}

Matrix CsrMatrix::MultiplyDenseTransposed(const Matrix& d,
                                          const Parallelism& par) const {
  assert(cols_ == d.cols());
  Matrix out(rows_, d.rows());
  const size_t k = d.rows();
  // Reading d(j, c) down a column is a cols()-stride walk per nonzero.
  // Transposing d once up front (O(rows*cols), tiny next to the product)
  // turns every access into a contiguous row read; dt(c, j) == d(j, c)
  // exactly, so each element still sums the same terms in the same order.
  const Matrix dt = d.Transposed();
  ParallelFor(par, rows_, [&](size_t, size_t row_begin, size_t row_end) {
    for (size_t r = row_begin; r < row_end; ++r) {
      double* orow = out.RowPtr(r);
      for (size_t p = row_ptr_[r]; p < row_ptr_[r + 1]; ++p) {
        AxpyN(orow, dt.RowPtr(col_idx_[p]), values_[p], k);
      }
    }
  });
  return out;
}

double CsrMatrix::InnerProductWithProduct(const Matrix& w,
                                          const Matrix& h) const {
  assert(w.rows() == rows_ && h.cols() == cols_ && w.cols() == h.rows());
  const size_t k = w.cols();
  double total = 0.0;
  for (size_t r = 0; r < rows_; ++r) {
    const double* wrow = w.RowPtr(r);
    for (size_t p = row_ptr_[r]; p < row_ptr_[r + 1]; ++p) {
      const uint32_t c = col_idx_[p];
      double wh = 0.0;
      for (size_t j = 0; j < k; ++j) wh += wrow[j] * h(j, c);
      total += values_[p] * wh;
    }
  }
  return total;
}

}  // namespace newsdiff::la
