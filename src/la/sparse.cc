// CSR products. This translation unit is compiled with the kernel flags
// plus -ffp-contract=off (see la/CMakeLists.txt): the row kernel below
// keeps each output row in vector registers, and the flag stops the
// compiler fusing its multiply and add into one FMA, which would round
// once where the scalar loop rounds twice.
#include "la/sparse.h"

#include <algorithm>
#include <cassert>

#if defined(__AVX512F__)
#include <immintrin.h>
#endif

#include "la/vector_ops.h"

namespace newsdiff::la {
namespace {

#if defined(__AVX512F__)
/// Columns of one register-resident output block: four zmm accumulators.
constexpr size_t kBlockCols = 32;

/// out[0..w) = sum over the row's nonzeros p of vals[p] * d(cols[p], c0 + j)
/// for j < w, with w in (8 * (kAcc - 1), 8 * kAcc] and `tail` masking the
/// last accumulator's lanes past w. Each lane starts at +0.0 and takes one
/// multiply and one add per nonzero, in ascending order: the two roundings,
/// in the same order, that AxpyN does into a zeroed row, so every bit
/// matches the scalar loop.
template <size_t kAcc>
void RowBlock(const uint32_t* cols, const double* vals, size_t nnz,
              const double* d, size_t ld, size_t c0, __mmask8 tail,
              double* out) {
  __m512d acc[kAcc];
#pragma GCC unroll 4
  for (size_t i = 0; i < kAcc; ++i) acc[i] = _mm512_setzero_pd();
  for (size_t p = 0; p < nnz; ++p) {
    const __m512d v = _mm512_set1_pd(vals[p]);
    const double* drow = d + cols[p] * ld + c0;
#pragma GCC unroll 4
    for (size_t i = 0; i + 1 < kAcc; ++i) {
      acc[i] = _mm512_add_pd(acc[i],
                             _mm512_mul_pd(v, _mm512_loadu_pd(drow + 8 * i)));
    }
    const __m512d last = _mm512_maskz_loadu_pd(tail, drow + 8 * (kAcc - 1));
    acc[kAcc - 1] = _mm512_add_pd(acc[kAcc - 1], _mm512_mul_pd(v, last));
  }
#pragma GCC unroll 4
  for (size_t i = 0; i + 1 < kAcc; ++i) _mm512_storeu_pd(out + 8 * i, acc[i]);
  _mm512_mask_storeu_pd(out + 8 * (kAcc - 1), tail, acc[kAcc - 1]);
}

/// RowBlock by accumulator count: entry (w - 1) / 8 covers a w-column block.
constexpr void (*kRowBlocks[])(const uint32_t*, const double*, size_t,
                               const double*, size_t, size_t, __mmask8,
                               double*) = {RowBlock<1>, RowBlock<2>,
                                           RowBlock<3>, RowBlock<4>};
#endif

/// out(r, :) = sum over the nonzeros p of row r of a.values()[p] *
/// d(a.col_idx()[p], :), each row's nonzeros visited in ascending column
/// order. Output rows are partitioned across shards; no element's sum
/// depends on the partition.
void MultiplyRows(const CsrMatrix& a, const Matrix& d, Matrix* out,
                  const Parallelism& par) {
  const size_t k = d.cols();
  ParallelFor(par, a.rows(), [&](size_t, size_t row_begin, size_t row_end) {
    for (size_t r = row_begin; r < row_end; ++r) {
      double* orow = out->RowPtr(r);
      const size_t begin = a.row_ptr()[r];
      const size_t nnz = a.row_ptr()[r + 1] - begin;
      const uint32_t* cols = a.col_idx().data() + begin;
      const double* vals = a.values().data() + begin;
#if defined(__AVX512F__)
      const double* dbase = d.data().data();
      for (size_t c0 = 0; c0 < k; c0 += kBlockCols) {
        const size_t w = std::min(kBlockCols, k - c0);
        const auto tail = static_cast<__mmask8>(0xFFu >> ((8 - w % 8) % 8));
        kRowBlocks[(w - 1) / 8](cols, vals, nnz, dbase, k, c0, tail,
                                orow + c0);
      }
#else
      for (size_t p = 0; p < nnz; ++p) {
        AxpyN(orow, d.RowPtr(cols[p]), vals[p], k);
      }
#endif
    }
  });
}

}  // namespace

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
  MultiplyRows(*this, d, &out, par);
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
  // Reading d(j, c) down a column is a cols()-stride walk per nonzero.
  // Transposing d once up front (O(rows*cols), tiny next to the product)
  // turns every access into a contiguous row read; dt(c, j) == d(j, c)
  // exactly, so each element still sums the same terms in the same order.
  MultiplyRows(*this, d.Transposed(), &out, par);
  return out;
}

double CsrMatrix::InnerProductWithProduct(const Matrix& w,
                                          const Matrix& h) const {
  assert(w.rows() == rows_ && h.cols() == cols_ && w.cols() == h.rows());
  const size_t k = w.cols();
  // ht(c, j) == h(j, c): one transpose turns the column walk per nonzero
  // into a row read, and each sum keeps its terms and their order.
  const Matrix ht = h.Transposed();
  double total = 0.0;
  for (size_t r = 0; r < rows_; ++r) {
    const double* wrow = w.RowPtr(r);
    for (size_t p = row_ptr_[r]; p < row_ptr_[r + 1]; ++p) {
      const double* hrow = ht.RowPtr(col_idx_[p]);
      double wh = 0.0;
      for (size_t j = 0; j < k; ++j) wh += wrow[j] * hrow[j];
      total += values_[p] * wh;
    }
  }
  return total;
}

}  // namespace newsdiff::la
