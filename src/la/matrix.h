#ifndef NEWSDIFF_LA_MATRIX_H_
#define NEWSDIFF_LA_MATRIX_H_

#include <cassert>
#include <cstddef>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "la/vector_ops.h"

namespace newsdiff::la {

/// Dense row-major matrix of doubles. The workhorse for NMF factors and
/// neural-network activations/parameters. Copyable and movable.
///
/// Storage invariant: the row storage base (RowPtr(0)) is always 64-byte
/// aligned (AlignedVector). Rows are contiguous with stride cols(), so
/// RowPtr(r) is also 64-byte aligned whenever cols() is a multiple of 8
/// doubles. The vectorized kernels rely on the aligned base (never on
/// per-row alignment — they use unaligned-safe accesses for interior
/// rows), so no shape ever hits a UB path.
class Matrix {
 public:
  /// Creates an empty 0x0 matrix.
  Matrix() : rows_(0), cols_(0) {}

  /// Creates a rows x cols matrix initialised to zero.
  Matrix(size_t rows, size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

  /// Creates a rows x cols matrix filled with `value`.
  Matrix(size_t rows, size_t cols, double value)
      : rows_(rows), cols_(cols), data_(rows * cols, value) {}

  /// Creates a matrix from nested initializer data (rows of equal length).
  static Matrix FromRows(const std::vector<std::vector<double>>& rows);

  /// Creates a rows x cols matrix with entries uniform in [lo, hi).
  static Matrix Random(size_t rows, size_t cols, double lo, double hi,
                       Rng& rng);

  /// Creates a rows x cols matrix with N(0, stddev^2) entries.
  static Matrix RandomNormal(size_t rows, size_t cols, double stddev,
                             Rng& rng);

  /// Identity matrix of size n x n.
  static Matrix Identity(size_t n);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  double& operator()(size_t r, size_t c) {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  double operator()(size_t r, size_t c) const {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  /// Raw pointer to row r (cols() contiguous doubles). RowPtr(0) is
  /// 64-byte aligned (see the class invariant above); RowPtr(r) for r > 0
  /// is 64-byte aligned iff (r * cols()) % 8 == 0.
  double* RowPtr(size_t r) {
    assert(r < rows_);
    return data_.data() + r * cols_;
  }
  const double* RowPtr(size_t r) const {
    assert(r < rows_);
    return data_.data() + r * cols_;
  }

  AlignedVector& data() { return data_; }
  const AlignedVector& data() const { return data_; }

  /// Sets every entry to `value`.
  void Fill(double value);

  /// Resizes to rows x cols, zero-filling (contents are discarded). The
  /// underlying capacity is kept, so shrinking/regrowing a scratch matrix
  /// does not reallocate.
  void Resize(size_t rows, size_t cols);

  /// Returns the transpose.
  Matrix Transposed() const;

  /// this += other (same shape).
  void Add(const Matrix& other);

  /// this -= other (same shape).
  void Sub(const Matrix& other);

  /// this *= scalar.
  void Scale(double s);

  /// One multiplicative update (NMF's Eq. 8), elementwise in one pass:
  /// t = this .* num, t = t ./ (den + eps), this = (t < floor ? floor : t).
  /// A NaN stays NaN (it never compares below the floor) and -0.0 rises
  /// to a positive floor. All three matrices have the same shape. Bitwise
  /// invariant to the parallel configuration (disjoint element writes).
  void MultiplicativeUpdate(const Matrix& num, const Matrix& den, double eps,
                            double floor, const Parallelism& par = {});

  /// Sum of all entries.
  double Sum() const;

  /// Frobenius norm sqrt(sum of squares).
  double FrobeniusNorm() const;

  /// Maximum absolute entry.
  double MaxAbs() const;

  /// l2 norm of row r.
  double RowNorm(size_t r) const;

  /// Returns row r copied into a vector.
  std::vector<double> Row(size_t r) const;

  /// Overwrites row r from `v` (must have cols() entries).
  void SetRow(size_t r, const std::vector<double>& v);

  /// Human-readable rendering (for debugging small matrices).
  std::string ToString(int max_rows = 8, int max_cols = 8) const;

 private:
  size_t rows_;
  size_t cols_;
  AlignedVector data_;
};

// ---------------------------------------------------------------------------
// GEMM entry points. Each runs the cache-blocked, register-tiled kernel of
// la/kernels.cc, which partitions *output* rows across shards with each
// element's accumulation chain independent of the partition, so results
// never vary with the parallel configuration. They agree with the seed's
// naive loops (la::internal::NaiveMatMul*, kept as the tests' reference) to
// ~1e-9 relative, not bitwise.
// ---------------------------------------------------------------------------

/// out = a * b. Shapes: (n x k) * (k x m) -> (n x m).
Matrix MatMul(const Matrix& a, const Matrix& b, const Parallelism& par = {});

/// out = a^T * b. Shapes: (k x n)^T * (k x m) -> (n x m).
Matrix MatMulTransA(const Matrix& a, const Matrix& b,
                    const Parallelism& par = {});

/// out = a * b^T. Shapes: (n x k) * (m x k)^T -> (n x m).
Matrix MatMulTransB(const Matrix& a, const Matrix& b,
                    const Parallelism& par = {});

/// In-place variants: `*out` is resized (reusing capacity — a scratch
/// matrix hot loop allocates nothing in steady state) and overwritten.
/// `out` must not alias `a` or `b`; `a` and `b` may alias each other.
void MatMulInto(const Matrix& a, const Matrix& b, Matrix* out,
                const Parallelism& par = {});
void MatMulTransAInto(const Matrix& a, const Matrix& b, Matrix* out,
                      const Parallelism& par = {});
void MatMulTransBInto(const Matrix& a, const Matrix& b, Matrix* out,
                      const Parallelism& par = {});

}  // namespace newsdiff::la

#endif  // NEWSDIFF_LA_MATRIX_H_
