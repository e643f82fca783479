// Regression tests for the blocked kernel layer (la/kernels.cc) behind the
// la/matrix.h entry points: shape-edge agreement with the naive reference
// loops, the exact-determinism contract, the seed-bitwise naive reference,
// the CSR products against the serial scatter loop, and the 64-byte
// alignment invariant of Matrix storage. The ParallelKernels suite runs
// under tsan in CI (selected by the `Parallel` test-name regex).
#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "common/rng.h"
#include "la/kernels.h"
#include "la/matrix.h"
#include "la/sparse.h"
#include "la/vector_ops.h"

namespace newsdiff::la {
namespace {

static_assert(
    std::is_same_v<AlignedVector::allocator_type, AlignedAllocator<double>>,
    "Matrix row storage must come from the 64-byte aligned allocator");
static_assert(kVectorAlignment == 64,
              "kernels assume a 64-byte aligned storage base");

Matrix RandomMatrix(size_t rows, size_t cols, uint64_t seed) {
  Matrix m(rows, cols);
  Rng rng(seed);
  for (double& v : m.data()) v = rng.Uniform(-1.0, 1.0);
  return m;
}

Parallelism Threads(size_t threads) {
  Parallelism par;
  par.threads = threads;
  return par;
}

void ExpectNear(const Matrix& got, const Matrix& want, double rel) {
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  for (size_t i = 0; i < want.size(); ++i) {
    double tol = rel * std::max(1.0, std::abs(want.data()[i]));
    EXPECT_NEAR(got.data()[i], want.data()[i], tol) << "flat index " << i;
  }
}

void ExpectBitwise(const Matrix& got, const Matrix& want) {
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got.data()[i], want.data()[i]) << "flat index " << i;
  }
}

/// (n, k, m) product shapes covering the panel-edge cases: empty, single
/// row/column/element, below one micro-tile, straddling tile and block
/// boundaries, and exact multiples.
struct Shape {
  size_t n, k, m;
};
const Shape kShapes[] = {
    {0, 0, 0}, {0, 5, 3}, {1, 5, 1},  {5, 1, 5},    {1, 1, 1},
    {3, 7, 5}, {4, 8, 8}, {17, 33, 9}, {64, 64, 64}, {65, 129, 33},
};

TEST(BlockedKernels, MatMulAgreesWithNaiveOnEdgeShapes) {
  for (const Shape& s : kShapes) {
    Matrix a = RandomMatrix(s.n, s.k, 1);
    Matrix b = RandomMatrix(s.k, s.m, 2);
    Matrix naive, blocked;
    internal::NaiveMatMul(a, b, &naive);
    MatMulInto(a, b, &blocked);
    ExpectNear(blocked, naive, 1e-9);
  }
}

TEST(BlockedKernels, MatMulTransAAgreesWithNaiveOnEdgeShapes) {
  for (const Shape& s : kShapes) {
    Matrix a = RandomMatrix(s.k, s.n, 3);
    Matrix b = RandomMatrix(s.k, s.m, 4);
    Matrix naive, blocked;
    internal::NaiveMatMulTransA(a, b, &naive);
    MatMulTransAInto(a, b, &blocked);
    ExpectNear(blocked, naive, 1e-9);
  }
}

TEST(BlockedKernels, MatMulTransBAgreesWithNaiveOnEdgeShapes) {
  for (const Shape& s : kShapes) {
    Matrix a = RandomMatrix(s.n, s.k, 5);
    Matrix b = RandomMatrix(s.m, s.k, 6);
    Matrix naive, blocked;
    internal::NaiveMatMulTransB(a, b, &naive);
    MatMulTransBInto(a, b, &blocked);
    ExpectNear(blocked, naive, 1e-9);
  }
}

TEST(BlockedKernels, RepeatedRunsAreBitwiseIdentical) {
  Matrix a = RandomMatrix(65, 129, 7);
  Matrix b = RandomMatrix(129, 33, 8);
  Matrix first, second;
  MatMulInto(a, b, &first);
  MatMulInto(a, b, &second);
  ExpectBitwise(second, first);
}

TEST(BlockedKernels, IntoVariantsReuseOutputCapacity) {
  Matrix a = RandomMatrix(16, 8, 11);
  Matrix b = RandomMatrix(8, 12, 12);
  Matrix out = RandomMatrix(40, 40, 13);  // larger: capacity must be reused
  const double* before = out.data().data();
  MatMulInto(a, b, &out);
  EXPECT_EQ(out.rows(), 16u);
  EXPECT_EQ(out.cols(), 12u);
  EXPECT_EQ(out.data().data(), before);
}

TEST(NaiveKernels, MatMulBitwiseMatchesLegacyLoop) {
  // The naive reference must reproduce the pre-kernel-layer ikj loop bit
  // for bit, at any thread count: this replicated loop IS the seed
  // implementation.
  Matrix a = RandomMatrix(23, 17, 14);
  Matrix b = RandomMatrix(17, 29, 15);
  Matrix legacy(a.rows(), b.cols());
  for (size_t i = 0; i < a.rows(); ++i) {
    const double* arow = a.RowPtr(i);
    double* orow = legacy.RowPtr(i);
    for (size_t p = 0; p < a.cols(); ++p) {
      const double av = arow[p];
      if (av == 0.0) continue;
      const double* brow = b.RowPtr(p);
      for (size_t j = 0; j < b.cols(); ++j) orow[j] += av * brow[j];
    }
  }
  Matrix naive;
  internal::NaiveMatMul(a, b, &naive);
  ExpectBitwise(naive, legacy);
  Matrix sharded;
  internal::NaiveMatMul(a, b, &sharded, Threads(4));
  ExpectBitwise(sharded, legacy);
}

// Both CSR products against the serial scatter loop of
// TransposeMultiplyDense over the transposed matrix, which visits each
// output row's nonzeros in the same ascending-column order: at NMF's
// width (num_topics = 24) and at a width above 256, serially and sharded.
TEST(CsrKernels, ProductsAreBitwiseEqualToTheScatterLoop) {
  Rng rng(16);
  std::vector<Triplet> t;
  for (size_t i = 0; i < 900; ++i) {
    t.push_back({static_cast<uint32_t>(rng.NextBelow(120)),
                 static_cast<uint32_t>(rng.NextBelow(90)),
                 rng.NextDouble() + 0.1});
  }
  CsrMatrix csr = CsrMatrix::FromTriplets(120, 90, t);
  const CsrMatrix csr_t = csr.Transposed();
  for (size_t width : {24ul, 300ul}) {
    SCOPED_TRACE("width=" + std::to_string(width));
    Matrix d = RandomMatrix(90, width, 17);
    Matrix dt = RandomMatrix(width, 90, 18);
    const Matrix want = csr_t.TransposeMultiplyDense(d);
    const Matrix want_t = csr_t.TransposeMultiplyDense(dt.Transposed());
    for (size_t threads : {1ul, 4ul}) {
      ExpectBitwise(csr.MultiplyDense(d, Threads(threads)), want);
      ExpectBitwise(csr.MultiplyDenseTransposed(dt, Threads(threads)),
                    want_t);
    }
  }
}

TEST(MatrixAlignment, RowStorageBaseIs64ByteAligned) {
  // Ragged widths included on purpose: the base stays aligned regardless.
  for (size_t cols : {1ul, 3ul, 7ul, 8ul, 13ul, 64ul}) {
    Matrix m(5, cols);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(m.RowPtr(0)) % kVectorAlignment,
              0u)
        << "cols=" << cols;
    m.Resize(11, cols + 1);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(m.RowPtr(0)) % kVectorAlignment,
              0u)
        << "after resize, cols=" << cols + 1;
  }
}

TEST(MatrixAlignment, InteriorRowsAlignedWhenColsDivisibleBy8) {
  Matrix m(6, 16);
  for (size_t r = 0; r < m.rows(); ++r) {
    EXPECT_EQ(reinterpret_cast<uintptr_t>(m.RowPtr(r)) % kVectorAlignment,
              0u)
        << "row " << r;
  }
}

// --- Thread/shard invariance: runs under tsan via the Parallel regex. ---

TEST(ParallelKernelsTest, DenseProductsExactAcrossThreadCounts) {
  Matrix a = RandomMatrix(65, 129, 19);
  Matrix b = RandomMatrix(129, 65, 20);
  Matrix at = a.Transposed();  // 129 x 65: shares b's row count for TransA
  Matrix bt = b.Transposed();  // 65 x 129: shares a's col count for TransB
  Matrix serial_mm, serial_ta, serial_tb;
  MatMulInto(a, b, &serial_mm, Threads(1));
  MatMulTransAInto(at, b, &serial_ta, Threads(1));
  MatMulTransBInto(a, bt, &serial_tb, Threads(1));
  for (size_t threads : {2ul, 4ul}) {
    Matrix mm, ta, tb;
    MatMulInto(a, b, &mm, Threads(threads));
    MatMulTransAInto(at, b, &ta, Threads(threads));
    MatMulTransBInto(a, bt, &tb, Threads(threads));
    ExpectBitwise(mm, serial_mm);
    ExpectBitwise(ta, serial_ta);
    ExpectBitwise(tb, serial_tb);
  }
}

TEST(ParallelKernelsTest, DenseProductExactAcrossShardCounts) {
  Matrix a = RandomMatrix(130, 40, 21);
  Matrix b = RandomMatrix(40, 50, 22);
  Matrix baseline;
  MatMulInto(a, b, &baseline, Threads(1));
  for (size_t shards : {3ul, 16ul, 64ul}) {
    Parallelism par = Threads(4);
    par.shards = shards;
    Matrix out;
    MatMulInto(a, b, &out, par);
    ExpectBitwise(out, baseline);
  }
}

/// (n, k, m) spanning several panels of every block size with ragged
/// tails: 3 row blocks of 64 (one ragged), 2 depth panels of 256 (one
/// ragged), 3 column panels of 128 (one ragged).
constexpr Shape kManyPanels = {150, 300, 300};

// The shared-B-panel driver packs each (jc, pc) panel once on the calling
// thread and fans the row blocks out per panel. Use a shape with many
// panels so every jc/pc edge case (full panels, ragged tails) crosses the
// shared buffer, and check the result is bitwise identical across thread
// and shard counts — and to the one-shard run that never shares anything.
TEST(ParallelKernelsTest, SharedBPanelExactAcrossConfigsWithManyPanels) {
  const Shape s = kManyPanels;
  Matrix a = RandomMatrix(s.n, s.k, 31);
  Matrix b = RandomMatrix(s.k, s.m, 32);
  Matrix at = a.Transposed();
  Matrix bt = b.Transposed();
  auto sharded = [](size_t threads, size_t shards) {
    Parallelism par = Threads(threads);
    par.shards = shards;
    return par;
  };
  Matrix serial_mm, serial_ta, serial_tb;
  MatMulInto(a, b, &serial_mm, sharded(1, 1));
  MatMulTransAInto(at, b, &serial_ta, sharded(1, 1));
  MatMulTransBInto(a, bt, &serial_tb, sharded(1, 1));
  Matrix naive;
  internal::NaiveMatMul(a, b, &naive);
  ExpectNear(serial_mm, naive, 1e-12);
  for (const auto& [threads, shards] :
       {std::pair<size_t, size_t>{2, 5}, {4, 16}, {3, 64}}) {
    Matrix mm, ta, tb;
    MatMulInto(a, b, &mm, sharded(threads, shards));
    MatMulTransAInto(at, b, &ta, sharded(threads, shards));
    MatMulTransBInto(a, bt, &tb, sharded(threads, shards));
    ExpectBitwise(mm, serial_mm);
    ExpectBitwise(ta, serial_ta);
    ExpectBitwise(tb, serial_tb);
  }
}

// --- Pre-packed inference path. ---

TEST(PrepackedKernels, BitwiseEqualToBlockedMatMulOnEdgeShapes) {
  for (const Shape& s : kShapes) {
    Matrix a = RandomMatrix(s.n, s.k, 41);
    Matrix b = RandomMatrix(s.k, s.m, 42);
    Matrix reference;
    MatMulInto(a, b, &reference);
    PackedB packed = PackMatrixB(b);
    Matrix prepacked;
    internal::BlockedMatMulPrepacked(a, packed, &prepacked, Threads(1));
    ExpectBitwise(prepacked, reference);
  }
}

TEST(PrepackedKernels, BitwiseEqualUnderTinyBlocksAndThreads) {
  const Shape s = kManyPanels;
  Matrix a = RandomMatrix(s.n, s.k, 43);
  Matrix b = RandomMatrix(s.k, s.m, 44);
  Matrix reference;
  MatMulInto(a, b, &reference);
  PackedB packed = PackMatrixB(b);
  for (size_t threads : {1ul, 2ul, 4ul}) {
    Matrix prepacked;
    internal::BlockedMatMulPrepacked(a, packed, &prepacked, Threads(threads));
    ExpectBitwise(prepacked, reference);
  }
}

// Row i of a batched product must be bitwise equal to the same row run as
// a batch of one: this is the contract that lets PredictInterestBatch
// score many drafts in one GEMM without changing anyone's answer.
TEST(PrepackedKernels, BatchOfNBitwiseEqualsNBatchesOfOne) {
  Matrix batch = RandomMatrix(17, 48, 45);
  Matrix b = RandomMatrix(48, 24, 46);
  Parallelism par = Threads(2);
  PackedB packed = PackMatrixB(b);
  Matrix all;
  internal::BlockedMatMulPrepacked(batch, packed, &all, par);
  for (size_t r = 0; r < batch.rows(); ++r) {
    Matrix one(1, batch.cols());
    for (size_t c = 0; c < batch.cols(); ++c) {
      one.RowPtr(0)[c] = batch.RowPtr(r)[c];
    }
    Matrix single;
    internal::BlockedMatMulPrepacked(one, packed, &single, par);
    for (size_t c = 0; c < all.cols(); ++c) {
      EXPECT_EQ(all.RowPtr(r)[c], single.RowPtr(0)[c])
          << "row " << r << " col " << c;
    }
  }
}

TEST(ParallelKernelsTest, PrepackedProductExactAcrossThreadCounts) {
  Matrix a = RandomMatrix(65, 129, 53);
  Matrix b = RandomMatrix(129, 65, 54);
  PackedB packed = PackMatrixB(b);
  Matrix baseline;
  internal::BlockedMatMulPrepacked(a, packed, &baseline, Threads(1));
  for (size_t threads : {2ul, 4ul}) {
    Matrix out;
    internal::BlockedMatMulPrepacked(a, packed, &out, Threads(threads));
    ExpectBitwise(out, baseline);
  }
}

TEST(ParallelKernelsTest, CsrProductExactAcrossThreadCounts) {
  Rng rng(23);
  std::vector<Triplet> t;
  for (size_t i = 0; i < 1200; ++i) {
    t.push_back({static_cast<uint32_t>(rng.NextBelow(200)),
                 static_cast<uint32_t>(rng.NextBelow(80)),
                 rng.NextDouble() + 0.1});
  }
  CsrMatrix csr = CsrMatrix::FromTriplets(200, 80, t);
  Matrix d = RandomMatrix(80, 48, 24);
  Matrix baseline = csr.MultiplyDense(d, Threads(1));
  for (size_t threads : {2ul, 4ul}) {
    ExpectBitwise(csr.MultiplyDense(d, Threads(threads)), baseline);
  }
}

}  // namespace
}  // namespace newsdiff::la
