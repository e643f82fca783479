// Regression tests for the blocked kernel layer (la/kernels.cc) and its
// dispatchers in la/matrix.h: shape-edge agreement with the naive loops,
// the exact-determinism contract, the seed-bitwise naive fallback, and the
// 64-byte alignment invariant of Matrix storage. The ParallelKernels suite
// runs under tsan in CI (selected by the `Parallel` test-name regex).
#include <cstdint>
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

Parallelism Naive() {
  Parallelism par;
  par.kernels.kind = KernelKind::kNaive;
  return par;
}

Parallelism Blocked(size_t threads = 1) {
  Parallelism par;
  par.kernels.kind = KernelKind::kBlocked;
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
    MatMulInto(a, b, &naive, Naive());
    MatMulInto(a, b, &blocked, Blocked());
    ExpectNear(blocked, naive, 1e-9);
  }
}

TEST(BlockedKernels, MatMulTransAAgreesWithNaiveOnEdgeShapes) {
  for (const Shape& s : kShapes) {
    Matrix a = RandomMatrix(s.k, s.n, 3);
    Matrix b = RandomMatrix(s.k, s.m, 4);
    Matrix naive, blocked;
    MatMulTransAInto(a, b, &naive, Naive());
    MatMulTransAInto(a, b, &blocked, Blocked());
    ExpectNear(blocked, naive, 1e-9);
  }
}

TEST(BlockedKernels, MatMulTransBAgreesWithNaiveOnEdgeShapes) {
  for (const Shape& s : kShapes) {
    Matrix a = RandomMatrix(s.n, s.k, 5);
    Matrix b = RandomMatrix(s.m, s.k, 6);
    Matrix naive, blocked;
    MatMulTransBInto(a, b, &naive, Naive());
    MatMulTransBInto(a, b, &blocked, Blocked());
    ExpectNear(blocked, naive, 1e-9);
  }
}

TEST(BlockedKernels, RepeatedRunsAreBitwiseIdentical) {
  Matrix a = RandomMatrix(65, 129, 7);
  Matrix b = RandomMatrix(129, 33, 8);
  Matrix first, second;
  MatMulInto(a, b, &first, Blocked());
  MatMulInto(a, b, &second, Blocked());
  ExpectBitwise(second, first);
}

TEST(BlockedKernels, BlockSizeRoundingSurvivesDegenerateConfig) {
  // mc/kc/nc of 0/1 must be clamped to at least one micro-tile, not crash.
  Matrix a = RandomMatrix(9, 5, 9);
  Matrix b = RandomMatrix(5, 7, 10);
  Parallelism par = Blocked();
  par.kernels.mc = 0;
  par.kernels.kc = 0;
  par.kernels.nc = 1;
  Matrix naive, blocked;
  MatMulInto(a, b, &naive, Naive());
  MatMulInto(a, b, &blocked, par);
  ExpectNear(blocked, naive, 1e-9);
}

TEST(BlockedKernels, IntoVariantsReuseOutputCapacity) {
  Matrix a = RandomMatrix(16, 8, 11);
  Matrix b = RandomMatrix(8, 12, 12);
  Matrix out = RandomMatrix(40, 40, 13);  // larger: capacity must be reused
  const double* before = out.data().data();
  MatMulInto(a, b, &out, Blocked());
  EXPECT_EQ(out.rows(), 16u);
  EXPECT_EQ(out.cols(), 12u);
  EXPECT_EQ(out.data().data(), before);
}

TEST(NaiveKernels, MatMulBitwiseMatchesLegacyLoop) {
  // The naive path must reproduce the pre-kernel-layer ikj loop bit for
  // bit: this replicated loop IS the seed implementation.
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
  MatMulInto(a, b, &naive, Naive());
  ExpectBitwise(naive, legacy);
  Matrix wrapper = MatMul(a, b, Naive());
  ExpectBitwise(wrapper, legacy);
}

TEST(BlockedKernels, CsrProductsAreBitwiseEqualToNaive) {
  Rng rng(16);
  std::vector<Triplet> t;
  for (size_t i = 0; i < 900; ++i) {
    t.push_back({static_cast<uint32_t>(rng.NextBelow(120)),
                 static_cast<uint32_t>(rng.NextBelow(90)),
                 rng.NextDouble() + 0.1});
  }
  CsrMatrix csr = CsrMatrix::FromTriplets(120, 90, t);
  Matrix d = RandomMatrix(90, 37, 17);    // non-multiple of the strip width
  Matrix dt = RandomMatrix(37, 90, 18);
  ExpectBitwise(csr.MultiplyDense(d, Blocked()),
                csr.MultiplyDense(d, Naive()));
  ExpectBitwise(csr.MultiplyDenseTransposed(dt, Blocked()),
                csr.MultiplyDenseTransposed(dt, Naive()));
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
  MatMulInto(a, b, &serial_mm, Blocked(1));
  MatMulTransAInto(at, b, &serial_ta, Blocked(1));
  MatMulTransBInto(a, bt, &serial_tb, Blocked(1));
  for (size_t threads : {2ul, 4ul}) {
    Matrix mm, ta, tb;
    MatMulInto(a, b, &mm, Blocked(threads));
    MatMulTransAInto(at, b, &ta, Blocked(threads));
    MatMulTransBInto(a, bt, &tb, Blocked(threads));
    ExpectBitwise(mm, serial_mm);
    ExpectBitwise(ta, serial_ta);
    ExpectBitwise(tb, serial_tb);
  }
}

TEST(ParallelKernelsTest, DenseProductExactAcrossShardCounts) {
  Matrix a = RandomMatrix(130, 40, 21);
  Matrix b = RandomMatrix(40, 50, 22);
  Matrix baseline;
  MatMulInto(a, b, &baseline, Blocked(1));
  for (size_t shards : {3ul, 16ul, 64ul}) {
    Parallelism par = Blocked(4);
    par.shards = shards;
    Matrix out;
    MatMulInto(a, b, &out, par);
    ExpectBitwise(out, baseline);
  }
}

// The shared-B-panel driver packs each (jc, pc) panel once on the calling
// thread and fans the row blocks out per panel. Force many small panels so
// every jc/pc edge case (full panels, ragged tails) crosses the shared
// buffer, and check the result is bitwise identical across thread and
// shard counts — and to the one-shard run that never shares anything.
TEST(ParallelKernelsTest, SharedBPanelExactAcrossConfigsWithManyPanels) {
  Matrix a = RandomMatrix(70, 90, 31);
  Matrix b = RandomMatrix(90, 50, 32);
  Matrix at = a.Transposed();
  Matrix bt = b.Transposed();
  auto tiny_blocks = [](size_t threads, size_t shards) {
    Parallelism par = Blocked(threads);
    par.shards = shards;
    par.kernels.mc = 8;    // 9 row blocks
    par.kernels.kc = 16;   // 6 depth panels (one ragged)
    par.kernels.nc = 16;   // 4 column panels (one ragged)
    return par;
  };
  Matrix serial_mm, serial_ta, serial_tb;
  MatMulInto(a, b, &serial_mm, tiny_blocks(1, 1));
  MatMulTransAInto(at, b, &serial_ta, tiny_blocks(1, 1));
  MatMulTransBInto(a, bt, &serial_tb, tiny_blocks(1, 1));
  Matrix naive;
  MatMulInto(a, b, &naive, Naive());
  ExpectNear(serial_mm, naive, 1e-12);
  for (const auto& [threads, shards] :
       {std::pair<size_t, size_t>{2, 5}, {4, 16}, {3, 64}}) {
    Matrix mm, ta, tb;
    MatMulInto(a, b, &mm, tiny_blocks(threads, shards));
    MatMulTransAInto(at, b, &ta, tiny_blocks(threads, shards));
    MatMulTransBInto(a, bt, &tb, tiny_blocks(threads, shards));
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
    Parallelism par = Blocked();
    Matrix reference;
    MatMulInto(a, b, &reference, par);
    PackedB packed = PackMatrixB(b, par.kernels);
    Matrix prepacked;
    internal::BlockedMatMulPrepacked(a, packed, &prepacked, par);
    ExpectBitwise(prepacked, reference);
  }
}

TEST(PrepackedKernels, BitwiseEqualUnderTinyBlocksAndThreads) {
  Matrix a = RandomMatrix(70, 90, 43);
  Matrix b = RandomMatrix(90, 50, 44);
  Parallelism par = Blocked();
  par.kernels.mc = 8;
  par.kernels.kc = 16;
  par.kernels.nc = 16;
  Matrix reference;
  MatMulInto(a, b, &reference, par);
  PackedB packed = PackMatrixB(b, par.kernels);
  for (size_t threads : {1ul, 2ul, 4ul}) {
    Parallelism run = par;
    run.threads = threads;
    Matrix prepacked;
    internal::BlockedMatMulPrepacked(a, packed, &prepacked, run);
    ExpectBitwise(prepacked, reference);
  }
}

// Row i of a batched product must be bitwise equal to the same row run as
// a batch of one: this is the contract that lets PredictInterestBatch
// score many drafts in one GEMM without changing anyone's answer.
TEST(PrepackedKernels, BatchOfNBitwiseEqualsNBatchesOfOne) {
  Matrix batch = RandomMatrix(17, 48, 45);
  Matrix b = RandomMatrix(48, 24, 46);
  Parallelism par = Blocked(2);
  PackedB packed = PackMatrixB(b, par.kernels);
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
  Parallelism par = Blocked(1);
  PackedB packed = PackMatrixB(b, par.kernels);
  Matrix baseline;
  internal::BlockedMatMulPrepacked(a, packed, &baseline, par);
  for (size_t threads : {2ul, 4ul}) {
    Matrix out;
    internal::BlockedMatMulPrepacked(a, packed, &out, Blocked(threads));
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
  Matrix baseline = csr.MultiplyDense(d, Blocked(1));
  for (size_t threads : {2ul, 4ul}) {
    ExpectBitwise(csr.MultiplyDense(d, Blocked(threads)), baseline);
  }
}

}  // namespace
}  // namespace newsdiff::la
