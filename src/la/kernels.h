#ifndef NEWSDIFF_LA_KERNELS_H_
#define NEWSDIFF_LA_KERNELS_H_

#include "common/parallel.h"
#include "la/matrix.h"

#include <vector>

namespace newsdiff::la {

/// The right operand of a blocked GEMM, pre-packed into the exact
/// (jc, pc)-panel layout the blocked driver consumes. Packing B is O(k*m)
/// work per call; for inference the weights are immutable across calls, so
/// a served nn::Dense packs them once (Dense::Prepack) and every call
/// reuses the panels. BlockedMatMulPrepacked over a PackedB is
/// bitwise identical to BlockedMatMul over the original matrix — the
/// packed values and the traversal are the same; only WHO packed them
/// changes.
struct PackedB {
  size_t k = 0;  ///< Rows of the original B.
  size_t m = 0;  ///< Columns of the original B.
  AlignedVector data;
  /// Offset of panel (jc/nc, pc/kc) in `data`, pc-major within a jc band:
  /// panel_offset[(jc/nc) * num_pc_blocks + (pc/kc)].
  std::vector<size_t> panel_offset;
};

/// Packs all (jc, pc) panels of `b` for the blocked kernels.
PackedB PackMatrixB(const Matrix& b);

namespace internal {

/// Cache-blocked, register-tiled GEMM kernels: the one implementation of
/// each dense product. Callers go through the MatMul*/MatMul*Into entry
/// points in la/matrix.h; these exist for those, the bench, and the tests.
///
/// Implementation (la/kernels.cc, compiled -O3 and, where supported,
/// -march=native so the micro-kernel vectorizes):
///   - GotoBLAS-style blocking: jc (nc columns) -> pc (kc depth, B panel
///     packed) -> ic (mc rows, A block packed) -> register micro-tiles,
///     8x8 where the build targets AVX-512 and 4x8 elsewhere. The tile
///     height never changes an output's accumulation chain: built with
///     FMA, both heights give the same bits. The block sizes are constants
///     of kernels.cc.
///   - Packing buffers come from the executing thread's Arena, so the hot
///     path allocates nothing in steady state.
///   - Parallelism splits the mc row blocks across shards; every output
///     element's accumulation chain is a pure function of the shape, so
///     results are bitwise identical across runs, thread counts, and shard
///     counts — but NOT bitwise equal to the naive reference loops below
///     (different accumulation grouping; agreement is ~1e-9 relative,
///     gated by bench/kernels_bench and tests/kernels_test).
///
/// `out` is resized (capacity-reusing) and fully overwritten; it must not
/// alias `a` or `b`. `a` and `b` may alias each other (read-only).
void BlockedMatMul(const Matrix& a, const Matrix& b, Matrix* out,
                   const Parallelism& par);

/// out = a^T * b, blocked. Shapes: (k x n)^T * (k x m) -> (n x m).
void BlockedMatMulTransA(const Matrix& a, const Matrix& b, Matrix* out,
                         const Parallelism& par);

/// out = a * b^T, blocked. Shapes: (n x k) * (m x k)^T -> (n x m).
void BlockedMatMulTransB(const Matrix& a, const Matrix& b, Matrix* out,
                         const Parallelism& par);

/// out = a * b over pre-packed panels: bitwise identical to BlockedMatMul
/// over the matrix `b` was packed from. Same determinism contract as
/// BlockedMatMul; additionally, because every output row's accumulation
/// chain reads only that row of A, results are bitwise invariant to batch
/// composition: row i of a batch-of-N product equals the corresponding
/// batch-of-1.
void BlockedMatMulPrepacked(const Matrix& a, const PackedB& b, Matrix* out,
                            const Parallelism& par);

/// The seed's scalar GEMM loops (la/matrix.cc, tree-wide -O2 flags, no
/// fused multiply-add), kept only as the reference tests and
/// bench/kernels_bench compare the blocked kernels against; no production
/// path calls them. Same shapes and `out` contract as the blocked kernels;
/// results are bitwise invariant to `par`.
void NaiveMatMul(const Matrix& a, const Matrix& b, Matrix* out,
                 const Parallelism& par = {});
void NaiveMatMulTransA(const Matrix& a, const Matrix& b, Matrix* out,
                       const Parallelism& par = {});
void NaiveMatMulTransB(const Matrix& a, const Matrix& b, Matrix* out,
                       const Parallelism& par = {});

}  // namespace internal
}  // namespace newsdiff::la

#endif  // NEWSDIFF_LA_KERNELS_H_
