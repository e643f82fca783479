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
/// bitwise identical to BlockedMatMul over the original matrix when the
/// kc/nc block sizes match — the packed values and the traversal are the
/// same; only WHO packed them changes.
struct PackedB {
  size_t k = 0;   ///< Rows of the original B.
  size_t m = 0;   ///< Columns of the original B.
  size_t kc = 0;  ///< Effective depth block used at pack time.
  size_t nc = 0;  ///< Effective column block used at pack time.
  AlignedVector data;
  /// Offset of panel (jc/nc, pc/kc) in `data`, pc-major within a jc band:
  /// panel_offset[(jc/nc) * num_pc_blocks + (pc/kc)].
  std::vector<size_t> panel_offset;
};

/// Packs all (jc, pc) panels of `b` for the block sizes in `cfg` (after the
/// same micro-kernel rounding BlockedMatMul applies).
PackedB PackMatrixB(const Matrix& b, const KernelConfig& cfg);

namespace internal {

/// Cache-blocked, register-tiled GEMM kernels (KernelKind::kBlocked).
/// Callers go through the MatMul*/MatMul*Into dispatchers in la/matrix.h;
/// these entry points exist for the dispatchers, the bench, and the
/// blocked-vs-naive regression tests.
///
/// Implementation (la/kernels.cc, compiled -O3 and, where supported,
/// -march=native so the micro-kernel vectorizes):
///   - GotoBLAS-style blocking: jc (nc columns) -> pc (kc depth, B panel
///     packed) -> ic (mc rows, A block packed) -> 4x8 register micro-tiles.
///   - Packing buffers come from the executing thread's Arena, so the hot
///     path allocates nothing in steady state.
///   - Parallelism splits the mc row blocks across shards; every output
///     element's accumulation chain is a pure function of (shape, block
///     sizes), so results are bitwise identical across runs, thread
///     counts, and shard counts — but NOT bitwise equal to the naive
///     loops (different accumulation grouping; agreement is ~1e-9
///     relative, gated by bench/kernels_bench and tests/kernels_test).
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

/// out = a * b over pre-packed panels. Uses the kc/nc recorded in `b` (so
/// the result is bitwise identical to BlockedMatMul packed under the same
/// KernelConfig) and par.kernels.mc for the row blocking, which never
/// affects the arithmetic. Same determinism contract as BlockedMatMul;
/// additionally, because every output row's accumulation chain reads only
/// that row of A, results are bitwise invariant to batch composition:
/// row i of a batch-of-N product equals the corresponding batch-of-1.
void BlockedMatMulPrepacked(const Matrix& a, const PackedB& b, Matrix* out,
                            const Parallelism& par);

}  // namespace internal
}  // namespace newsdiff::la

#endif  // NEWSDIFF_LA_KERNELS_H_
