// Cache-blocked GEMM kernels. This translation unit is compiled with
// stronger optimization flags than the rest of the tree (see
// la/CMakeLists.txt): the micro-kernel below is written so the compiler
// can keep the 4x8 accumulator tile in vector registers and the packed
// panels stream linearly from L1/L2.
//
// Determinism: the traversal (block boundaries, packing layout, per-element
// accumulation chain) is a pure function of the shape, because the block
// sizes below are constants. Thread and shard counts only decide WHICH
// thread computes a row block, never the arithmetic inside it, so outputs
// are bitwise identical across runs and parallel configurations on a given
// binary. (Cross-binary reproducibility is the naive reference loops' job —
// they are compiled with the tree-wide flags and never fuse multiplies and
// adds.)
#include "la/kernels.h"

#include <algorithm>
#include <cassert>

#include "common/arena.h"

namespace newsdiff::la {
namespace {

/// Micro-tile height (rows of A) and width (columns of B). 4x8 doubles =
/// 32 accumulators: fits the 16 ymm registers of AVX2 two-per-register
/// and still leaves headroom on SSE2.
constexpr size_t kMr = 4;
constexpr size_t kNr = 8;

/// Block sizes, sized for a 32K L1 / 256K+ L2 core: a kKc x kNr strip of
/// packed B (16 KiB) stays in L1 while the micro-kernel sweeps it, and the
/// kMc x kKc packed A block (128 KiB) stays in L2. They fix every output
/// element's accumulation chain: another value gives other results, still
/// within ~1e-9 of the naive loops.
constexpr size_t kMc = 64;   // rows of A per L2-resident block
constexpr size_t kKc = 256;  // depth of one packed panel
constexpr size_t kNc = 128;  // columns of B per packed panel
static_assert(kMc % kMr == 0 && kNc % kNr == 0,
              "blocks must hold whole micro-tiles");

/// C[0..mr)x[0..nr) += packA(kc x kMr strips) * packB(kc x kNr strips).
/// The accumulator tile lives in registers for the whole kc loop; the
/// panel edges are zero-padded, so the arithmetic is always full-tile and
/// only the writeback is masked.
void MicroKernel(const double* pa, const double* pb, size_t kc, double* c,
                 size_t ldc, size_t mr, size_t nr) {
  double acc[kMr][kNr] = {};
  for (size_t p = 0; p < kc; ++p) {
    const double* ap = pa + p * kMr;
    const double* bp = pb + p * kNr;
    for (size_t i = 0; i < kMr; ++i) {
      for (size_t j = 0; j < kNr; ++j) acc[i][j] += ap[i] * bp[j];
    }
  }
  if (mr == kMr && nr == kNr) {
    for (size_t i = 0; i < kMr; ++i) {
      double* crow = c + i * ldc;
      for (size_t j = 0; j < kNr; ++j) crow[j] += acc[i][j];
    }
  } else {
    for (size_t i = 0; i < mr; ++i) {
      double* crow = c + i * ldc;
      for (size_t j = 0; j < nr; ++j) crow[j] += acc[i][j];
    }
  }
}

/// Packs kc x nc of the right operand into kNr-column strips
/// (strip-major, p-major within a strip), zero-padding the last strip.
/// load(p, j) reads element (pc + p, jc + j) of op(B).
template <typename Load>
void PackB(double* dst, size_t kc, size_t nc, Load load) {
  for (size_t js = 0; js < nc; js += kNr) {
    const size_t nr = std::min(kNr, nc - js);
    double* strip = dst + (js / kNr) * (kc * kNr);
    for (size_t p = 0; p < kc; ++p) {
      for (size_t j = 0; j < kNr; ++j) {
        strip[p * kNr + j] = j < nr ? load(p, js + j) : 0.0;
      }
    }
  }
}

/// Packs mc x kc of the left operand into kMr-row strips (strip-major,
/// p-major within a strip), zero-padding the last strip. load(i, p) reads
/// element (ic + i, pc + p) of op(A).
template <typename Load>
void PackA(double* dst, size_t mc, size_t kc, Load load) {
  for (size_t is = 0; is < mc; is += kMr) {
    const size_t mr = std::min(kMr, mc - is);
    double* strip = dst + (is / kMr) * (kc * kMr);
    for (size_t p = 0; p < kc; ++p) {
      for (size_t i = 0; i < kMr; ++i) {
        strip[p * kMr + i] = i < mr ? load(is + i, p) : 0.0;
      }
    }
  }
}

/// The shared blocked driver: out(n x m) = opA(n x k) * opB(k x m), where
/// loadA(i, p) reads the left operand in GLOBAL coordinates and
/// get_panel(jc, pc, kc_eff, nc_eff) returns the packed B panel for that
/// (jc, pc) block — either freshly packed into a scratch buffer
/// (BlockedGemm below) or a pointer into a PackedB prepared once and
/// reused across calls (BlockedMatMulPrepacked). The jc/pc panel loops run
/// on the calling thread; the parallel region inside a panel covers the mc
/// row blocks, each shard packing only its own A strips. Determinism: each
/// output element's accumulation chain is jc-outer/pc-inner over identical
/// packed values regardless of thread or shard counts — and regardless of
/// the panel's provenance — and shards never share a written cache line;
/// C row blocks are disjoint.
template <typename LoadA, typename GetPanel>
void BlockedGemmPanels(size_t n, size_t k, size_t m, Matrix* out,
                       const Parallelism& par, LoadA load_a,
                       GetPanel get_panel) {
  out->Resize(n, m);
  if (n == 0 || k == 0 || m == 0) return;
  const size_t row_blocks = (n + kMc - 1) / kMc;

  for (size_t jc = 0; jc < m; jc += kNc) {
    const size_t nc_eff = std::min(kNc, m - jc);
    for (size_t pc = 0; pc < k; pc += kKc) {
      const size_t kc_eff = std::min(kKc, k - pc);
      const double* packb = get_panel(jc, pc, kc_eff, nc_eff);
      ParallelFor(par, row_blocks,
                  [&](size_t, size_t blk_begin, size_t blk_end) {
        if (blk_begin == blk_end) return;
        ArenaBuffer packa = Arena::ThreadLocal().Acquire(kMc * kKc);
        for (size_t blk = blk_begin; blk < blk_end; ++blk) {
          const size_t ic = blk * kMc;
          const size_t mc_eff = std::min(kMc, n - ic);
          PackA(packa.data(), mc_eff, kc_eff,
                [&](size_t i, size_t p) { return load_a(ic + i, pc + p); });
          for (size_t js = 0; js < nc_eff; js += kNr) {
            const size_t nr = std::min(kNr, nc_eff - js);
            const double* pb = packb + (js / kNr) * (kc_eff * kNr);
            for (size_t is = 0; is < mc_eff; is += kMr) {
              const size_t mr = std::min(kMr, mc_eff - is);
              const double* pa = packa.data() + (is / kMr) * (kc_eff * kMr);
              MicroKernel(pa, pb, kc_eff, out->RowPtr(ic + is) + jc + js, m,
                          mr, nr);
            }
          }
        }
      });
    }
  }
}

/// Pack-as-you-go wrapper: packs each B panel exactly once per call into a
/// caller-arena buffer every shard then reads. (Earlier, every shard
/// re-packed the same B panel — O(k*m) redundant work per shard.)
template <typename LoadA, typename LoadB>
void BlockedGemm(size_t n, size_t k, size_t m, Matrix* out,
                 const Parallelism& par, LoadA load_a, LoadB load_b) {
  Arena& caller_arena = Arena::ThreadLocal();
  ArenaBuffer packb = caller_arena.Acquire(kKc * kNc);
  BlockedGemmPanels(
      n, k, m, out, par, load_a,
      [&](size_t jc, size_t pc, size_t kc_eff, size_t nc_eff) {
        PackB(packb.data(), kc_eff, nc_eff,
              [&](size_t p, size_t j) { return load_b(pc + p, jc + j); });
        return packb.data();
      });
}

}  // namespace

PackedB PackMatrixB(const Matrix& b) {
  PackedB packed;
  packed.k = b.rows();
  packed.m = b.cols();
  const size_t k = packed.k;
  const size_t m = packed.m;
  if (k == 0 || m == 0) return packed;

  size_t total = 0;
  for (size_t jc = 0; jc < m; jc += kNc) {
    const size_t nc_eff = std::min(kNc, m - jc);
    const size_t strips = (nc_eff + kNr - 1) / kNr;
    for (size_t pc = 0; pc < k; pc += kKc) {
      const size_t kc_eff = std::min(kKc, k - pc);
      packed.panel_offset.push_back(total);
      total += strips * kc_eff * kNr;
    }
  }
  packed.data.resize(total);
  size_t idx = 0;
  for (size_t jc = 0; jc < m; jc += kNc) {
    const size_t nc_eff = std::min(kNc, m - jc);
    for (size_t pc = 0; pc < k; pc += kKc) {
      const size_t kc_eff = std::min(kKc, k - pc);
      const size_t pc0 = pc;
      const size_t jc0 = jc;
      PackB(packed.data.data() + packed.panel_offset[idx++], kc_eff, nc_eff,
            [&](size_t p, size_t j) { return b.RowPtr(pc0 + p)[jc0 + j]; });
    }
  }
  return packed;
}

namespace internal {

void BlockedMatMul(const Matrix& a, const Matrix& b, Matrix* out,
                   const Parallelism& par) {
  assert(a.cols() == b.rows());
  assert(out != &a && out != &b);
  BlockedGemm(
      a.rows(), a.cols(), b.cols(), out, par,
      [&](size_t i, size_t p) { return a.RowPtr(i)[p]; },
      [&](size_t p, size_t j) { return b.RowPtr(p)[j]; });
}

void BlockedMatMulTransA(const Matrix& a, const Matrix& b, Matrix* out,
                         const Parallelism& par) {
  assert(a.rows() == b.rows());
  assert(out != &a && out != &b);
  BlockedGemm(
      a.cols(), a.rows(), b.cols(), out, par,
      [&](size_t i, size_t p) { return a.RowPtr(p)[i]; },
      [&](size_t p, size_t j) { return b.RowPtr(p)[j]; });
}

void BlockedMatMulTransB(const Matrix& a, const Matrix& b, Matrix* out,
                         const Parallelism& par) {
  assert(a.cols() == b.cols());
  assert(out != &a && out != &b);
  BlockedGemm(
      a.rows(), a.cols(), b.rows(), out, par,
      [&](size_t i, size_t p) { return a.RowPtr(i)[p]; },
      [&](size_t p, size_t j) { return b.RowPtr(j)[p]; });
}

void BlockedMatMulPrepacked(const Matrix& a, const PackedB& b, Matrix* out,
                            const Parallelism& par) {
  assert(a.cols() == b.k);
  assert(out != &a);
  const size_t num_pc = (b.k + kKc - 1) / kKc;
  BlockedGemmPanels(
      a.rows(), b.k, b.m, out, par,
      [&](size_t i, size_t p) { return a.RowPtr(i)[p]; },
      [&](size_t jc, size_t pc, size_t, size_t) {
        return b.data.data() + b.panel_offset[(jc / kNc) * num_pc + pc / kKc];
      });
}

}  // namespace internal
}  // namespace newsdiff::la
