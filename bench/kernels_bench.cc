// Kernel regression harness for the blocked GEMM layer (la/kernels.cc).
//
// Reports GFLOP/s for each dense product under three variants — the naive
// reference loops (la::internal::NaiveMatMul*), blocked single-thread,
// blocked + 4 threads — for both CSR·dense products NMF runs, at its width
// 24 and at 64, at 1 and 4 threads, and wall-clock for an end-to-end
// cross-validation run at both parallelism grains. Alongside the numbers
// it enforces the kernel layer's contracts and exits nonzero on any
// violation:
//   * blocked results are EXACTLY equal run-to-run and across thread
//     counts (the determinism contract of la/kernels.h);
//   * blocked agrees with naive within 1e-9 relative error per element;
//   * both CSR products are bitwise equal at 1 and 4 threads and to the
//     serial scatter loop (TransposeMultiplyDense over the transpose);
//   * fold-grain CV reproduces serial CV bitwise.
// Each gate is a row of the report (bench/report.h); "bitwise" means equal
// bit patterns (common/bitwise.h), so +0.0 against -0.0 fails. It also
// notes `blocked_digest`, a CRC-32 of the blocked products' bits over a
// shape sweep (see BlockedDigest); it gates nothing.
// CI runs `kernels_bench --smoke` on the Release legs; full mode produces
// the checked-in BENCH_kernels.json (see --out).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bench/harness.h"
#include "bench/report.h"
#include "common/bitwise.h"
#include "common/crc32.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "core/cross_validation.h"
#include "la/kernels.h"
#include "la/matrix.h"
#include "la/sparse.h"

using namespace newsdiff;

namespace {

constexpr double kRelTolerance = 1e-9;

la::Matrix RandomMatrix(size_t rows, size_t cols, uint64_t seed) {
  la::Matrix m(rows, cols);
  Rng rng(seed);
  for (double& v : m.data()) v = rng.Uniform(-1.0, 1.0);
  return m;
}

la::CsrMatrix RandomCsr(size_t rows, size_t cols, double density,
                        uint64_t seed) {
  Rng rng(seed);
  std::vector<la::Triplet> t;
  const auto nnz = static_cast<size_t>(
      density * static_cast<double>(rows) * static_cast<double>(cols));
  t.reserve(nnz);
  for (size_t i = 0; i < nnz; ++i) {
    t.push_back({static_cast<uint32_t>(rng.NextBelow(rows)),
                 static_cast<uint32_t>(rng.NextBelow(cols)),
                 rng.NextDouble() + 0.1});
  }
  return la::CsrMatrix::FromTriplets(rows, cols, t);
}

double MaxRelError(const la::Matrix& got, const la::Matrix& want) {
  double worst = 0.0;
  for (size_t i = 0; i < want.size(); ++i) {
    double denom = std::max(std::abs(want.data()[i]), 1e-12);
    worst = std::max(worst, std::abs(got.data()[i] - want.data()[i]) / denom);
  }
  return worst;
}

Parallelism Threads(size_t threads) {
  Parallelism par;
  par.threads = threads;
  return par;
}

/// Best-of-`reps` wall time for fn() (the product is recomputed each rep).
double BestSeconds(size_t reps, const std::function<void()>& fn) {
  double best = 0.0;
  for (size_t r = 0; r < reps; ++r) {
    double s = bench::TimedSeconds(fn);
    if (r == 0 || s < best) best = s;
  }
  return best;
}

/// CRC-32 of the bytes of MatMul, MatMulTransA, MatMulTransB and the
/// prepacked product over a seeded sweep of (n, k, m): each dimension
/// sits below, on and just past the micro-tile heights (4 and 8 rows), the
/// tile width (8), the row block (64), the panel depth (256) and the panel
/// width (128). Two builds of the same kernels on one host print the same
/// digest, so a kernel rewrite that claims to keep every bit can be
/// checked against the commit before it. The value depends on compile
/// flags (FMA contraction under -march=native), so nothing gates on it.
uint32_t BlockedDigest() {
  const size_t ns[] = {1, 3, 4, 5, 7, 8, 9, 16, 17, 63, 64, 65, 130};
  const size_t ks[] = {1, 5, 8, 255, 256, 257, 513};
  const size_t ms[] = {1, 7, 8, 9, 127, 128, 129, 257};
  uint32_t crc = 0;
  auto feed = [&crc](const la::Matrix& m) {
    crc = Crc32(std::string_view(reinterpret_cast<const char*>(m.data().data()),
                                 m.size() * sizeof(double)),
                crc);
  };
  uint64_t seed = 1000;
  la::Matrix out;
  for (size_t n : ns) {
    for (size_t k : ks) {
      for (size_t m : ms) {
        const la::Matrix a = RandomMatrix(n, k, seed++);
        const la::Matrix b = RandomMatrix(k, m, seed++);
        la::MatMulInto(a, b, &out);
        feed(out);
        la::MatMulTransAInto(RandomMatrix(k, n, seed++), b, &out);
        feed(out);
        la::MatMulTransBInto(a, RandomMatrix(m, k, seed++), &out);
        feed(out);
        la::internal::BlockedMatMulPrepacked(a, la::PackMatrixB(b), &out,
                                             Threads(1));
        feed(out);
      }
    }
  }
  return crc;
}

/// Records `<kernel>.<variant>.gflops` and, past the base variant, the
/// speedup over it.
void AddKernelRow(bench::Report& report, const std::string& kernel,
                  const std::string& variant, double flops, double seconds,
                  const std::string& base, double base_seconds) {
  report.Add(kernel + "." + variant + ".gflops",
             seconds > 0.0 ? flops / seconds / 1e9 : 0.0, "GFLOP/s",
             bench::Better::kHigher);
  if (variant != base) {
    report.Add(kernel + "." + variant + ".speedup_vs_" + base,
               seconds > 0.0 ? base_seconds / seconds : 0.0, "x",
               bench::Better::kHigher);
  }
}

}  // namespace

int main(int argc, char** argv) {
  // The operands come from fixed seeds; the report records the first.
  bench::Report report("kernels_bench", "BENCH_kernels.json", /*seed=*/1,
                       argc, argv);
  const bool smoke = report.smoke();
  std::printf("=== Kernel regression harness (%s mode) ===\n",
              report.mode().c_str());
  std::printf("hardware_threads=%zu tolerance=%.0e\n\n", HardwareThreads(),
              kRelTolerance);

  const std::string digest = Crc32Hex(BlockedDigest());
  report.Note("blocked_digest", digest);
  std::printf("blocked_digest=%s\n\n", digest.c_str());

  const size_t dim = smoke ? 192 : 512;
  const size_t reps = smoke ? 2 : 3;

  // --- Dense kernels: naive vs blocked vs blocked+4t, plus the gates. ---
  using Product = void (*)(const la::Matrix&, const la::Matrix&, la::Matrix*,
                           const Parallelism&);
  struct DenseCase {
    const char* name;
    Product naive;
    Product blocked;
  };
  const DenseCase dense_cases[] = {
      {"matmul", la::internal::NaiveMatMul, la::MatMulInto},
      {"matmul_ta", la::internal::NaiveMatMulTransA, la::MatMulTransAInto},
      {"matmul_tb", la::internal::NaiveMatMulTransB, la::MatMulTransBInto},
  };
  la::Matrix a = RandomMatrix(dim, dim, 1);
  la::Matrix b = RandomMatrix(dim, dim, 2);
  const double dense_flops = 2.0 * static_cast<double>(dim) *
                             static_cast<double>(dim) *
                             static_cast<double>(dim);

  for (const DenseCase& dc : dense_cases) {
    const std::string name = dc.name;
    la::Matrix naive_out, blocked_out, scratch;
    double naive_s = BestSeconds(reps, [&] {
      dc.naive(a, b, &naive_out, Threads(1));
    });
    double blocked_s = BestSeconds(reps, [&] {
      dc.blocked(a, b, &blocked_out, Threads(1));
    });
    double blocked4_s = BestSeconds(reps, [&] {
      dc.blocked(a, b, &scratch, Threads(4));
    });

    // Gate: exact repeat and exact thread/shard invariance.
    la::Matrix repeat;
    dc.blocked(a, b, &repeat, Threads(1));
    report.Check(name + ".repeat_bitwise", BitwiseEqual(repeat, blocked_out));
    bool threads_ok = true;
    for (size_t threads : {2ul, 4ul}) {
      la::Matrix t_out;
      dc.blocked(a, b, &t_out, Threads(threads));
      threads_ok = threads_ok && BitwiseEqual(t_out, blocked_out);
    }
    report.Check(name + ".thread_bitwise", threads_ok);
    // Gate: blocked within tolerance of naive.
    report.AtMost(name + ".max_rel_error_vs_naive",
                  MaxRelError(blocked_out, naive_out), kRelTolerance, "rel");

    AddKernelRow(report, name, "naive", dense_flops, naive_s, "naive", naive_s);
    AddKernelRow(report, name, "blocked", dense_flops, blocked_s, "naive",
                 naive_s);
    AddKernelRow(report, name, "blocked_4t", dense_flops, blocked4_s, "naive",
                 naive_s);
  }

  // --- CSR·dense: both products NMF runs, MultiplyDense (its W^T A) and
  // MultiplyDenseTransposed (its A H^T), at NMF's width 24 (one 32-column
  // block of the AVX-512 row kernel cut to three accumulators) and at 64
  // (two full blocks).
  // Gate: 1 and 4 threads ≡ the serial scatter loop over the transposed
  // matrix, which sums each output element's terms in the same order. The
  // 4-thread rows are reported as measured and gate nothing. ---
  {
    const size_t rows = smoke ? 1500 : 6000;
    const size_t cols = smoke ? 500 : 2000;
    const size_t csr_reps = smoke ? 5 : 15;
    la::CsrMatrix csr = RandomCsr(rows, cols, 0.02, 3);
    const la::CsrMatrix csr_t = csr.Transposed();
    for (size_t width : {24ul, 64ul}) {
      const la::Matrix d = RandomMatrix(cols, width, 4);
      const la::Matrix dt = RandomMatrix(width, cols, 5);
      const double csr_flops = 2.0 * static_cast<double>(csr.nnz()) *
                               static_cast<double>(width);
      for (bool transposed : {false, true}) {
        const std::string name = std::string(transposed ? "csr_dense_t"
                                                        : "csr_dense") +
                                 "_w" + std::to_string(width);
        auto product = [&](size_t threads) {
          return transposed ? csr.MultiplyDenseTransposed(dt, Threads(threads))
                            : csr.MultiplyDense(d, Threads(threads));
        };
        la::Matrix out_1t, out_4t;
        double s_1t = BestSeconds(csr_reps, [&] { out_1t = product(1); });
        double s_4t = BestSeconds(csr_reps, [&] { out_4t = product(4); });
        const la::Matrix scatter =
            transposed ? csr_t.TransposeMultiplyDense(dt.Transposed())
                       : csr_t.TransposeMultiplyDense(d);
        report.Check(name + ".bitwise_vs_scatter",
                     BitwiseEqual(out_1t, scatter) &&
                         BitwiseEqual(out_4t, scatter));
        AddKernelRow(report, name, "1t", csr_flops, s_1t, "1t", s_1t);
        AddKernelRow(report, name, "4t", csr_flops, s_4t, "1t", s_1t);
      }
    }
  }

  // --- The inference shape 256x256x64: per-call blocked vs prepacked.
  // Gates: the prepacked path is bitwise equal to the per-call blocked
  // path and bitwise invariant to batch composition (row i of a
  // batch-of-N equals the same row as a batch-of-1, the contract
  // PredictInterestBatch depends on).
  {
    const size_t batch = 256, depth = 256, width = 64;
    const size_t inf_reps = smoke ? 200 : 1000;
    la::Matrix ia = RandomMatrix(batch, depth, 21);
    la::Matrix ib = RandomMatrix(depth, width, 22);
    const Parallelism par = Threads(1);
    const double inf_flops = 2.0 * static_cast<double>(batch) *
                             static_cast<double>(depth) *
                             static_cast<double>(width);

    la::PackedB packed = la::PackMatrixB(ib);

    la::Matrix blocked_out, prepacked_out;
    double blocked_s = BestSeconds(reps, [&] {
      for (size_t r = 0; r < inf_reps; ++r) {
        la::MatMulInto(ia, ib, &blocked_out, par);
      }
    }) / static_cast<double>(inf_reps);
    double prepacked_s = BestSeconds(reps, [&] {
      for (size_t r = 0; r < inf_reps; ++r) {
        la::internal::BlockedMatMulPrepacked(ia, packed, &prepacked_out, par);
      }
    }) / static_cast<double>(inf_reps);

    report.Check("inference.prepacked_bitwise",
                 BitwiseEqual(prepacked_out, blocked_out));

    // Batch-composition invariance: every row of the batch product must be
    // bitwise equal to the one-row product.
    bool batch_invariant = true;
    la::Matrix one(1, depth), single;
    for (size_t r = 0; r < batch && batch_invariant; r += 17) {
      for (size_t c = 0; c < depth; ++c) one.RowPtr(0)[c] = ia.RowPtr(r)[c];
      la::internal::BlockedMatMulPrepacked(one, packed, &single, par);
      batch_invariant = BitwiseEqual(
          std::span<const double>(single.RowPtr(0), width),
          std::span<const double>(prepacked_out.RowPtr(r), width));
    }
    report.Check("inference.batch_invariant", batch_invariant);

    AddKernelRow(report, "inference", "blocked", inf_flops, blocked_s,
                 "blocked", blocked_s);
    AddKernelRow(report, "inference", "prepacked", inf_flops, prepacked_s,
                 "blocked", blocked_s);
  }

  // --- End-to-end cross-validation at both grains. Shards pinned at 16 in
  // every variant so the bitwise gate compares identical configurations. ---
  {
    Rng rng(11);
    const size_t n = smoke ? 150 : 600;
    const size_t width = 32;
    la::Matrix x(n, width);
    std::vector<int> y(n);
    for (size_t i = 0; i < n; ++i) {
      size_t c = i % 3;
      double* row = x.RowPtr(i);
      for (size_t dcol = 0; dcol < width; ++dcol) {
        row[dcol] = rng.Gaussian((dcol % 3 == c) ? 2.0 : 0.0, 0.8);
      }
      y[i] = static_cast<int>(c);
    }
    core::PredictorOptions base;
    base.max_epochs = smoke ? 6 : 20;
    base.batch_size = 32;
    base.early_stopping.enabled = false;
    base.max_restarts = 0;
    base.parallelism.shards = 16;
    base.fold_parallelism.shards = 16;

    // Gate: serial CV produced its folds (`serial` is null), and both
    // 4-thread grains reproduce them bitwise. Returns the fold accuracies
    // and the wall time.
    auto run_cv = [&](const std::string& name, size_t intra_threads,
                      size_t fold_threads, const std::vector<double>* serial) {
      core::PredictorOptions opts = base;
      opts.parallelism.threads = intra_threads;
      opts.fold_parallelism.threads = fold_threads;
      std::vector<double> accs;
      const double seconds = bench::TimedSeconds([&] {
        auto cv =
            core::CrossValidate(x, y, core::NetworkKind::kMlp1, opts, 4);
        if (cv.ok()) accs = cv->fold_accuracies;
      });
      report.Add("cv." + name + ".seconds", seconds, "s",
                 bench::Better::kLower);
      if (serial == nullptr) {
        report.AtLeast("cv.serial.folds", static_cast<double>(accs.size()),
                       1.0, "folds");
      } else {
        report.Check("cv." + name + ".bitwise_vs_serial",
                     BitwiseEqual(accs, *serial));
      }
      return std::make_pair(accs, seconds);
    };
    const std::vector<double> serial = run_cv("serial", 1, 1, nullptr).first;
    const double intra_s = run_cv("intra_op_4t", 4, 1, &serial).second;
    const double fold_s = run_cv("fold_tasks_4t", 1, 4, &serial).second;
    report.Add("cv.fold_vs_intra_speedup",
               fold_s > 0.0 ? intra_s / fold_s : 0.0, "x",
               bench::Better::kHigher);
  }
  return report.Finish();
}
