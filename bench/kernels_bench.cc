// Kernel regression harness for the blocked GEMM layer (la/kernels.cc).
//
// Reports GFLOP/s for each dense product under three variants — the naive
// reference loops (la::internal::NaiveMatMul*), blocked single-thread,
// blocked + 4 threads — for the CSR·dense product at 1 and 4 threads, and
// wall-clock for an end-to-end cross-validation run at both parallelism
// grains. Alongside the numbers it enforces the kernel layer's contracts
// and exits nonzero on any violation:
//   * blocked results are EXACTLY equal run-to-run and across thread
//     counts (the determinism contract of la/kernels.h);
//   * blocked agrees with naive within 1e-9 relative error per element;
//   * both CSR products are bitwise equal at 1 and 4 threads and to the
//     serial scatter loop (TransposeMultiplyDense over the transpose);
//   * fold-grain CV reproduces serial CV bitwise.
// CI runs `kernels_bench --smoke` on the Release legs; full mode produces
// the checked-in BENCH_kernels.json (see --out).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/harness.h"
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

bool BitwiseEqual(const la::Matrix& a, const la::Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         a.data() == b.data();
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

struct KernelRow {
  std::string kernel;
  std::string variant;
  double seconds = 0.0;
  double gflops = 0.0;
  /// Speedup over the `speedup_base` variant of the same kernel: "naive"
  /// for the dense products, "1t" for CSR, which has no naive twin.
  std::string speedup_base;
  double speedup = 0.0;
};

struct CvRow {
  std::string variant;
  double seconds = 0.0;
  bool bitwise_equal_serial = true;
};

struct InferenceRow {
  std::string shape;    // "n x k x m"
  std::string variant;  // blocked / prepacked
  double seconds = 0.0;
  double gflops = 0.0;
  double speedup_vs_blocked = 0.0;
};

struct Report {
  std::string mode;
  std::vector<KernelRow> kernels;
  std::vector<CvRow> cv;
  std::vector<InferenceRow> inference;
  double gemm_blocked_speedup_1t = 0.0;
  double max_rel_error_vs_naive = 0.0;
  double fold_vs_intra_speedup = 0.0;
  bool gates_ok = true;
};

bool WriteJson(const Report& r, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"mode\": \"%s\",\n", r.mode.c_str());
  std::fprintf(f, "  \"hardware_threads\": %zu,\n", HardwareThreads());
  std::fprintf(f, "  \"rel_tolerance\": %.1e,\n", kRelTolerance);
  std::fprintf(f, "  \"max_rel_error_vs_naive\": %.3e,\n",
               r.max_rel_error_vs_naive);
  std::fprintf(f, "  \"gemm_blocked_speedup_1t\": %.2f,\n",
               r.gemm_blocked_speedup_1t);
  std::fprintf(f, "  \"fold_vs_intra_speedup\": %.2f,\n",
               r.fold_vs_intra_speedup);
  std::fprintf(f, "  \"gates_ok\": %s,\n", r.gates_ok ? "true" : "false");
  std::fprintf(f, "  \"inference\": [\n");
  for (size_t i = 0; i < r.inference.size(); ++i) {
    const InferenceRow& k = r.inference[i];
    std::fprintf(f,
                 "    {\"shape\": \"%s\", \"variant\": \"%s\", "
                 "\"seconds\": %.6f, \"gflops\": %.3f, "
                 "\"speedup_vs_blocked\": %.2f}%s\n",
                 k.shape.c_str(), k.variant.c_str(), k.seconds, k.gflops,
                 k.speedup_vs_blocked, i + 1 < r.inference.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"kernels\": [\n");
  for (size_t i = 0; i < r.kernels.size(); ++i) {
    const KernelRow& k = r.kernels[i];
    std::fprintf(f,
                 "    {\"kernel\": \"%s\", \"variant\": \"%s\", "
                 "\"seconds\": %.6f, \"gflops\": %.3f, "
                 "\"speedup_vs_%s\": %.2f}%s\n",
                 k.kernel.c_str(), k.variant.c_str(), k.seconds, k.gflops,
                 k.speedup_base.c_str(), k.speedup,
                 i + 1 < r.kernels.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"cross_validation\": [\n");
  for (size_t i = 0; i < r.cv.size(); ++i) {
    const CvRow& c = r.cv[i];
    std::fprintf(f,
                 "    {\"variant\": \"%s\", \"seconds\": %.4f, "
                 "\"bitwise_equal_serial\": %s}%s\n",
                 c.variant.c_str(), c.seconds,
                 c.bitwise_equal_serial ? "true" : "false",
                 i + 1 < r.cv.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_kernels.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    }
  }

  Report report;
  report.mode = smoke ? "smoke" : "full";
  std::printf("=== Kernel regression harness (%s mode) ===\n",
              report.mode.c_str());
  std::printf("hardware_threads=%zu tolerance=%.0e\n\n", HardwareThreads(),
              kRelTolerance);

  const size_t dim = smoke ? 192 : 512;
  const size_t reps = smoke ? 2 : 3;
  bool gates_ok = true;

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
    bool repeat_ok = BitwiseEqual(repeat, blocked_out);
    bool threads_ok = true;
    for (size_t threads : {2ul, 4ul}) {
      la::Matrix t_out;
      dc.blocked(a, b, &t_out, Threads(threads));
      threads_ok = threads_ok && BitwiseEqual(t_out, blocked_out);
    }
    // Gate: blocked within tolerance of naive.
    double rel = MaxRelError(blocked_out, naive_out);
    report.max_rel_error_vs_naive =
        std::max(report.max_rel_error_vs_naive, rel);
    bool rel_ok = rel <= kRelTolerance;
    gates_ok = gates_ok && repeat_ok && threads_ok && rel_ok;

    auto add_row = [&](const char* variant, double seconds) {
      KernelRow row;
      row.kernel = dc.name;
      row.variant = variant;
      row.seconds = seconds;
      row.gflops = seconds > 0.0 ? dense_flops / seconds / 1e9 : 0.0;
      row.speedup_base = "naive";
      row.speedup = seconds > 0.0 ? naive_s / seconds : 0.0;
      report.kernels.push_back(row);
      std::printf(
          "kernel=%s variant=%s seconds=%.4f gflops=%.2f speedup=%.2f\n",
          row.kernel.c_str(), row.variant.c_str(), row.seconds, row.gflops,
          row.speedup);
    };
    add_row("naive", naive_s);
    add_row("blocked", blocked_s);
    add_row("blocked_4t", blocked4_s);
    std::printf(
        "kernel=%s repeat_exact=%s thread_invariant=%s max_rel=%.2e (%s)\n",
        dc.name, repeat_ok ? "ok" : "FAIL", threads_ok ? "ok" : "FAIL", rel,
        rel_ok ? "ok" : "FAIL");
    if (std::strcmp(dc.name, "matmul") == 0) {
      report.gemm_blocked_speedup_1t =
          blocked_s > 0.0 ? naive_s / blocked_s : 0.0;
    }
  }

  // --- CSR·dense: one loop per product. Gate: 4 threads ≡ 1 thread, and
  // both ≡ the serial scatter loop over the transposed matrix, which sums
  // each output element's terms in the same order. ---
  {
    const size_t rows = smoke ? 1500 : 6000;
    const size_t cols = smoke ? 500 : 2000;
    const size_t width = 64;
    la::CsrMatrix csr = RandomCsr(rows, cols, 0.02, 3);
    la::Matrix d = RandomMatrix(cols, width, 4);
    la::Matrix dt = RandomMatrix(width, cols, 5);
    const double csr_flops = 2.0 * static_cast<double>(csr.nnz()) *
                             static_cast<double>(width);

    la::Matrix out_1t, out_4t;
    double s_1t = BestSeconds(reps, [&] {
      out_1t = csr.MultiplyDense(d, Threads(1));
    });
    double s_4t = BestSeconds(reps, [&] {
      out_4t = csr.MultiplyDense(d, Threads(4));
    });
    const la::CsrMatrix csr_t = csr.Transposed();
    const la::Matrix scatter = csr_t.TransposeMultiplyDense(d);
    bool csr_exact =
        BitwiseEqual(out_1t, scatter) && BitwiseEqual(out_4t, scatter);
    const la::Matrix tr_scatter =
        csr_t.TransposeMultiplyDense(dt.Transposed());
    bool csr_tr_exact =
        BitwiseEqual(csr.MultiplyDenseTransposed(dt, Threads(1)),
                     tr_scatter) &&
        BitwiseEqual(csr.MultiplyDenseTransposed(dt, Threads(4)), tr_scatter);
    gates_ok = gates_ok && csr_exact && csr_tr_exact;

    auto add_row = [&](const char* variant, double seconds) {
      KernelRow row;
      row.kernel = "csr_dense";
      row.variant = variant;
      row.seconds = seconds;
      row.gflops = seconds > 0.0 ? csr_flops / seconds / 1e9 : 0.0;
      row.speedup_base = "1t";
      row.speedup = seconds > 0.0 ? s_1t / seconds : 0.0;
      report.kernels.push_back(row);
      std::printf(
          "kernel=%s variant=%s seconds=%.4f gflops=%.2f speedup=%.2f\n",
          row.kernel.c_str(), row.variant.c_str(), row.seconds, row.gflops,
          row.speedup);
    };
    add_row("1t", s_1t);
    add_row("4t", s_4t);
    std::printf("kernel=csr_dense bitwise_vs_scatter=%s transposed=%s\n",
                csr_exact ? "ok" : "FAIL", csr_tr_exact ? "ok" : "FAIL");
  }

  // --- Inference shapes: per-call blocked vs prepacked.
  // Gates: the prepacked path is bitwise equal to the per-call blocked
  // path and bitwise invariant to batch composition (row i of a
  // batch-of-N equals the same row as a batch-of-1, the contract
  // PredictInterestBatch depends on).
  {
    const size_t batch = 256, depth = 256, width = 64;
    const size_t inf_reps = smoke ? 200 : 1000;
    char shape_buf[64];
    std::snprintf(shape_buf, sizeof(shape_buf), "%zux%zux%zu", batch, depth,
                  width);
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

    const bool prepacked_bitwise = BitwiseEqual(prepacked_out, blocked_out);

    // Batch-composition invariance: every row of the batch product must be
    // bitwise equal to the one-row product.
    bool batch_invariant = true;
    la::Matrix one(1, depth), single;
    for (size_t r = 0; r < batch && batch_invariant; r += 17) {
      for (size_t c = 0; c < depth; ++c) one.RowPtr(0)[c] = ia.RowPtr(r)[c];
      la::internal::BlockedMatMulPrepacked(one, packed, &single, par);
      for (size_t c = 0; c < width; ++c) {
        if (single.RowPtr(0)[c] != prepacked_out.RowPtr(r)[c]) {
          batch_invariant = false;
        }
      }
    }
    gates_ok = gates_ok && prepacked_bitwise && batch_invariant;

    auto add_row = [&](const char* variant, double seconds) {
      InferenceRow row;
      row.shape = shape_buf;
      row.variant = variant;
      row.seconds = seconds;
      row.gflops = seconds > 0.0 ? inf_flops / seconds / 1e9 : 0.0;
      row.speedup_vs_blocked = seconds > 0.0 ? blocked_s / seconds : 0.0;
      report.inference.push_back(row);
      std::printf(
          "inference shape=%s variant=%s seconds=%.6f gflops=%.2f "
          "speedup=%.2f\n",
          row.shape.c_str(), row.variant.c_str(), row.seconds, row.gflops,
          row.speedup_vs_blocked);
    };
    add_row("blocked", blocked_s);
    add_row("prepacked", prepacked_s);
    std::printf("inference prepacked_bitwise=%s batch_invariant=%s\n",
                prepacked_bitwise ? "ok" : "FAIL",
                batch_invariant ? "ok" : "FAIL");
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

    auto run_cv = [&](const char* name, size_t intra_threads,
                      size_t fold_threads,
                      const std::vector<double>* baseline) {
      core::PredictorOptions opts = base;
      opts.parallelism.threads = intra_threads;
      opts.fold_parallelism.threads = fold_threads;
      CvRow row;
      row.variant = name;
      std::vector<double> accs;
      row.seconds = bench::TimedSeconds([&] {
        auto cv =
            core::CrossValidate(x, y, core::NetworkKind::kMlp1, opts, 4);
        if (cv.ok()) accs = cv->fold_accuracies;
      });
      row.bitwise_equal_serial =
          baseline == nullptr ? !accs.empty() : accs == *baseline;
      report.cv.push_back(row);
      std::printf("cv variant=%s seconds=%.3f bitwise=%s\n", name,
                  row.seconds, row.bitwise_equal_serial ? "ok" : "FAIL");
      return accs;
    };
    std::vector<double> serial =
        run_cv("serial", 1, 1, nullptr);
    run_cv("intra_op_4t", 4, 1, &serial);
    run_cv("fold_tasks_4t", 1, 4, &serial);
    for (const CvRow& c : report.cv) {
      gates_ok = gates_ok && c.bitwise_equal_serial;
    }
    report.fold_vs_intra_speedup =
        report.cv[2].seconds > 0.0
            ? report.cv[1].seconds / report.cv[2].seconds
            : 0.0;
  }

  report.gates_ok = gates_ok;
  std::printf("\ngemm_blocked_speedup_1t=%.2f fold_vs_intra=%.2f gates=%s\n",
              report.gemm_blocked_speedup_1t, report.fold_vs_intra_speedup,
              gates_ok ? "ok" : "FAIL");
  if (!WriteJson(report, out_path)) {
    std::fprintf(stderr, "FAIL: could not write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", out_path.c_str());
  if (!gates_ok) {
    std::fprintf(stderr,
                 "\nFAIL: a kernel determinism or tolerance gate tripped\n");
    return 1;
  }
  return 0;
}
