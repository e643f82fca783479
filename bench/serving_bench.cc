// Closed-loop serving benchmark: the traffic measuring stick every later
// scaling PR is judged by.
//
// Drives a seeded open-loop request mix — tweet ingests, article upserts,
// QueryTrending, PredictInterest — through the newsdiff::Engine facade at
// configured arrival rates, with Zipf/NURand hot-key skew and the standard
// three-phase plan (steady -> flash crowd -> outlet outage), while a
// background thread rebuilds the index mid-run to exercise the concurrent
// generation swap. Reports p50/p99/p999 per op class, achieved-vs-offered
// throughput, and a saturation search (step the arrival rate until the SLO
// breaks; a search that never breaks reports "unsaturated at" its last
// offered rate, not a limit).
//
// Gating policy (same as kernels_bench/index_bench: CI-noise-proof):
//   * determinism — regenerating the trace from the same seed must yield a
//     bit-identical request stream (TraceHash equality);
//   * correctness — zero serving errors across every phase, and the
//     mid-run index swap must have completed;
//   * SLO-ratio — achieved/offered throughput at the base rate must hold
//     the floor (a saturated driver falls behind its own open-loop
//     schedule; runner noise can only make this fail, never pass).
// Each gate is a row of the report (bench/report.h). Wall-clock latency
// percentiles and the saturation throughput are recorded in
// BENCH_serving.json but never self-gated, so a loaded CI runner cannot
// flake the job; bench_diff compares the achieved ratio and each op's p99
// against a baseline report within the tolerances those rows carry.
//
// CI runs `serving_bench --smoke` on the Release legs; the scheduled full
// run produces the checked-in BENCH_serving.json.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bench/report.h"
#include "common/bitwise.h"
#include "common/rng.h"
#include "core/engine.h"
#include "datagen/world.h"
#include "loadgen/driver.h"
#include "loadgen/workload.h"
#include "store/database.h"

using namespace newsdiff;

namespace {

/// bench_diff's tolerances on the rows it has always gated: the achieved
/// ratio may drop by 0.10, and each op's p99 may grow to 1.5x plus 5 ms.
constexpr bench::Tolerance kRatioTolerance{0.0, 0.10};
constexpr bench::Tolerance kP99Tolerance{0.5, 5.0};

struct BenchConfig {
  uint64_t seed = 2021;
  double base_rate = 400.0;
  double phase_seconds = 4.0;
  double ratio_floor = 0.85;
  double saturation_start = 250.0;
  double saturation_growth = 2.0;
  size_t saturation_steps = 7;
  double saturation_window = 1.5;
  size_t threads = 8;
  /// Batched-vs-per-call PredictInterest comparison.
  size_t predict_drafts = 256;
  size_t predict_reps = 8;
  /// Feature rows for the isolated model-path measurement.
  size_t model_rows = 512;
  /// Floor on the end-to-end PredictInterestBatch-vs-PredictInterest
  /// ratio. Retrieval cost (shared by both sides) dominates, so the ratio
  /// sits near 1.0x here, too close to gate above 1.0 without flaking on
  /// a noisy runner — so the floor only catches "batching actively
  /// hurts"; the measured ratio is recorded in BENCH_serving.json.
  double e2e_floor = 0.9;
};

BenchConfig SmokeConfig() {
  BenchConfig config;
  config.base_rate = 200.0;
  config.phase_seconds = 1.5;
  // Shared two-core CI runners legitimately run slower; the smoke floor
  // only has to catch "the serving path stopped keeping pace at all".
  config.ratio_floor = 0.70;
  config.saturation_start = 150.0;
  config.saturation_steps = 3;
  config.saturation_window = 0.6;
  config.threads = 4;
  config.predict_drafts = 96;
  config.predict_reps = 3;
  config.model_rows = 256;
  // The smoke floor only catches "batching stopped helping".
  config.e2e_floor = 0.5;
  return config;
}

/// Measures PredictInterestBatch (all drafts scored in one inference call)
/// against the per-call path (each PredictInterest scores its own rows),
/// then checks correctness across a live model/index swap, and records the
/// `inference.*` rows. Gates: both paths answer every draft and the swap
/// serves without errors, the batched model output is bitwise equal to
/// per-row calls, the engine's telemetry accounts for the work, and the
/// end-to-end ratio holds its floor.
void RunInferenceComparison(Engine& engine, store::Database& db,
                            const std::vector<std::string>& candidates,
                            const BenchConfig& config,
                            bench::Report& report) {
  using Clock = std::chrono::steady_clock;
  const size_t k = 10;  // loadgen::DriverOptions::query_k

  // Keep only drafts the current index can answer (synthetic ledes may
  // match no tweet -> NotFound, which is a miss, not an error). The filter
  // pass doubles as warmup: it faults in the candidate features.
  std::vector<std::string> drafts;
  for (const std::string& d : candidates) {
    if (drafts.size() >= config.predict_drafts) break;
    if (engine.PredictInterest(d, k).ok()) drafts.push_back(d);
  }
  if (!report.AtLeast("inference.drafts", static_cast<double>(drafts.size()),
                      1.0, "drafts")) {
    return;
  }

  const EngineStatsSnapshot before = engine.stats();

  // Per-call path: every prediction runs its own forward pass.
  uint64_t per_call_ok = 0;
  const Clock::time_point t0 = Clock::now();
  for (size_t rep = 0; rep < config.predict_reps; ++rep) {
    for (const std::string& draft : drafts) {
      StatusOr<InterestPrediction> p = engine.PredictInterest(draft, k);
      if (p.ok()) ++per_call_ok;
    }
  }
  const Clock::time_point t1 = Clock::now();

  // Batched path: every rep scores all drafts through one inference call.
  uint64_t batched_ok = 0;
  const Clock::time_point t2 = Clock::now();
  for (size_t rep = 0; rep < config.predict_reps; ++rep) {
    const std::vector<StatusOr<InterestPrediction>> results =
        engine.PredictInterestBatch(drafts, k);
    for (const StatusOr<InterestPrediction>& p : results) {
      if (p.ok()) ++batched_ok;
    }
  }
  const Clock::time_point t3 = Clock::now();

  // Correctness across a live swap (untimed: the rebuild competes for
  // cores, so it must not contaminate the throughput comparison): keep
  // the batched path serving while BuildIndex swaps the index AND the
  // model generation underneath it.
  const uint64_t swaps_before = engine.stats().index_swaps;
  std::atomic<bool> rebuilt_done{false};
  std::thread refresher([&] {
    StatusOr<BuildIndexReport> rebuilt = engine.BuildIndex(db);
    if (!rebuilt.ok()) {
      std::fprintf(stderr, "predict refresher: BuildIndex failed: %s\n",
                   rebuilt.status().ToString().c_str());
    }
    rebuilt_done.store(true, std::memory_order_release);
  });
  uint64_t swap_ok = 0;
  uint64_t swap_total = 0;
  while (!rebuilt_done.load(std::memory_order_acquire)) {
    const std::vector<StatusOr<InterestPrediction>> results =
        engine.PredictInterestBatch(drafts, k);
    for (const StatusOr<InterestPrediction>& p : results) {
      ++swap_total;
      if (p.ok()) ++swap_ok;
    }
  }
  refresher.join();

  // Isolated model path. The same feature rows are served two ways
  // through the engine's inference server: one Predict call per row vs one
  // call for all rows. Both sides run the identical kernels, so the
  // batched output must be bitwise equal row-for-row (gated). The ratio
  // isolates what one GEMM chain over many rows buys over one per row; it
  // is recorded beside the end-to-end ratio, not gated.
  serve::InferenceServer* server = engine.inference_server();
  const size_t dim = serve::InterestModelOptions{}.feature_dim;
  la::Matrix feats(config.model_rows, dim);
  {
    Rng rng(config.seed ^ 0x9e3779b97f4a7c15ull);
    for (double& v : feats.data()) v = rng.Uniform(-1.0, 1.0);
  }
  std::vector<la::Matrix> single_rows(config.model_rows);
  for (size_t i = 0; i < config.model_rows; ++i) {
    single_rows[i].Resize(1, dim);
    for (size_t j = 0; j < dim; ++j) {
      single_rows[i](0, j) = feats(i, j);
    }
  }
  bool model_bitwise = true;
  const Clock::time_point m0 = Clock::now();
  std::vector<la::Matrix> per_row_out(config.model_rows);
  for (size_t i = 0; i < config.model_rows; ++i) {
    serve::InferenceServer::Result r = server->Predict(single_rows[i]);
    if (!r.ok()) {
      model_bitwise = false;
      break;
    }
    per_row_out[i] = std::move(*r);
  }
  const Clock::time_point m1 = Clock::now();
  serve::InferenceServer::Result batched_out = server->Predict(feats);
  const Clock::time_point m2 = Clock::now();
  for (size_t rep = 0; rep < config.predict_reps; ++rep) {
    batched_out = server->Predict(feats);
    if (!batched_out.ok()) break;
  }
  const Clock::time_point m3 = Clock::now();
  if (!batched_out.ok()) model_bitwise = false;
  for (size_t i = 0; model_bitwise && i < config.model_rows; ++i) {
    model_bitwise = BitwiseEqual(
        std::span<const double>(batched_out->RowPtr(i), batched_out->cols()),
        std::span<const double>(per_row_out[i].data()));
  }

  auto rate = [](double rows, Clock::time_point from, Clock::time_point to) {
    const double s = std::chrono::duration<double>(to - from).count();
    return s > 0.0 ? rows / s : 0.0;
  };
  auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  auto d = [](uint64_t v) { return static_cast<double>(v); };
  const double model_rows = d(config.model_rows);
  const double model_per_call = rate(model_rows, m0, m1);
  const double model_batched =
      rate(model_rows * d(config.predict_reps), m2, m3);
  const uint64_t total = config.predict_reps * drafts.size();
  const double per_call = rate(d(total), t0, t1);
  const double batched = rate(d(total), t2, t3);
  const EngineStatsSnapshot after = engine.stats();
  const double passes = d(after.inference_batches - before.inference_batches);

  using bench::Better;
  report.Add("inference.per_call_rows_per_s", per_call, "rows/s",
             Better::kHigher);
  report.Add("inference.batched_rows_per_s", batched, "rows/s",
             Better::kHigher);
  report.AtLeast("inference.speedup", ratio(batched, per_call),
                 config.e2e_floor, "x");
  report.Add("inference.model_per_call_rows_per_s", model_per_call, "rows/s",
             Better::kHigher);
  report.Add("inference.model_batched_rows_per_s", model_batched, "rows/s",
             Better::kHigher);
  report.Add("inference.model_speedup", ratio(model_batched, model_per_call),
             "x", Better::kHigher);
  report.Check("inference.model_bitwise", model_bitwise);
  // Equal error rate: both paths must answer every draft, and the swap
  // must complete without a serving error.
  report.AtMost("inference.serving_errors",
                d(after.serving_errors - before.serving_errors), 0.0,
                "requests");
  report.AtMost("inference.per_call_failures", d(total - per_call_ok), 0.0,
                "requests");
  report.AtMost("inference.batched_failures", d(total - batched_ok), 0.0,
                "requests");
  report.AtMost("inference.swap_failures", d(swap_total - swap_ok), 0.0,
                "requests");
  // The telemetry cross-check mirrors the swap counters: the forward
  // passes the engine reports must account for every prediction made here.
  report.AtLeast("inference.forward_passes", passes, 1.0, "passes");
  report.Add("inference.rows_per_pass",
             ratio(d(after.inference_batched_rows -
                     before.inference_batched_rows),
                   passes),
             "rows", Better::kNone);
  report.AtLeast("inference.model_predictions",
                 d(after.model_predictions - before.model_predictions),
                 d(2 * total), "predictions");
  report.AtLeast("inference.index_swaps", d(after.index_swaps - swaps_before),
                 1.0, "swaps");
  report.Add("inference.generation", d(engine.generation()), "generation",
             Better::kNone);
}

void PrintClassRow(const char* scope, size_t cls,
                   const loadgen::OpClassStats& s) {
  if (s.issued == 0) return;
  std::printf(
      "  %-14s %-16s issued=%6llu ok=%6llu nf=%4llu err=%3llu "
      "p50=%.2fms p99=%.2fms p999=%.2fms max=%.2fms\n",
      scope, loadgen::OpClassName(static_cast<loadgen::OpClass>(cls)),
      static_cast<unsigned long long>(s.issued),
      static_cast<unsigned long long>(s.ok),
      static_cast<unsigned long long>(s.not_found),
      static_cast<unsigned long long>(s.errors),
      s.latency.PercentileMillis(0.50), s.latency.PercentileMillis(0.99),
      s.latency.PercentileMillis(0.999),
      static_cast<double>(s.latency.max_nanos()) / 1.0e6);
}

/// Records the `per_class.<op>.*` rows of one op class. Each p99 carries
/// bench_diff's tolerance.
void AddClassRows(bench::Report& report, size_t cls,
                  const loadgen::OpClassStats& s) {
  using bench::Better;
  const std::string prefix =
      std::string("per_class.") +
      loadgen::OpClassName(static_cast<loadgen::OpClass>(cls)) + ".";
  report.Add(prefix + "issued", static_cast<double>(s.issued), "requests",
             Better::kNone);
  report.Add(prefix + "not_found", static_cast<double>(s.not_found),
             "requests", Better::kNone);
  report.Add(prefix + "p50_ms", s.latency.PercentileMillis(0.50), "ms",
             Better::kLower);
  report.Add(prefix + "p99_ms", s.latency.PercentileMillis(0.99), "ms",
             Better::kLower, kP99Tolerance);
  report.Add(prefix + "p999_ms", s.latency.PercentileMillis(0.999), "ms",
             Better::kLower);
  report.Add(prefix + "max_ms",
             static_cast<double>(s.latency.max_nanos()) / 1.0e6, "ms",
             Better::kLower);
  report.Add(prefix + "mean_service_ms", s.service.MeanNanos() / 1.0e6, "ms",
             Better::kLower);
}

}  // namespace

int main(int argc, char** argv) {
  const BenchConfig full;
  bench::Report report("serving_bench", "BENCH_serving.json", full.seed, argc,
                       argv);
  const BenchConfig config = report.smoke() ? SmokeConfig() : full;
  using bench::Better;
  std::printf("=== Serving load harness (%s mode) ===\n\n",
              report.mode().c_str());

  // World + engine under test. The index lives in memory: this bench
  // measures the serving path, not the filesystem.
  datagen::WorldOptions world_options;
  world_options.seed = config.seed;
  if (report.smoke()) {
    world_options.num_articles = 1500;
    world_options.num_tweets = 4000;
    world_options.num_users = 600;
  }
  datagen::World world = datagen::GenerateWorld(world_options);
  store::Database db;
  world.LoadInto(db);

  Engine engine{EngineOptions{}};
  StatusOr<BuildIndexReport> built = engine.BuildIndex(db);
  if (!built.ok()) {
    std::fprintf(stderr, "FAIL: initial BuildIndex: %s\n",
                 built.status().ToString().c_str());
    return 1;
  }
  std::printf("world: %zu articles, %zu tweets; index: %zu news docs, "
              "%zu tweet docs\n\n",
              world.articles.size(), world.tweets.size(), built->news_docs,
              built->tweet_docs);

  // Gate 1: seed-determinism. The same options must synthesize the same
  // request stream, byte for byte.
  loadgen::WorkloadOptions workload;
  workload.seed = config.seed;
  workload.num_users = world_options.num_users;
  workload.phases =
      loadgen::StandardPhases(config.base_rate, config.phase_seconds);
  const loadgen::WorkloadGenerator generator(workload);
  const std::vector<loadgen::Request> trace = generator.GenerateTrace();
  const std::vector<loadgen::Request> replay = generator.GenerateTrace();
  const uint64_t trace_hash = loadgen::TraceHash(trace);
  char hash_hex[17];
  std::snprintf(hash_hex, sizeof(hash_hex), "%016llx",
                static_cast<unsigned long long>(trace_hash));
  report.Note("trace_hash", hash_hex);
  report.Check("trace_deterministic",
               trace_hash == loadgen::TraceHash(replay) && trace == replay);
  std::printf("trace: %zu requests, hash=%s\n", trace.size(), hash_hex);

  // Measured run with a concurrent index rebuild: the refresher grabs the
  // driver's db mutex (ingests pause while it reads the store) and swaps
  // a new generation in while queries are in flight.
  loadgen::DriverOptions driver_options;
  driver_options.threads = config.threads;
  loadgen::LoadDriver driver(engine, db, driver_options);
  const uint64_t swaps_before = engine.stats().index_swaps;
  std::thread refresher([&] {
    std::lock_guard<std::mutex> lock(driver.db_mutex());
    StatusOr<BuildIndexReport> rebuilt = engine.BuildIndex(db);
    if (!rebuilt.ok()) {
      std::fprintf(stderr, "refresher: BuildIndex failed: %s\n",
                   rebuilt.status().ToString().c_str());
    }
  });
  const loadgen::RunReport run = driver.Run(trace);
  refresher.join();
  const uint64_t index_swaps = engine.stats().index_swaps - swaps_before;

  std::printf("\nrun: offered=%.0f/s achieved=%.0f/s ratio=%.3f "
              "(floor %.2f) errors=%llu index_swaps=%llu\n",
              run.offered_rate, run.achieved_rate, run.AchievedRatio(),
              config.ratio_floor,
              static_cast<unsigned long long>(run.errors),
              static_cast<unsigned long long>(index_swaps));
  for (size_t p = 0; p < run.per_phase.size(); ++p) {
    for (size_t c = 0; c < loadgen::kNumOpClasses; ++c) {
      PrintClassRow(workload.phases[p].name.c_str(), c, run.per_phase[p][c]);
    }
  }

  report.Add("threads", static_cast<double>(config.threads), "threads",
             Better::kNone);
  report.Add("offered_rate", run.offered_rate, "req/s", Better::kNone);
  report.Add("achieved_rate", run.achieved_rate, "req/s", Better::kHigher);
  report.Add("requests", static_cast<double>(run.issued), "requests",
             Better::kNone);
  // Gate 2: correctness — every request served without a non-NotFound
  // failure, and the concurrent generation swap completed.
  report.AtMost("errors", static_cast<double>(run.errors), 0.0, "requests");
  report.AtLeast("index_swaps_under_load", static_cast<double>(index_swaps),
                 1.0, "swaps");
  // Gate 3: SLO-ratio — the driver kept pace with its own schedule.
  report.AtLeast("achieved_ratio", run.AchievedRatio(), config.ratio_floor,
                 "ratio", kRatioTolerance);
  for (size_t c = 0; c < loadgen::kNumOpClasses; ++c) {
    AddClassRows(report, c, run.per_class[c]);
  }
  for (size_t p = 0; p < run.per_phase.size() && p < workload.phases.size();
       ++p) {
    uint64_t issued = 0;
    double worst_p99 = 0.0;
    for (size_t c = 0; c < loadgen::kNumOpClasses; ++c) {
      const loadgen::OpClassStats& s = run.per_phase[p][c];
      issued += s.issued;
      if (s.latency.count() > 0) {
        worst_p99 = std::max(worst_p99, s.latency.PercentileMillis(0.99));
      }
    }
    const std::string prefix = "phases." + workload.phases[p].name + ".";
    report.Add(prefix + "offered_rate", workload.phases[p].arrival_rate,
               "req/s", Better::kNone);
    report.Add(prefix + "requests", static_cast<double>(issued), "requests",
               Better::kNone);
    report.Add(prefix + "worst_p99_ms", worst_p99, "ms", Better::kLower);
  }

  // Saturation search (recorded, not gated): step the offered rate until
  // the latency SLO or the achieved-ratio floor breaks.
  loadgen::SloSpec slo;
  slo.p99_ms = report.smoke() ? 100.0 : 50.0;
  slo.p50_ms = report.smoke() ? 50.0 : 20.0;
  slo.p999_ms = report.smoke() ? 500.0 : 250.0;
  slo.min_achieved_ratio = config.ratio_floor;
  loadgen::WorkloadOptions saturation_base = workload;
  const loadgen::SaturationResult saturation = SaturationSearch(
      driver, saturation_base, slo, config.saturation_start,
      config.saturation_growth, config.saturation_steps,
      config.saturation_window);
  std::printf("\nsaturation search (p99 SLO %.0fms, ratio >= %.2f):\n",
              slo.p99_ms, slo.min_achieved_ratio);
  std::string broke_on;
  for (const loadgen::SaturationStep& s : saturation.steps) {
    std::printf("  offered=%7.0f/s ratio=%.3f p99=%8.2fms %s%s%s\n",
                s.offered_rate, s.achieved_ratio, s.p99_ms,
                s.slo_ok ? "ok" : "broke", s.violation.empty() ? "" : ": ",
                s.violation.c_str());
    const std::string prefix =
        "saturation." + std::to_string(std::lround(s.offered_rate)) + ".";
    report.Add(prefix + "achieved_ratio", s.achieved_ratio, "ratio",
               Better::kHigher);
    report.Add(prefix + "p99_ms", s.p99_ms, "ms", Better::kLower);
    if (!s.slo_ok && broke_on.empty()) broke_on = s.violation;
  }
  // A search that never broke measured no limit: it ran out of steps.
  char verdict[256];
  if (saturation.breaking_rate > 0.0) {
    report.Add("saturation.max_sustained_rate", saturation.max_sustained_rate,
               "req/s", Better::kHigher);
    report.Add("saturation.breaking_rate", saturation.breaking_rate, "req/s",
               Better::kHigher);
    std::snprintf(verdict, sizeof(verdict),
                  "broke at %.0f req/s (%s); max sustained %.0f req/s",
                  saturation.breaking_rate, broke_on.c_str(),
                  saturation.max_sustained_rate);
  } else {
    std::snprintf(verdict, sizeof(verdict), "unsaturated at %.0f req/s",
                  saturation.steps.empty()
                      ? 0.0
                      : saturation.steps.back().offered_rate);
  }
  report.Note("saturation", verdict);
  std::printf("  %s\n", verdict);

  // Gate 4: batched model path — PredictInterestBatch must hold the
  // end-to-end floor against the per-call path at equal error rate, the
  // batched model output must be bitwise equal to per-row calls, a
  // concurrent rebuild must serve without errors, and the engine's
  // telemetry must account for the work.
  std::vector<std::string> candidates;
  for (const loadgen::Request& r : trace) {
    if (r.op == loadgen::OpClass::kPredictInterest) {
      candidates.push_back(r.text);
    }
  }
  RunInferenceComparison(engine, db, candidates, config, report);
  return report.Finish();
}
