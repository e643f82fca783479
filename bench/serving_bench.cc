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
// breaks).
//
// Gating policy (same as kernels_bench/index_bench: CI-noise-proof):
//   * determinism — regenerating the trace from the same seed must yield a
//     bit-identical request stream (TraceHash equality);
//   * correctness — zero serving errors across every phase, and the
//     mid-run index swap must have completed;
//   * SLO-ratio — achieved/offered throughput at the base rate must hold
//     the floor (a saturated driver falls behind its own open-loop
//     schedule; runner noise can only make this fail, never pass).
// Wall-clock latency percentiles and the saturation throughput are
// *recorded* in BENCH_serving.json but never gated, so a loaded CI runner
// cannot flake the job.
//
// CI runs `serving_bench --smoke` on the Release legs; the scheduled full
// run produces the checked-in BENCH_serving.json.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/engine.h"
#include "datagen/world.h"
#include "loadgen/driver.h"
#include "loadgen/workload.h"
#include "store/database.h"

using namespace newsdiff;

namespace {

struct BenchConfig {
  bool smoke = false;
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
  config.smoke = true;
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

/// Result of the batched-vs-per-call PredictInterest comparison.
struct InferenceSection {
  size_t drafts = 0;
  double per_call_rows_per_s = 0.0;
  double batched_rows_per_s = 0.0;
  double speedup = 0.0;
  /// Isolated model path: identical feature rows through the inference
  /// server, one Predict call per row vs one call for all rows. Recorded,
  /// not gated.
  double model_per_call_rows_per_s = 0.0;
  double model_batched_rows_per_s = 0.0;
  double model_speedup = 0.0;
  bool model_bitwise = false;  ///< Batched row i == per-call row i exactly.
  uint64_t batches = 0;          ///< Forward passes this section ran.
  double mean_batch_fill = 0.0;  ///< Rows per forward pass.
  uint64_t serving_errors = 0;
  uint64_t model_predictions = 0;
  uint64_t index_swaps = 0;  ///< Rebuilds completed mid-batched-measurement.
  uint64_t model_version = 0;
  bool ok = false;
};

/// Measures PredictInterestBatch (all drafts scored in one inference call)
/// against the per-call path (each PredictInterest scores its own rows).
/// Correctness is then checked across a live model/index swap — zero
/// serving errors required.
InferenceSection RunInferenceComparison(
    Engine& engine, store::Database& db,
    const std::vector<std::string>& candidates, const BenchConfig& config) {
  using Clock = std::chrono::steady_clock;
  InferenceSection section;
  const size_t k = 10;  // loadgen::DriverOptions::query_k

  // Keep only drafts the current index can answer (synthetic ledes may
  // match no tweet -> NotFound, which is a miss, not an error). The filter
  // pass doubles as warmup: it packs the weights into the cross-call
  // cache and faults in the candidate features.
  std::vector<std::string> drafts;
  for (const std::string& d : candidates) {
    if (drafts.size() >= config.predict_drafts) break;
    if (engine.PredictInterest(d, k).ok()) drafts.push_back(d);
  }
  section.drafts = drafts.size();
  if (drafts.empty()) return section;

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
  section.model_bitwise = true;
  const Clock::time_point m0 = Clock::now();
  std::vector<la::Matrix> per_row_out(config.model_rows);
  for (size_t i = 0; i < config.model_rows; ++i) {
    serve::InferenceServer::Result r = server->Predict(single_rows[i]);
    if (!r.ok()) {
      section.model_bitwise = false;
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
  if (!batched_out.ok()) {
    section.model_bitwise = false;
  } else if (section.model_bitwise) {
    for (size_t i = 0; i < config.model_rows; ++i) {
      for (size_t c = 0; c < batched_out->cols(); ++c) {
        if ((*batched_out)(i, c) != per_row_out[i](0, c)) {
          section.model_bitwise = false;
        }
      }
    }
  }
  const double model_per_call_s =
      std::chrono::duration<double>(m1 - m0).count();
  const double model_batched_s =
      std::chrono::duration<double>(m3 - m2).count();
  const double model_rows = static_cast<double>(config.model_rows);
  section.model_per_call_rows_per_s =
      model_per_call_s > 0.0 ? model_rows / model_per_call_s : 0.0;
  section.model_batched_rows_per_s =
      model_batched_s > 0.0
          ? model_rows * static_cast<double>(config.predict_reps) /
                model_batched_s
          : 0.0;
  section.model_speedup = section.model_per_call_rows_per_s > 0.0
                              ? section.model_batched_rows_per_s /
                                    section.model_per_call_rows_per_s
                              : 0.0;

  const EngineStatsSnapshot after = engine.stats();
  const double per_call_s = std::chrono::duration<double>(t1 - t0).count();
  const double batched_s = std::chrono::duration<double>(t3 - t2).count();
  const uint64_t total = config.predict_reps * drafts.size();
  const double totald = static_cast<double>(total);
  section.per_call_rows_per_s = per_call_s > 0.0 ? totald / per_call_s : 0.0;
  section.batched_rows_per_s = batched_s > 0.0 ? totald / batched_s : 0.0;
  section.speedup = section.per_call_rows_per_s > 0.0
                        ? section.batched_rows_per_s /
                              section.per_call_rows_per_s
                        : 0.0;
  section.batches = after.inference_batches - before.inference_batches;
  const uint64_t batched_rows =
      after.inference_batched_rows - before.inference_batched_rows;
  section.mean_batch_fill =
      section.batches > 0
          ? static_cast<double>(batched_rows) /
                static_cast<double>(section.batches)
          : 0.0;
  section.serving_errors = after.serving_errors - before.serving_errors;
  section.model_predictions =
      after.model_predictions - before.model_predictions;
  section.index_swaps = after.index_swaps - swaps_before;
  section.model_version = engine.model_version();

  // Equal error rate: both paths must answer every draft, and the swap
  // must complete without a serving error. The telemetry cross-check
  // mirrors the swap counters: the forward passes the engine reports must
  // account for every prediction made here.
  const bool clean = section.serving_errors == 0 && per_call_ok == total &&
                     batched_ok == total && swap_ok == swap_total;
  const bool telemetry_ok = section.batches > 0 &&
                            section.model_predictions >= 2 * total &&
                            section.index_swaps >= 1;
  section.ok = clean && telemetry_ok && section.model_bitwise &&
               section.speedup >= config.e2e_floor;
  return section;
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

void AppendClassJson(std::FILE* f, const loadgen::OpClassStats& s,
                     size_t cls, bool last) {
  std::fprintf(
      f,
      "      {\"op\": \"%s\", \"issued\": %llu, \"ok\": %llu, "
      "\"not_found\": %llu, \"errors\": %llu, \"p50_ms\": %.3f, "
      "\"p99_ms\": %.3f, \"p999_ms\": %.3f, \"max_ms\": %.3f, "
      "\"mean_service_ms\": %.4f}%s\n",
      loadgen::OpClassName(static_cast<loadgen::OpClass>(cls)),
      static_cast<unsigned long long>(s.issued),
      static_cast<unsigned long long>(s.ok),
      static_cast<unsigned long long>(s.not_found),
      static_cast<unsigned long long>(s.errors),
      s.latency.PercentileMillis(0.50), s.latency.PercentileMillis(0.99),
      s.latency.PercentileMillis(0.999),
      static_cast<double>(s.latency.max_nanos()) / 1.0e6,
      s.service.MeanNanos() / 1.0e6, last ? "" : ",");
}

bool WriteJson(const std::string& path, const BenchConfig& config,
               uint64_t trace_hash, const loadgen::RunReport& report,
               const std::vector<loadgen::PhaseSpec>& phases,
               const loadgen::SaturationResult& saturation,
               uint64_t index_swaps, const InferenceSection& inference,
               bool gates_ok) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"mode\": \"%s\",\n", config.smoke ? "smoke" : "full");
  std::fprintf(f, "  \"seed\": %llu,\n",
               static_cast<unsigned long long>(config.seed));
  std::fprintf(f, "  \"trace_hash\": \"%016llx\",\n",
               static_cast<unsigned long long>(trace_hash));
  std::fprintf(f, "  \"threads\": %zu,\n", config.threads);
  std::fprintf(f, "  \"offered_rate\": %.1f,\n", report.offered_rate);
  std::fprintf(f, "  \"achieved_rate\": %.1f,\n", report.achieved_rate);
  std::fprintf(f, "  \"achieved_ratio\": %.4f,\n", report.AchievedRatio());
  std::fprintf(f, "  \"ratio_floor\": %.2f,\n", config.ratio_floor);
  std::fprintf(f, "  \"requests\": %llu,\n",
               static_cast<unsigned long long>(report.issued));
  std::fprintf(f, "  \"errors\": %llu,\n",
               static_cast<unsigned long long>(report.errors));
  std::fprintf(f, "  \"index_swaps_under_load\": %llu,\n",
               static_cast<unsigned long long>(index_swaps));
  std::fprintf(f, "  \"gates_ok\": %s,\n", gates_ok ? "true" : "false");
  std::fprintf(f, "  \"inference\": {\n");
  std::fprintf(f, "    \"drafts\": %zu,\n", inference.drafts);
  std::fprintf(f, "    \"per_call_rows_per_s\": %.1f,\n",
               inference.per_call_rows_per_s);
  std::fprintf(f, "    \"batched_rows_per_s\": %.1f,\n",
               inference.batched_rows_per_s);
  std::fprintf(f, "    \"speedup\": %.2f,\n", inference.speedup);
  std::fprintf(f, "    \"e2e_floor\": %.2f,\n", config.e2e_floor);
  std::fprintf(f, "    \"model_per_call_rows_per_s\": %.1f,\n",
               inference.model_per_call_rows_per_s);
  std::fprintf(f, "    \"model_batched_rows_per_s\": %.1f,\n",
               inference.model_batched_rows_per_s);
  std::fprintf(f, "    \"model_speedup\": %.2f,\n", inference.model_speedup);
  std::fprintf(f, "    \"model_bitwise\": %s,\n",
               inference.model_bitwise ? "true" : "false");
  std::fprintf(f, "    \"batches\": %llu,\n",
               static_cast<unsigned long long>(inference.batches));
  std::fprintf(f, "    \"mean_batch_fill\": %.1f,\n",
               inference.mean_batch_fill);
  std::fprintf(f, "    \"serving_errors\": %llu,\n",
               static_cast<unsigned long long>(inference.serving_errors));
  std::fprintf(f, "    \"index_swaps_during_batched\": %llu,\n",
               static_cast<unsigned long long>(inference.index_swaps));
  std::fprintf(f, "    \"model_version\": %llu,\n",
               static_cast<unsigned long long>(inference.model_version));
  std::fprintf(f, "    \"ok\": %s\n", inference.ok ? "true" : "false");
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"per_class\": [\n");
  for (size_t c = 0; c < loadgen::kNumOpClasses; ++c) {
    AppendClassJson(f, report.per_class[c], c,
                    c + 1 == loadgen::kNumOpClasses);
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"phases\": [\n");
  for (size_t p = 0; p < report.per_phase.size(); ++p) {
    uint64_t issued = 0;
    double worst_p99 = 0.0;
    for (size_t c = 0; c < loadgen::kNumOpClasses; ++c) {
      const loadgen::OpClassStats& s = report.per_phase[p][c];
      issued += s.issued;
      if (s.latency.count() > 0) {
        worst_p99 = std::max(worst_p99, s.latency.PercentileMillis(0.99));
      }
    }
    std::fprintf(f,
                 "    {\"phase\": \"%s\", \"offered_rate\": %.1f, "
                 "\"requests\": %llu, \"worst_p99_ms\": %.3f}%s\n",
                 p < phases.size() ? phases[p].name.c_str() : "?",
                 p < phases.size() ? phases[p].arrival_rate : 0.0,
                 static_cast<unsigned long long>(issued), worst_p99,
                 p + 1 < report.per_phase.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"saturation\": {\n");
  std::fprintf(f, "    \"max_sustained_rate\": %.1f,\n",
               saturation.max_sustained_rate);
  std::fprintf(f, "    \"breaking_rate\": %.1f,\n", saturation.breaking_rate);
  std::fprintf(f, "    \"steps\": [\n");
  for (size_t i = 0; i < saturation.steps.size(); ++i) {
    const loadgen::SaturationStep& s = saturation.steps[i];
    std::fprintf(f,
                 "      {\"offered_rate\": %.1f, \"achieved_ratio\": %.4f, "
                 "\"p99_ms\": %.3f, \"slo_ok\": %s%s%s}%s\n",
                 s.offered_rate, s.achieved_ratio, s.p99_ms,
                 s.slo_ok ? "true" : "false",
                 s.violation.empty() ? "" : ", \"violated\": \"",
                 s.violation.empty() ? "" : (s.violation + "\"").c_str(),
                 i + 1 < saturation.steps.size() ? "," : "");
  }
  std::fprintf(f, "    ]\n");
  std::fprintf(f, "  }\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  BenchConfig config;
  std::string out_path = "BENCH_serving.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      config = SmokeConfig();
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    }
  }
  std::printf("=== Serving load harness (%s mode) ===\n\n",
              config.smoke ? "smoke" : "full");

  // World + engine under test. The index lives in memory: this bench
  // measures the serving path, not the filesystem.
  datagen::WorldOptions world_options;
  world_options.seed = config.seed;
  if (config.smoke) {
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

  bool gates_ok = true;

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
  const bool deterministic =
      trace_hash == loadgen::TraceHash(replay) && trace == replay;
  std::printf("trace: %zu requests, hash=%016llx, deterministic=%s\n",
              trace.size(), static_cast<unsigned long long>(trace_hash),
              deterministic ? "ok" : "FAIL");
  gates_ok = gates_ok && deterministic;

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
  const loadgen::RunReport report = driver.Run(trace);
  refresher.join();
  const uint64_t index_swaps = engine.stats().index_swaps - swaps_before;

  std::printf("\nrun: offered=%.0f/s achieved=%.0f/s ratio=%.3f "
              "(floor %.2f) errors=%llu index_swaps=%llu\n",
              report.offered_rate, report.achieved_rate,
              report.AchievedRatio(), config.ratio_floor,
              static_cast<unsigned long long>(report.errors),
              static_cast<unsigned long long>(index_swaps));
  for (size_t p = 0; p < report.per_phase.size(); ++p) {
    for (size_t c = 0; c < loadgen::kNumOpClasses; ++c) {
      PrintClassRow(workload.phases[p].name.c_str(), c,
                    report.per_phase[p][c]);
    }
  }

  // Gate 2: correctness — every request served without a non-NotFound
  // failure, and the concurrent generation swap completed.
  const bool correctness_ok = report.errors == 0 && index_swaps >= 1;
  // Gate 3: SLO-ratio — the driver kept pace with its own schedule.
  const bool ratio_ok = report.AchievedRatio() >= config.ratio_floor;
  gates_ok = gates_ok && correctness_ok && ratio_ok;
  std::printf("\ngates: determinism=%s correctness=%s slo_ratio=%s\n",
              deterministic ? "ok" : "FAIL", correctness_ok ? "ok" : "FAIL",
              ratio_ok ? "ok" : "FAIL");

  // Saturation search (recorded, not gated): step the offered rate until
  // the latency SLO or the achieved-ratio floor breaks.
  loadgen::SloSpec slo;
  slo.p99_ms = config.smoke ? 100.0 : 50.0;
  slo.p50_ms = config.smoke ? 50.0 : 20.0;
  slo.p999_ms = config.smoke ? 500.0 : 250.0;
  slo.min_achieved_ratio = config.ratio_floor;
  loadgen::WorkloadOptions saturation_base = workload;
  const loadgen::SaturationResult saturation = SaturationSearch(
      driver, saturation_base, slo, config.saturation_start,
      config.saturation_growth, config.saturation_steps,
      config.saturation_window);
  std::printf("\nsaturation search (p99 SLO %.0fms, ratio >= %.2f):\n",
              slo.p99_ms, slo.min_achieved_ratio);
  for (const loadgen::SaturationStep& s : saturation.steps) {
    std::printf("  offered=%7.0f/s ratio=%.3f p99=%8.2fms %s%s%s\n",
                s.offered_rate, s.achieved_ratio, s.p99_ms,
                s.slo_ok ? "ok" : "broke", s.violation.empty() ? "" : ": ",
                s.violation.c_str());
  }
  std::printf("  max sustained: %.0f/s%s\n", saturation.max_sustained_rate,
              saturation.breaking_rate > 0.0 ? "" : " (never broke)");

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
  const InferenceSection inference =
      RunInferenceComparison(engine, db, candidates, config);
  std::printf(
      "\npredict e2e:   drafts=%zu per_call=%.0f/s batched=%.0f/s "
      "speedup=%.2f (floor %.2f)\n",
      inference.drafts, inference.per_call_rows_per_s,
      inference.batched_rows_per_s, inference.speedup, config.e2e_floor);
  std::printf(
      "predict model: per_call=%.0f rows/s batched=%.0f rows/s "
      "speedup=%.2f (recorded) bitwise=%s\n",
      inference.model_per_call_rows_per_s,
      inference.model_batched_rows_per_s, inference.model_speedup,
      inference.model_bitwise ? "ok" : "FAIL");
  std::printf(
      "predict telemetry: forward_passes=%llu rows_per_pass=%.1f "
      "errors=%llu swaps=%llu model_gen=%llu -> %s\n",
      static_cast<unsigned long long>(inference.batches),
      inference.mean_batch_fill,
      static_cast<unsigned long long>(inference.serving_errors),
      static_cast<unsigned long long>(inference.index_swaps),
      static_cast<unsigned long long>(inference.model_version),
      inference.ok ? "ok" : "FAIL");
  gates_ok = gates_ok && inference.ok;

  if (!WriteJson(out_path, config, trace_hash, report, workload.phases,
                 saturation, index_swaps, inference, gates_ok)) {
    std::fprintf(stderr, "FAIL: could not write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("\nwrote %s\n", out_path.c_str());
  if (!gates_ok) {
    std::fprintf(stderr,
                 "\nFAIL: a determinism/correctness/SLO-ratio gate tripped\n");
    return 1;
  }
  return 0;
}
