// ingest_refresh: the crawler's write stream while the serving index is
// rebuilt on a fixed period.
//
// The ingests are the write share of the repository's own serving traffic:
// loadgen::WorkloadGenerator's steady phase at serving_bench's full-mode
// rate (400 requests/s) with its two read classes weighted to zero, so
// tweets and articles arrive 2:1 (loadgen::PhaseSpec's default 0.20/0.10)
// at about 120/s. loadgen::LoadDriver replays them open loop on its default
// workers into the world serving_bench serves in smoke mode. Once a second
// a refresher holds LoadDriver's store mutex and rebuilds the Engine's
// indexes and serving model from the growing store, as serving_bench's
// refresher does once per run; ingests that arrive meanwhile wait. The
// number of documents ingested is fixed by the trace, so every build of
// the program rebuilds the same stores.
#include <algorithm>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "harness.h"
#include "loadgen/driver.h"

namespace perfbench {

namespace {

using namespace newsdiff;
using loadgen::OpClass;

constexpr size_t kArticles = 1500;
constexpr size_t kTweets = 4000;
constexpr size_t kUsers = 600;
constexpr double kRate = 400.0;  // before the read classes are dropped
constexpr double kRefreshPeriodS = 1.0;
constexpr int kReplayReps = 3;
constexpr bool kIngests[loadgen::kNumOpClasses] = {true, true, false, false};

loadgen::OpClassStats IngestStats(const loadgen::RunReport& report) {
  loadgen::OpClassStats s =
      report.per_class[static_cast<size_t>(OpClass::kTweetIngest)];
  s.Merge(report.per_class[static_cast<size_t>(OpClass::kArticleUpsert)]);
  return s;
}

}  // namespace

Result RunIngestRefresh(const Args& args) {
  Result result;
  datagen::World world;
  store::Database db;
  std::unique_ptr<Engine> engine;
  auto setup = [&] {
    world = MakeWorld(args.seed, kArticles, kTweets, kUsers);
    db = store::Database();
    world.LoadInto(db);
    engine = std::make_unique<Engine>(EngineOptions{});
    StatusOr<BuildIndexReport> built = engine->BuildIndex(db);
    if (!built.ok()) result.Fail("BuildIndex: " + built.status().ToString());
  };
  const double setup_s = MinSetupSeconds(setup);
  if (!result.correct) return result;

  const std::vector<loadgen::Request> trace =
      SteadyTrace(args.seed, kUsers, kRate, args.seconds, kIngests);
  const size_t tweets_ingested = static_cast<size_t>(
      std::count_if(trace.begin(), trace.end(), [](const loadgen::Request& r) {
        return r.op == OpClass::kTweetIngest;
      }));
  const size_t tweets_before = db.Get("tweets")->size();
  const size_t news_before = db.Get("news")->size();
  const uint64_t swaps_before = engine->stats().index_swaps;

  loadgen::LoadDriver driver(*engine, db, loadgen::DriverOptions{});

  // The refresher rebuilds at fixed ticks until the ingest stream ends.
  std::mutex stop_mu;
  std::condition_variable stop_cv;
  bool stop = false;
  std::vector<double> rebuild_ms;
  bool rebuild_ok = true;
  std::thread refresher([&] {
    const Clock::time_point start = Clock::now();
    for (int tick = 0;; ++tick) {
      const Clock::time_point due =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>((tick + 0.5) *
                                                    kRefreshPeriodS));
      {
        std::unique_lock<std::mutex> lock(stop_mu);
        if (stop_cv.wait_until(lock, due, [&] { return stop; })) return;
      }
      std::lock_guard<std::mutex> lock(driver.db_mutex());
      const Clock::time_point t = Clock::now();
      const bool ok = engine->BuildIndex(db).ok();
      rebuild_ms.push_back(MillisSince(t));
      rebuild_ok = rebuild_ok && ok;
    }
  });
  const loadgen::RunReport report = driver.Run(trace);
  {
    std::lock_guard<std::mutex> lock(stop_mu);
    stop = true;
  }
  stop_cv.notify_all();
  refresher.join();

  result.attempted = report.issued;
  result.failed = report.errors;
  if (report.issued != trace.size() || report.errors > 0) {
    result.Fail(std::to_string(report.errors) + " of " +
                std::to_string(report.issued) + " ingests failed");
  }
  if (!rebuild_ok || rebuild_ms.empty()) {
    result.Fail("a periodic BuildIndex failed or none ran");
  }
  // Every acknowledged ingest is in the store, and a final rebuild indexes
  // exactly the store's documents.
  StatusOr<BuildIndexReport> final_build = engine->BuildIndex(db);
  const size_t tweets_now = db.Get("tweets")->size();
  const size_t news_now = db.Get("news")->size();
  if (tweets_now != tweets_before + tweets_ingested ||
      news_now != news_before + (trace.size() - tweets_ingested)) {
    result.Fail("store document counts do not match the ingests");
  }
  if (!final_build.ok() || final_build->tweet_docs != tweets_now ||
      final_build->news_docs != news_now) {
    result.Fail("final BuildIndex does not cover the store");
  }
  if (engine->stats().index_swaps - swaps_before != rebuild_ms.size() + 1) {
    result.Fail("index swaps do not match the rebuilds");
  }

  // p50 from dispatch: what an ingest costs when no rebuild is in the way.
  // p99 from the scheduled arrival: the ~10% of ingests that arrive during
  // a rebuild wait for the rest of it, so the tail is about one rebuild.
  // (The mean from arrival grows with the square of the rebuild time, and
  // so spreads twice as much as the host's speed does.)
  const loadgen::OpClassStats ingest = IngestStats(report);
  if (!args.trace) {
    result.Add("p50_ms", HistogramPercentileMs(ingest.service, 0.5), "ms");
    result.Add("tail_ms", HistogramPercentileMs(ingest.latency, 0.99), "ms");
    result.Add("setup_s", std::min(setup_s, MinSetupSeconds(setup)), "s");
    return result;
  }
  // The same ingests again, back to back on one worker into a fresh copy
  // of the world's store: the insert alone, with no lock held elsewhere.
  // What the measured service time adds to it is waiting for the lock.
  std::vector<loadgen::Request> back_to_back = trace;
  for (loadgen::Request& r : back_to_back) r.arrival_nanos = 0;
  store::Database scratch;
  world.LoadInto(scratch);
  loadgen::DriverOptions one_worker;
  one_worker.threads = 1;
  const loadgen::RunReport alone =
      loadgen::LoadDriver(*engine, scratch, one_worker).Run(back_to_back);
  if (alone.errors > 0) result.Fail("back-to-back ingest replay failed");
  const double insert_us = IngestStats(alone).service.MeanNanos() / 1e3;
  // Latency minus service time: how late LoadDriver dispatched ingests
  // behind their schedule, while all its workers waited on the store.
  result.Add("driver_lateness_us",
             (ingest.latency.MeanNanos() - ingest.service.MeanNanos()) / 1e3,
             "us");
  result.Add("store_insert_us", insert_us, "us");
  result.Add("store_lock_wait_us",
             std::max(0.0, ingest.service.MeanNanos() / 1e3 - insert_us),
             "us");
  result.Add("refresh_build_index_ms", Median(rebuild_ms), "ms");
  result.Add("refreshes", static_cast<double>(rebuild_ms.size()), "count");
  std::vector<BuildIndexLayers> layers;
  for (int i = 0; i < kReplayReps; ++i) {
    layers.push_back(ReplayBuildIndex(db, engine->options(), &result));
  }
  AddBuildIndexLayers(layers, &result);
  return result;
}

}  // namespace perfbench
