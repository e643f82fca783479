// Shared plumbing for the perfbench workloads: arguments, timing, sample
// statistics, the request trace, the closed-loop request driver, the
// BuildIndex layer replay, and the result.
#ifndef NEWSDIFF_PERFBENCH_HARNESS_H_
#define NEWSDIFF_PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/engine.h"
#include "datagen/world.h"
#include "loadgen/histogram.h"
#include "loadgen/workload.h"
#include "store/database.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
};

double SecondsSince(Clock::time_point start);
double MillisSince(Clock::time_point start);

/// Nearest-rank percentile (p in (0, 1]) of an unsorted sample; 0 if empty.
double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);

/// Nearest-rank percentile (p in (0, 1]) of a latency histogram in ms,
/// interpolated linearly within the bucket that holds it (as Prometheus'
/// histogram_quantile does), so that it moves by less than the
/// histogram's ~7.5% bucket width.
double HistogramPercentileMs(const newsdiff::loadgen::LatencyHistogram& h,
                             double p);

/// What one workload run reports. `metrics` holds name -> (value, unit);
/// main() prints it as the final stdout line.
struct Result {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;

  void Add(const std::string& name, double value, const std::string& unit);
  /// Marks the run incorrect and says why on stderr.
  void Fail(const std::string& why);
};

/// Runs `setup` five times and returns the fastest wall time in seconds.
/// The minimum, not the median: a slow set-up is the host being busy,
/// while the fastest one is what the code costs. The workloads call it
/// before and after the measured run and report the faster, because the
/// host is often busy for longer than five set-ups take.
double MinSetupSeconds(const std::function<void()>& setup);

/// A world of the given size, deterministic in `seed`.
newsdiff::datagen::World MakeWorld(uint64_t seed, size_t articles,
                                   size_t tweets, size_t users);

/// The steady phase of the repository's serving traffic
/// (loadgen::PhaseSpec defaults: its op mix, Zipf hot topics, NURand
/// users) at `rate` arrivals per second for `seconds`, keeping only the
/// request classes whose `keep` flag is set. Kept classes retain their
/// relative weights and their share of `rate`. Deterministic in `seed`.
std::vector<newsdiff::loadgen::Request> SteadyTrace(
    uint64_t seed, uint32_t users, double rate, double seconds,
    const bool (&keep)[newsdiff::loadgen::kNumOpClasses]);

/// Wall time of each step Engine::BuildIndex takes, replayed from the
/// benchmark through the same public functions on the same store: read
/// the collections, tokenise both corpora, invert them, hash the tweet
/// features, and train the serving model.
struct BuildIndexLayers {
  double load_ms = 0.0;
  double tokenize_ms = 0.0;
  double invert_ms = 0.0;
  double featurize_ms = 0.0;
  double train_ms = 0.0;
};
BuildIndexLayers ReplayBuildIndex(newsdiff::store::Database& db,
                                  const newsdiff::EngineOptions& options,
                                  Result* result);
/// Adds the per-step medians of `runs` as bi_*_ms metrics.
void AddBuildIndexLayers(const std::vector<BuildIndexLayers>& runs,
                         Result* result);

/// Closed-loop replay: `threads` clients each send their next request as
/// soon as the previous one returns, claiming request indices in order,
/// until `seconds` have passed. Returns latency and success of every
/// request sent, indexed like the requests.
struct ClosedLoopTimings {
  std::vector<double> latency_ms;
  std::vector<char> ok;
};
ClosedLoopTimings RunClosedLoop(size_t threads, double seconds,
                                const std::function<bool(size_t)>& op);

Result RunServeRead(const Args& args);
Result RunIngestRefresh(const Args& args);
Result RunOfflineRefresh(const Args& args);

}  // namespace perfbench

#endif  // NEWSDIFF_PERFBENCH_HARNESS_H_
