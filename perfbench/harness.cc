#include "harness.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <thread>

#include "core/collection.h"
#include "core/preprocess.h"
#include "serve/features.h"
#include "serve/trainer.h"

namespace perfbench {

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double MillisSince(Clock::time_point start) {
  return SecondsSince(start) * 1e3;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p * static_cast<double>(values.size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double Median(std::vector<double> values) { return Percentile(values, 0.5); }

double HistogramPercentileMs(const newsdiff::loadgen::LatencyHistogram& h,
                             double p) {
  using newsdiff::loadgen::LatencyHistogram;
  const uint64_t n = h.count();
  if (n == 0) return 0.0;
  // The value the histogram reports for the sample of rank r (1-based):
  // the upper bound of its bucket, clamped to the observed [min, max].
  auto at = [&](uint64_t r) {
    return h.PercentileNanos((static_cast<double>(r) - 0.5) /
                             static_cast<double>(n));
  };
  const uint64_t mid = std::clamp<uint64_t>(
      static_cast<uint64_t>(std::ceil(p * static_cast<double>(n))), 1, n);
  const double upper = at(mid);
  if (upper < 1.0) return 0.0;
  // The ranks [first, last] that share the percentile's bucket.
  uint64_t lo = 1, hi = mid;
  while (lo < hi) {
    const uint64_t m = lo + (hi - lo) / 2;
    if (at(m) < upper) {
      lo = m + 1;
    } else {
      hi = m;
    }
  }
  const uint64_t first = lo;
  lo = mid;
  hi = n;
  while (lo < hi) {
    const uint64_t m = lo + (hi - lo + 1) / 2;
    if (at(m) > upper) {
      hi = m - 1;
    } else {
      lo = m;
    }
  }
  const uint64_t last = lo;
  const size_t bucket =
      LatencyHistogram::BucketFor(static_cast<uint64_t>(upper) - 1);
  const double lower =
      bucket == 0
          ? 0.0
          : std::max<double>(LatencyHistogram::BucketUpperNanos(bucket - 1),
                             static_cast<double>(h.min_nanos()));
  const double within = (static_cast<double>(mid - first) + 0.5) /
                        static_cast<double>(last - first + 1);
  return (lower + within * (upper - lower)) / 1e6;
}

void Result::Add(const std::string& name, double value,
                 const std::string& unit) {
  metrics.push_back({name, {value, unit}});
}

void Result::Fail(const std::string& why) {
  correct = false;
  std::fprintf(stderr, "perfbench: incorrect output: %s\n", why.c_str());
}

double MinSetupSeconds(const std::function<void()>& setup) {
  double fastest = 0.0;
  for (int i = 0; i < 5; ++i) {
    const Clock::time_point start = Clock::now();
    setup();
    const double seconds = SecondsSince(start);
    fastest = i == 0 ? seconds : std::min(fastest, seconds);
  }
  return fastest;
}

newsdiff::datagen::World MakeWorld(uint64_t seed, size_t articles,
                                   size_t tweets, size_t users) {
  newsdiff::datagen::WorldOptions options;
  options.seed = seed;
  options.num_articles = articles;
  options.num_tweets = tweets;
  options.num_users = users;
  return newsdiff::datagen::GenerateWorld(options);
}

std::vector<newsdiff::loadgen::Request> SteadyTrace(
    uint64_t seed, uint32_t users, double rate, double seconds,
    const bool (&keep)[newsdiff::loadgen::kNumOpClasses]) {
  namespace loadgen = newsdiff::loadgen;
  loadgen::PhaseSpec steady;
  steady.duration_seconds = seconds;
  double total = 0.0, kept = 0.0;
  for (size_t c = 0; c < loadgen::kNumOpClasses; ++c) {
    total += steady.mix[c];
    if (keep[c]) {
      kept += steady.mix[c];
    } else {
      steady.mix[c] = 0.0;
    }
  }
  // The kept classes arrive at the rate they have within the full mix.
  steady.arrival_rate = rate * kept / total;
  loadgen::WorkloadOptions options;
  options.seed = seed;
  options.num_users = users;
  options.phases = {steady};
  return loadgen::WorkloadGenerator(options).GenerateTrace();
}

ClosedLoopTimings RunClosedLoop(size_t threads, double seconds,
                                const std::function<bool(size_t)>& op) {
  struct Done {
    size_t index;
    double ms;
    bool ok;
  };
  std::vector<std::vector<Done>> done(std::max<size_t>(threads, 1));
  std::atomic<size_t> cursor{0};
  const Clock::time_point end =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  auto client = [&](std::vector<Done>* mine) {
    while (Clock::now() < end) {
      const size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
      const Clock::time_point t = Clock::now();
      const bool ok = op(i);
      mine->push_back({i, MillisSince(t), ok});
    }
  };
  std::vector<std::thread> pool;
  for (std::vector<Done>& mine : done) pool.emplace_back(client, &mine);
  for (std::thread& th : pool) th.join();

  ClosedLoopTimings timings;
  timings.latency_ms.assign(cursor.load(), 0.0);
  timings.ok.assign(cursor.load(), 0);
  for (const std::vector<Done>& mine : done) {
    for (const Done& d : mine) {
      timings.latency_ms[d.index] = d.ms;
      timings.ok[d.index] = d.ok ? 1 : 0;
    }
  }
  return timings;
}

BuildIndexLayers ReplayBuildIndex(newsdiff::store::Database& db,
                                  const newsdiff::EngineOptions& options,
                                  Result* result) {
  using namespace newsdiff;
  BuildIndexLayers layers;
  Clock::time_point t = Clock::now();
  StatusOr<std::vector<core::NewsRecord>> news = core::LoadNews(db);
  StatusOr<std::vector<core::TweetRecord>> tweets = core::LoadTweets(db);
  if (!news.ok() || !tweets.ok()) {
    result->Fail("replay: loading the collections failed");
    return layers;
  }
  layers.load_ms = MillisSince(t);

  t = Clock::now();
  const corpus::Corpus news_corpus = core::BuildNewsED(*news);
  const corpus::Corpus tweet_corpus = core::BuildTwitterED(*tweets);
  layers.tokenize_ms = MillisSince(t);

  const serve::ServingOptions serving = options.ServingView();
  const int max_class = static_cast<int>(serving.model.num_classes) - 1;
  std::vector<double> label_values;
  std::vector<int> labels;
  for (const core::TweetRecord& tweet : *tweets) {
    const int cls = datagen::EncodeCountClass(tweet.likes);
    label_values.push_back(cls);
    labels.push_back(std::clamp(cls, 0, max_class));
  }
  t = Clock::now();
  StatusOr<index::InvertedIndex> news_ix =
      index::InvertedIndex::Build(news_corpus, options.index);
  StatusOr<index::InvertedIndex> tweets_ix =
      index::InvertedIndex::Build(tweet_corpus, options.index, label_values);
  layers.invert_ms = MillisSince(t);
  if (!news_ix.ok() || !tweets_ix.ok()) {
    result->Fail("replay: inverting the corpora failed");
    return layers;
  }

  t = Clock::now();
  const la::Matrix features =
      serve::HashedFeaturizer(serving.model.feature_dim)
          .FeaturizeCorpus(tweet_corpus);
  layers.featurize_ms = MillisSince(t);

  t = Clock::now();
  StatusOr<nn::Model> model =
      serve::TrainInterestModel(features, labels, serving.model);
  layers.train_ms = MillisSince(t);
  if (!model.ok()) result->Fail("replay: training the serving model failed");
  return layers;
}

void AddBuildIndexLayers(const std::vector<BuildIndexLayers>& runs,
                         Result* result) {
  auto median_of = [&](double BuildIndexLayers::*field) {
    std::vector<double> values;
    for (const BuildIndexLayers& r : runs) values.push_back(r.*field);
    return Median(values);
  };
  result->Add("bi_load_ms", median_of(&BuildIndexLayers::load_ms), "ms");
  result->Add("bi_tokenize_ms", median_of(&BuildIndexLayers::tokenize_ms),
              "ms");
  result->Add("bi_invert_ms", median_of(&BuildIndexLayers::invert_ms), "ms");
  result->Add("bi_featurize_ms", median_of(&BuildIndexLayers::featurize_ms),
              "ms");
  result->Add("bi_train_ms", median_of(&BuildIndexLayers::train_ms), "ms");
}

}  // namespace perfbench
