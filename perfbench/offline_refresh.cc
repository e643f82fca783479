// offline_refresh: back-to-back full refreshes of a fresh crawl.
//
// Each refresh takes a freshly loaded store (the same seeded crawl every
// time, loaded outside the timed span, so every refresh does the same work
// and the supervisor's stage ledger starts empty) through the supervised
// analysis pipeline
// (load, TFIDF/NMF topics, MABED news and Twitter events, trending topics,
// Doc2Vec correlation, event-tweet assignment) and then rebuilds the
// serving indexes and model: Engine::RunPipeline + Engine::BuildIndex, the
// offline half of the system. A closed loop: the next refresh starts when
// the previous one ends.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "core/embedding_cache.h"
#include "core/engine.h"
#include "core/pipeline.h"
#include "harness.h"

namespace perfbench {

namespace {

using namespace newsdiff;

constexpr size_t kArticles = 1200;
constexpr size_t kTweets = 3500;
constexpr size_t kUsers = 600;
constexpr int kReplayReps = 2;

/// The frozen background embedding store, scaled down from the
/// reproduction's 300-d default so that set-up stays a few seconds.
core::PretrainedConfig EmbeddingConfig() {
  core::PretrainedConfig config;
  config.dimension = 64;
  config.background_sentences = 3000;
  config.epochs = 1;
  return config;
}

/// Canonical digest of a pipeline result's outputs, for comparing runs.
size_t Digest(const core::PipelineResult& r) {
  std::string s;
  for (const topic::Topic& t : r.topics) {
    for (const std::string& k : t.keywords) s += k + ",";
    s += ";";
  }
  for (const auto* events : {&r.news_events, &r.twitter_events}) {
    for (const event::Event& e : *events) {
      s += e.main_word + ":" + std::to_string(e.support) + ":" +
           std::to_string(e.start_slice) + "-" + std::to_string(e.end_slice);
      for (const std::string& w : e.related_words) s += "," + w;
      s += ";";
    }
    s += "|";
  }
  for (const core::TrendingNewsTopic& t : r.trending) {
    s += std::to_string(t.topic_id) + "/" + std::to_string(t.news_event) + ";";
  }
  for (const core::EventCorrelation& c : r.correlations) {
    s += std::to_string(c.trending) + "/" + std::to_string(c.twitter_event) +
         ";";
  }
  for (const core::EventTweetAssignment& a : r.assignments) {
    s += std::to_string(a.twitter_event) + ":" +
         std::to_string(a.tweet_indices.size()) + ";";
  }
  return std::hash<std::string>{}(s);
}

store::Database LoadWorld(const datagen::World& world) {
  store::Database db;
  world.LoadInto(db);
  return db;
}

}  // namespace

Result RunOfflineRefresh(const Args& args) {
  Result result;
  datagen::World world;
  std::unique_ptr<embed::PretrainedStore> embeddings;
  auto setup = [&] {
    world = MakeWorld(args.seed, kArticles, kTweets, kUsers);
    StatusOr<embed::PretrainedStore> trained =
        core::LoadOrTrainPretrained("", EmbeddingConfig());
    if (!trained.ok()) {
      result.Fail("embeddings: " + trained.status().ToString());
      return;
    }
    embeddings = std::make_unique<embed::PretrainedStore>(std::move(*trained));
  };
  const double setup_s = MinSetupSeconds(setup);
  if (!result.correct) return result;

  Engine engine{EngineOptions{}};
  std::vector<double> refresh_ms, pipeline_ms, build_ms;
  size_t first_digest = 0;
  const Clock::time_point start = Clock::now();
  for (size_t i = 0; i == 0 || SecondsSince(start) < args.seconds; ++i) {
    store::Database db = LoadWorld(world);
    ++result.attempted;
    const Clock::time_point t0 = Clock::now();
    StatusOr<core::PipelineResult> run = engine.RunPipeline(db, *embeddings);
    const Clock::time_point t1 = Clock::now();
    StatusOr<BuildIndexReport> built =
        run.ok() ? engine.BuildIndex(db)
                 : StatusOr<BuildIndexReport>(run.status());
    const Clock::time_point t2 = Clock::now();
    using Ms = std::chrono::duration<double, std::milli>;
    refresh_ms.push_back(Ms(t2 - t0).count());
    pipeline_ms.push_back(Ms(t1 - t0).count());
    build_ms.push_back(Ms(t2 - t1).count());
    if (!run.ok() || !built.ok()) {
      ++result.failed;
      result.Fail("refresh failed: " + (run.ok() ? built.status().ToString()
                                                 : run.status().ToString()));
      continue;
    }
    if (run->topics.empty() || run->news_events.empty() ||
        run->twitter_events.empty() || run->assignments.empty() ||
        built->news_docs != world.articles.size() ||
        built->tweet_docs != world.tweets.size()) {
      result.Fail("refresh produced incomplete output");
    }
    const size_t digest = Digest(*run);
    if (i == 0) {
      first_digest = digest;
      std::fprintf(stderr,
                   "offline_refresh: topics=%zu news_events=%zu "
                   "twitter_events=%zu trending=%zu correlations=%zu "
                   "assignments=%zu\n",
                   run->topics.size(), run->news_events.size(),
                   run->twitter_events.size(), run->trending.size(),
                   run->correlations.size(), run->assignments.size());
    }
    if (digest != first_digest) {
      result.Fail("refreshing the same crawl gave different results");
    }
  }
  // The supervised refresh must equal a plain pipeline run on the same crawl.
  {
    store::Database db = LoadWorld(world);
    StatusOr<core::PipelineResult> plain =
        core::Pipeline(engine.options().PipelineView()).Run(db, *embeddings);
    if (!plain.ok() || Digest(*plain) != first_digest) {
      result.Fail("supervised refresh differs from a plain pipeline run");
    }
  }

  if (!args.trace) {
    result.Add("p50_ms", Median(refresh_ms), "ms");
    // p75: with about 40 refreshes a run, the highest percentile that has
    // ten refreshes beyond it.
    result.Add("tail_ms", Percentile(refresh_ms, 0.75), "ms");
    result.Add("setup_s", std::min(setup_s, MinSetupSeconds(setup)), "s");
    return result;
  }
  result.Add("refresh_pipeline_ms", Median(pipeline_ms), "ms");
  result.Add("refresh_build_index_ms", Median(build_ms), "ms");
  result.Add("refreshes", static_cast<double>(refresh_ms.size()), "count");

  // Per-stage attribution: the pipeline's stage API, one stage at a time.
  const core::Pipeline pipeline(engine.options().PipelineView());
  using Stage = std::function<Status(core::PipelineResult*)>;
  const std::vector<std::pair<std::string, Stage>> stages = {
      {"stage_topics_ms", [&](core::PipelineResult* r) {
         return pipeline.RunTopics(r);
       }},
      {"stage_news_events_ms", [&](core::PipelineResult* r) {
         return pipeline.RunNewsEvents(r);
       }},
      {"stage_twitter_events_ms", [&](core::PipelineResult* r) {
         return pipeline.RunTwitterEvents(r);
       }},
      {"stage_trending_ms", [&](core::PipelineResult* r) {
         return pipeline.RunTrending(*embeddings, r);
       }},
      {"stage_correlations_ms", [&](core::PipelineResult* r) {
         return pipeline.RunCorrelations(*embeddings, r);
       }},
      {"stage_assignments_ms", [&](core::PipelineResult* r) {
         return pipeline.RunAssignments(r);
       }},
  };
  std::vector<std::vector<double>> stage_ms(stages.size() + 1);
  std::vector<BuildIndexLayers> layers;
  for (int rep = 0; rep < kReplayReps; ++rep) {
    store::Database db = LoadWorld(world);
    core::PipelineResult r;
    Clock::time_point t = Clock::now();
    bool ok = pipeline.LoadInputs(db, &r).ok();
    stage_ms[0].push_back(MillisSince(t));
    for (size_t s = 0; s < stages.size(); ++s) {
      t = Clock::now();
      ok = ok && stages[s].second(&r).ok();
      stage_ms[s + 1].push_back(MillisSince(t));
    }
    if (!ok || Digest(r) != first_digest) {
      result.Fail("stage-by-stage replay differs from the refresh");
    }
    layers.push_back(ReplayBuildIndex(db, engine.options(), &result));
  }
  result.Add("stage_load_ms", Median(stage_ms[0]), "ms");
  for (size_t s = 0; s < stages.size(); ++s) {
    result.Add(stages[s].first, Median(stage_ms[s + 1]), "ms");
  }
  AddBuildIndexLayers(layers, &result);
  return result;
}

}  // namespace perfbench
