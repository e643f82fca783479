// Tests for the public serving facade (core/engine.h): EngineOptions view
// consistency, BuildIndex / LoadIndex / Recover round trips, and the
// QueryTrending / PredictInterest online paths. Suite names carry the
// `Engine` prefix: the asan/ubsan CI jobs select them by that regex.
#include "core/engine.h"

#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/collection.h"
#include "core/preprocess.h"
#include "datagen/world.h"
#include "index/index.h"
#include "store/database.h"
#include "text/pipeline.h"

namespace newsdiff {
namespace {

namespace fs = std::filesystem;

class EngineFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("newsdiff_engine_test_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);

    datagen::WorldOptions world_options;
    world_options.num_articles = 400;
    world_options.num_tweets = 1200;
    world_options.num_users = 200;
    world_ = datagen::GenerateWorld(world_options);
    world_.LoadInto(db_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string dir() const { return dir_.string(); }

  EngineOptions IndexedOptions() const {
    EngineOptions options;
    options.index_dir = dir() + "/index";
    return options;
  }

  /// A query built from a planted news event's own burst keywords, so it
  /// is guaranteed to hit both corpora.
  std::string EventQuery() const {
    for (const datagen::PlantedEvent& e : world_.events) {
      if (!e.chatter && e.keywords.size() >= 2) {
        return e.keywords[0] + " " + e.keywords[1];
      }
    }
    return "market";
  }

  fs::path dir_;
  datagen::World world_;
  store::Database db_;
};

TEST_F(EngineFixture, OptionsViewsCarryTheAuthoritativeParallelism) {
  EngineOptions options;
  options.parallelism.threads = 7;
  options.parallelism.shards = 13;
  options.pipeline.parallelism.threads = 1;  // stale embedded copy
  options.predictor.parallelism.threads = 2;
  EXPECT_EQ(options.PipelineView().parallelism.threads, 7u);
  EXPECT_EQ(options.PipelineView().parallelism.shards, 13u);
  EXPECT_EQ(options.PredictorView().parallelism.threads, 7u);
}

TEST_F(EngineFixture, IndexDirDefaultsUnderSnapshotDir) {
  EngineOptions options;
  EXPECT_EQ(options.IndexDir(), "");
  options.supervisor.snapshot_dir = "/data/nd";
  EXPECT_EQ(options.IndexDir(), "/data/nd/index");
  options.index_dir = "/elsewhere";
  EXPECT_EQ(options.IndexDir(), "/elsewhere");
}

TEST_F(EngineFixture, QueryBeforeBuildIsFailedPrecondition) {
  Engine engine(EngineOptions{});
  StatusOr<std::vector<QueryHit>> hits = engine.QueryTrending("market", 5);
  EXPECT_EQ(hits.status().code(), StatusCode::kFailedPrecondition);
  StatusOr<InterestPrediction> prediction =
      engine.PredictInterest("market", 5);
  EXPECT_EQ(prediction.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(EngineFixture, LoadIndexWithoutDirIsFailedPrecondition) {
  Engine engine(EngineOptions{});
  EXPECT_EQ(engine.LoadIndex().status().code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(EngineFixture, BuildIndexReportsCorpusShapes) {
  Engine engine(EngineOptions{});  // in-memory only
  StatusOr<BuildIndexReport> report = engine.BuildIndex(db_);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->news_docs, world_.articles.size());
  EXPECT_EQ(report->tweet_docs, world_.tweets.size());
  EXPECT_GT(report->news_terms, 0u);
  EXPECT_GT(report->tweet_terms, 0u);
  EXPECT_EQ(report->generation, 0u);  // no directory configured
  EXPECT_NE(engine.GetIndex("news"), nullptr);
  EXPECT_NE(engine.GetIndex("tweets"), nullptr);
  EXPECT_EQ(engine.GetIndex("nope"), nullptr);
}

TEST_F(EngineFixture, QueryTrendingRanksAndJoinsDocInfo) {
  Engine engine(EngineOptions{});
  ASSERT_TRUE(engine.BuildIndex(db_).ok());
  index::QueryStats stats;
  StatusOr<std::vector<QueryHit>> hits =
      engine.QueryTrending(EventQuery(), 5, &stats);
  ASSERT_TRUE(hits.ok()) << hits.status().ToString();
  ASSERT_FALSE(hits->empty());
  EXPECT_LE(hits->size(), 5u);
  EXPECT_GT(stats.terms_matched, 0u);
  for (size_t i = 0; i < hits->size(); ++i) {
    const QueryHit& h = (*hits)[i];
    EXPECT_GT(h.score, 0.0);
    EXPECT_GE(h.external_id, 0);  // joined from DocInfo
    EXPECT_GT(h.timestamp, 0);
    if (i > 0) {
      const QueryHit& prev = (*hits)[i - 1];
      EXPECT_TRUE(prev.score > h.score ||
                  (prev.score == h.score && prev.doc < h.doc));
    }
  }
}

TEST_F(EngineFixture, QueryTrendingMatchesBruteForceRanking) {
  Engine engine(EngineOptions{});
  ASSERT_TRUE(engine.BuildIndex(db_).ok());
  // Rebuild the same corpus the engine indexed and compare rankings.
  StatusOr<std::vector<core::NewsRecord>> news = core::LoadNews(db_);
  ASSERT_TRUE(news.ok());
  const corpus::Corpus corpus = core::BuildNewsED(*news);
  const std::string query = EventQuery();
  const std::vector<std::string> terms = text::PreprocessNewsED(query);
  std::vector<index::SearchResult> want =
      index::BruteForceTopK(corpus, engine.options().index, terms, 10);
  StatusOr<std::vector<QueryHit>> hits = engine.QueryTrending(query, 10);
  ASSERT_TRUE(hits.ok());
  ASSERT_EQ(hits->size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ((*hits)[i].doc, want[i].doc);
    EXPECT_EQ((*hits)[i].score, want[i].score);  // bitwise
  }
}

TEST_F(EngineFixture, PredictInterestIsModelRerankedAfterBuild) {
  Engine engine(EngineOptions{});
  ASSERT_TRUE(engine.BuildIndex(db_).ok());
  StatusOr<InterestPrediction> prediction =
      engine.PredictInterest(EventQuery(), 25);
  ASSERT_TRUE(prediction.ok()) << prediction.status().ToString();
  ASSERT_FALSE(prediction->neighbors.empty());
  EXPECT_TRUE(prediction->model_reranked);
  EXPECT_EQ(prediction->model_version, 1u);  // the build's one generation
  ASSERT_EQ(prediction->class_weights.size(), 3u);  // Table-2 classes
  double total = 0.0;
  for (double w : prediction->class_weights) {
    EXPECT_GE(w, 0.0);
    total += w;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
  EXPECT_DOUBLE_EQ(
      prediction->confidence,
      prediction->class_weights[static_cast<size_t>(
          prediction->predicted_class)]);
  for (double w : prediction->class_weights) {
    EXPECT_LE(w, prediction->confidence + 1e-12);
  }
  // Neighbours come back ordered by model interest.
  for (size_t i = 1; i < prediction->neighbors.size(); ++i) {
    EXPECT_GE(prediction->neighbors[i - 1].model_score,
              prediction->neighbors[i].model_score);
  }
}

// A loaded index carries no feature rows, so the answer is the BM25 vote:
// each neighbour's Table-2 label class gets its retrieval score.
TEST_F(EngineFixture, PredictInterestVotesOverNeighbourClasses) {
  Engine writer(IndexedOptions());
  ASSERT_TRUE(writer.BuildIndex(db_).ok());
  Engine reader(IndexedOptions());
  ASSERT_TRUE(reader.LoadIndex().ok());
  StatusOr<InterestPrediction> prediction =
      reader.PredictInterest(EventQuery(), 25);
  ASSERT_TRUE(prediction.ok()) << prediction.status().ToString();
  ASSERT_FALSE(prediction->neighbors.empty());
  EXPECT_FALSE(prediction->model_reranked);
  EXPECT_EQ(prediction->model_version, 0u);

  std::vector<double> want(3, 0.0);
  double total = 0.0;
  for (const QueryHit& h : prediction->neighbors) {
    ASSERT_GE(h.label, 0.0);  // neighbour labels are Table-2 classes
    ASSERT_LE(h.label, 2.0);
    EXPECT_EQ(h.model_score, 0.0);
    want[static_cast<size_t>(h.label)] += h.score;
    total += h.score;
  }
  ASSERT_GT(total, 0.0);
  ASSERT_EQ(prediction->class_weights.size(), want.size());
  for (size_t c = 0; c < want.size(); ++c) {
    EXPECT_DOUBLE_EQ(prediction->class_weights[c], want[c] / total)
        << "class " << c;
  }
  EXPECT_DOUBLE_EQ(
      prediction->confidence,
      prediction->class_weights[static_cast<size_t>(
          prediction->predicted_class)]);
}

TEST_F(EngineFixture, PredictInterestWithNoMatchesIsNotFound) {
  Engine engine(EngineOptions{});
  ASSERT_TRUE(engine.BuildIndex(db_).ok());
  StatusOr<InterestPrediction> prediction =
      engine.PredictInterest("zz_unindexed_gibberish_token", 10);
  EXPECT_EQ(prediction.status().code(), StatusCode::kNotFound);
}

TEST_F(EngineFixture, BuildPersistsAndASecondEngineLoads) {
  Engine writer(IndexedOptions());
  StatusOr<BuildIndexReport> report = writer.BuildIndex(db_);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->generation, 1u);
  EXPECT_EQ(writer.index_generation(), 1u);

  Engine reader(IndexedOptions());
  StatusOr<index::IndexLoadReport> loaded = reader.LoadIndex();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->generation, 1u);

  const std::string query = EventQuery();
  StatusOr<std::vector<QueryHit>> want = writer.QueryTrending(query, 10);
  StatusOr<std::vector<QueryHit>> got = reader.QueryTrending(query, 10);
  ASSERT_TRUE(want.ok());
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(got->size(), want->size());
  for (size_t i = 0; i < want->size(); ++i) {
    EXPECT_EQ((*got)[i].doc, (*want)[i].doc);
    EXPECT_EQ((*got)[i].score, (*want)[i].score);
    EXPECT_EQ((*got)[i].external_id, (*want)[i].external_id);
  }
}

TEST_F(EngineFixture, RecoverOnFreshDeploymentIsOk) {
  EngineOptions options = IndexedOptions();
  options.supervisor.snapshot_dir = dir() + "/snapshots";
  Engine engine(options);
  store::Database db;
  ASSERT_TRUE(engine.Recover(db).ok());
  EXPECT_EQ(engine.index_generation(), 0u);
}

TEST_F(EngineFixture, RecoverPicksUpAPersistedIndex) {
  EngineOptions options = IndexedOptions();
  options.supervisor.snapshot_dir = dir() + "/snapshots";
  {
    Engine writer(options);
    ASSERT_TRUE(writer.BuildIndex(db_).ok());
  }
  Engine engine(options);
  store::Database db;
  ASSERT_TRUE(engine.Recover(db).ok());
  EXPECT_EQ(engine.index_generation(), 1u);
  StatusOr<std::vector<QueryHit>> hits =
      engine.QueryTrending(EventQuery(), 5);
  ASSERT_TRUE(hits.ok());
  EXPECT_FALSE(hits->empty());
}

}  // namespace
}  // namespace newsdiff
