// Tests for the public serving facade (core/engine.h): EngineOptions view
// consistency, BuildIndex / LoadIndex / Recover round trips, the
// QueryTrending / PredictInterest online paths, and the serving-generation
// guarantees: a failed save changes no answer, and a restart at any crash
// point serves the writer's answers bit for bit. Suite names carry the
// `Engine` prefix: the asan/ubsan CI jobs select them by that regex.
#include "core/engine.h"

#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/collection.h"
#include "core/preprocess.h"
#include "datagen/faults.h"
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

  /// A second generation's world: the same planted events over fewer
  /// tweets, so the drafts still match and the model differs.
  void LoadSecondWorld(store::Database* db) const {
    datagen::WorldOptions world_options;
    world_options.num_articles = 400;
    world_options.num_tweets = 1000;
    world_options.num_users = 200;
    datagen::GenerateWorld(world_options).LoadInto(*db);
  }

  /// Fixed drafts: every planted event's first two keywords.
  std::vector<std::string> Drafts() const {
    std::vector<std::string> drafts;
    for (const datagen::PlantedEvent& e : world_.events) {
      if (e.keywords.size() >= 2) {
        drafts.push_back(e.keywords[0] + " " + e.keywords[1]);
      }
    }
    return drafts;
  }

  static std::vector<StatusOr<InterestPrediction>> Answers(
      const Engine& engine, const std::vector<std::string>& drafts) {
    std::vector<StatusOr<InterestPrediction>> answers;
    for (const std::string& d : drafts) {
      answers.push_back(engine.PredictInterest(d, 10));
    }
    return answers;
  }

  /// Every answer, bitwise: generation, class weights, neighbours.
  static void ExpectSameAnswers(
      const std::vector<StatusOr<InterestPrediction>>& got,
      const std::vector<StatusOr<InterestPrediction>>& want,
      const std::string& where) {
    ASSERT_EQ(got.size(), want.size()) << where;
    for (size_t i = 0; i < want.size(); ++i) {
      ASSERT_TRUE(got[i].ok() && want[i].ok()) << where << ", draft " << i;
      const InterestPrediction& g = *got[i];
      const InterestPrediction& w = *want[i];
      EXPECT_EQ(g.generation, w.generation) << where << ", draft " << i;
      EXPECT_EQ(g.class_weights, w.class_weights) << where << ", draft " << i;
      ASSERT_EQ(g.neighbors.size(), w.neighbors.size()) << where;
      for (size_t n = 0; n < w.neighbors.size(); ++n) {
        EXPECT_EQ(g.neighbors[n].doc, w.neighbors[n].doc) << where;
        EXPECT_EQ(g.neighbors[n].model_score, w.neighbors[n].model_score)
            << where;
      }
    }
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
  options.serving.model.parallelism.threads = 2;
  EXPECT_EQ(options.PipelineView().parallelism.threads, 7u);
  EXPECT_EQ(options.PipelineView().parallelism.shards, 13u);
  EXPECT_EQ(options.ServingView().model.parallelism.threads, 7u);
  EXPECT_EQ(options.ServingView().model.parallelism.shards, 13u);
}

// serving.model.num_classes is the one copy of the answer's class space:
// the view carries it and a built Engine answers in it.
TEST_F(EngineFixture, ServingNumClassesSetsTheAnswersClassSpace) {
  EngineOptions options;
  EXPECT_EQ(options.ServingView().model.num_classes, 3u);  // Table-2 classes
  options.serving.model.num_classes = 2;
  EXPECT_EQ(options.ServingView().model.num_classes, 2u);
  Engine engine(options);
  ASSERT_TRUE(engine.BuildIndex(db_).ok());
  StatusOr<InterestPrediction> prediction =
      engine.PredictInterest(EventQuery(), 25);
  ASSERT_TRUE(prediction.ok()) << prediction.status().ToString();
  ASSERT_EQ(prediction->class_weights.size(), 2u);
  EXPECT_NEAR(prediction->class_weights[0] + prediction->class_weights[1],
              1.0, 1e-9);
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
  EXPECT_EQ(report->generation, 1u);  // in memory: previous + 1
  EXPECT_EQ(engine.generation(), 1u);
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
  EXPECT_EQ(prediction->generation, 1u);  // the build's one generation
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
  EXPECT_EQ(writer.generation(), 1u);

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
  EXPECT_EQ(engine.generation(), 0u);
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
  EXPECT_EQ(engine.generation(), 1u);
  StatusOr<std::vector<QueryHit>> hits =
      engine.QueryTrending(EventQuery(), 5);
  ASSERT_TRUE(hits.ok());
  EXPECT_FALSE(hits->empty());
}

// A build whose save fails publishes nothing: not its indexes, not its
// model. The second world trains a different model, so any leak shows.
TEST_F(EngineFixture, FailedSaveKeepsServingThePreviousGeneration) {
  size_t first_build_ops = 0;
  {
    datagen::FaultyFileIo counting(DefaultFileIo(), {});
    EngineOptions options = IndexedOptions();
    options.index_dir = dir() + "/count";
    options.io = &counting;
    ASSERT_TRUE(Engine(options).BuildIndex(db_).ok());
    first_build_ops = counting.counters().ops;
  }
  datagen::StorageFaultOptions fault;
  fault.crash_after_ops = first_build_ops;  // every later op fails
  datagen::FaultyFileIo faulty(DefaultFileIo(), fault);
  EngineOptions options = IndexedOptions();
  options.io = &faulty;
  Engine engine(options);
  ASSERT_TRUE(engine.BuildIndex(db_).ok());
  const std::vector<std::string> drafts = Drafts();
  const std::vector<StatusOr<InterestPrediction>> before =
      Answers(engine, drafts);

  store::Database db2;
  LoadSecondWorld(&db2);
  EXPECT_FALSE(engine.BuildIndex(db2).ok());
  EXPECT_EQ(engine.generation(), 1u);
  ExpectSameAnswers(Answers(engine, drafts), before, "after failed save");
}

// A restart re-derives the model from INDEX-<gen>, so whichever generation
// a crash mid-save leaves on disk, a fresh Engine answers exactly as the
// writer did for that generation, through single and batch calls alike.
// The last crash point lies past the save: the new generation committed.
TEST_F(EngineFixture, RecoverServesTheWritersAnswersAtEveryCrashPoint) {
  store::Database db2;
  LoadSecondWorld(&db2);
  const std::vector<std::string> drafts = Drafts();
  std::map<uint64_t, std::vector<StatusOr<InterestPrediction>>> want;
  size_t first_build_ops = 0;
  size_t second_build_ops = 0;
  {
    datagen::FaultyFileIo counting(DefaultFileIo(), {});
    EngineOptions options = IndexedOptions();
    options.io = &counting;
    Engine writer(options);
    ASSERT_TRUE(writer.BuildIndex(db_).ok());
    first_build_ops = counting.counters().ops;
    want[1] = Answers(writer, drafts);
    ASSERT_TRUE(writer.BuildIndex(db2).ok());
    second_build_ops = counting.counters().ops - first_build_ops;
    want[2] = Answers(writer, drafts);
  }
  ASSERT_GT(second_build_ops, 0u);

  std::map<uint64_t, size_t> recovered;
  for (size_t crash = 0; crash <= second_build_ops; ++crash) {
    const std::string where = "crash point " + std::to_string(crash);
    fs::remove_all(dir_);
    {
      datagen::StorageFaultOptions fault;
      fault.crash_after_ops = first_build_ops + crash;
      datagen::FaultyFileIo faulty(DefaultFileIo(), fault);
      EngineOptions options = IndexedOptions();
      options.io = &faulty;
      Engine writer(options);
      ASSERT_TRUE(writer.BuildIndex(db_).ok()) << where;
      (void)writer.BuildIndex(db2);  // usually fails; that's the point
    }
    Engine restarted(IndexedOptions());
    store::Database db;
    ASSERT_TRUE(restarted.Recover(db).ok()) << where;
    const uint64_t generation = restarted.generation();
    ASSERT_TRUE(generation == 1u || generation == 2u) << where;
    ++recovered[generation];
    ExpectSameAnswers(Answers(restarted, drafts), want[generation], where);
    ExpectSameAnswers(restarted.PredictInterestBatch(drafts, 10),
                      want[generation], where + " (batch)");
  }
  EXPECT_GT(recovered[1], 0u);
  EXPECT_GT(recovered[2], 0u);
}

}  // namespace
}  // namespace newsdiff
