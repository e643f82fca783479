#include "core/checkpoint.h"

#include <filesystem>

#include <gtest/gtest.h>

namespace newsdiff::core {
namespace {

PipelineResult MakeResult() {
  PipelineResult r;
  topic::Topic t;
  t.id = 3;
  t.keywords = {"brexit", "vote"};
  t.weights = {0.9, 0.5};
  r.topics.push_back(t);

  event::Event ne;
  ne.main_word = "election";
  ne.related_words = {"vote", "poll"};
  ne.related_weights = {0.9, 0.8};
  ne.start_time = 1000;
  ne.end_time = 2000;
  ne.magnitude = 42.5;
  ne.support = 17;
  r.news_events.push_back(ne);

  event::Event te;
  te.main_word = "brexit";
  te.related_words = {"leave"};
  te.related_weights = {0.75};
  te.start_time = 1500;
  te.end_time = 2500;
  r.twitter_events.push_back(te);

  r.trending.push_back({3, 0, 0.88});
  r.correlations.push_back({0, 0, 0.72});
  return r;
}

Status SaveAllStages(const PipelineResult& result, store::Database& db) {
  for (const char* stage : kStageNames) {
    NEWSDIFF_RETURN_IF_ERROR(SaveStageOutput(stage, result, db));
  }
  return Status::OK();
}

StatusOr<PipelineResult> LoadAllStages(const store::Database& db) {
  PipelineResult result;
  for (const char* stage : kStageNames) {
    NEWSDIFF_RETURN_IF_ERROR(LoadStageOutput(stage, db, &result));
  }
  return result;
}

TEST(CheckpointTest, SaveLoadRoundTrip) {
  PipelineResult result = MakeResult();
  store::Database db;
  ASSERT_TRUE(SaveAllStages(result, db).ok());

  auto loaded = LoadAllStages(db);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->topics.size(), 1u);
  EXPECT_EQ(loaded->topics[0].id, 3u);
  EXPECT_EQ(loaded->topics[0].keywords,
            (std::vector<std::string>{"brexit", "vote"}));
  EXPECT_DOUBLE_EQ(loaded->topics[0].weights[0], 0.9);

  ASSERT_EQ(loaded->news_events.size(), 1u);
  const event::Event& ne = loaded->news_events[0];
  EXPECT_EQ(ne.main_word, "election");
  EXPECT_EQ(ne.related_words, (std::vector<std::string>{"vote", "poll"}));
  EXPECT_EQ(ne.start_time, 1000);
  EXPECT_EQ(ne.end_time, 2000);
  EXPECT_DOUBLE_EQ(ne.magnitude, 42.5);
  EXPECT_EQ(ne.support, 17u);

  ASSERT_EQ(loaded->twitter_events.size(), 1u);
  EXPECT_EQ(loaded->twitter_events[0].main_word, "brexit");

  ASSERT_EQ(loaded->trending.size(), 1u);
  EXPECT_EQ(loaded->trending[0].topic_id, 3u);
  EXPECT_DOUBLE_EQ(loaded->trending[0].similarity, 0.88);

  ASSERT_EQ(loaded->correlations.size(), 1u);
  EXPECT_DOUBLE_EQ(loaded->correlations[0].similarity, 0.72);
}

TEST(CheckpointTest, SaveReplacesPreviousCheckpoint) {
  PipelineResult first = MakeResult();
  store::Database db;
  ASSERT_TRUE(SaveAllStages(first, db).ok());

  PipelineResult second = MakeResult();
  second.topics[0].keywords = {"huawei"};
  second.news_events.push_back(second.news_events[0]);
  ASSERT_TRUE(SaveAllStages(second, db).ok());

  auto loaded = LoadAllStages(db);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->topics.size(), 1u);
  EXPECT_EQ(loaded->topics[0].keywords,
            (std::vector<std::string>{"huawei"}));
  EXPECT_EQ(loaded->news_events.size(), 2u);
}

TEST(CheckpointTest, LoadWithoutCheckpointFails) {
  store::Database db;
  PipelineResult result;
  Status loaded = LoadStageOutput("topics", db, &result);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.code(), StatusCode::kNotFound);
}

TEST(CheckpointTest, SurvivesDiskRoundTrip) {
  namespace fs = std::filesystem;
  PipelineResult result = MakeResult();
  store::Database db;
  ASSERT_TRUE(SaveAllStages(result, db).ok());
  fs::path dir = fs::temp_directory_path() / "newsdiff_ckpt_test";
  fs::remove_all(dir);
  ASSERT_TRUE(db.SaveToDir(dir.string()).ok());

  store::Database restored;
  ASSERT_TRUE(restored.LoadFromDir(dir.string()).ok());
  auto loaded = LoadAllStages(restored);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->news_events[0].main_word, "election");
  fs::remove_all(dir);
}

}  // namespace
}  // namespace newsdiff::core
