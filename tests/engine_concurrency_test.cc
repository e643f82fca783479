// Concurrency tests for the Engine serving path: multi-threaded
// QueryTrending / PredictInterest racing BuildIndex generation swaps, and
// concurrent model-scored predictions against single-threaded answers.
// These are the suites the tsan CI job runs (regex `EngineConcurrency`) —
// the snapshot-swap in core/engine.cc is exactly the code TSan must see
// under real thread interleavings.
#include <atomic>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "datagen/world.h"
#include "store/database.h"

namespace newsdiff {
namespace {

class EngineConcurrencyFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    datagen::WorldOptions world_options;
    world_options.num_articles = 200;
    world_options.num_tweets = 600;
    world_options.num_users = 120;
    world_ = datagen::GenerateWorld(world_options);
    world_.LoadInto(db_);
    engine_.emplace(EngineOptions{});
    ASSERT_TRUE(engine_->BuildIndex(db_).ok());
  }

  /// A query built from a planted event's burst keywords: guaranteed to
  /// match both corpora in every generation.
  std::string EventQuery() const {
    for (const datagen::PlantedEvent& e : world_.events) {
      if (!e.chatter && e.keywords.size() >= 2) {
        return e.keywords[0] + " " + e.keywords[1];
      }
    }
    return "market";
  }

  datagen::World world_;
  store::Database db_;
  std::optional<Engine> engine_;
};

TEST_F(EngineConcurrencyFixture, QueriesRaceIndexSwapsWithoutFailures) {
  const std::string query = EventQuery();
  constexpr int kReaders = 4;
  constexpr int kOpsPerReader = 150;
  constexpr int kSwaps = 4;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> failures{0};
  std::atomic<uint64_t> empty_results{0};

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      for (int i = 0; i < kOpsPerReader; ++i) {
        if ((i + t) % 2 == 0) {
          StatusOr<std::vector<QueryHit>> hits =
              engine_->QueryTrending(query, 5);
          if (!hits.ok()) {
            failures.fetch_add(1);
          } else if (hits->empty()) {
            empty_results.fetch_add(1);
          }
        } else {
          StatusOr<InterestPrediction> prediction =
              engine_->PredictInterest(query, 5);
          // NotFound would mean a swap exposed an empty generation.
          if (!prediction.ok()) failures.fetch_add(1);
        }
      }
    });
  }
  std::thread writer([&] {
    for (int s = 0; s < kSwaps && !stop.load(); ++s) {
      ASSERT_TRUE(engine_->BuildIndex(db_).ok());
    }
  });
  for (std::thread& r : readers) r.join();
  stop.store(true);
  writer.join();

  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(empty_results.load(), 0u);
  const EngineStatsSnapshot stats = engine_->stats();
  // Initial build + at least one concurrent rebuild.
  EXPECT_GE(stats.index_swaps, 2u);
  EXPECT_EQ(stats.serving_errors, 0u);
  EXPECT_EQ(stats.trending_queries + stats.interest_predictions,
            static_cast<uint64_t>(kReaders) * kOpsPerReader);
}

// With the model live, concurrent PredictInterest callers get exactly the
// single-threaded answer, and every call is counted as a model prediction.
TEST_F(EngineConcurrencyFixture, ConcurrentPredictionsMatchSingleThreaded) {
  constexpr size_t kMaxDrafts = 8;
  std::vector<std::string> drafts;
  std::vector<InterestPrediction> want;
  for (const datagen::PlantedEvent& e : world_.events) {
    if (drafts.size() >= kMaxDrafts) break;
    if (e.keywords.size() < 2) continue;
    const std::string draft = e.keywords[0] + " " + e.keywords[1];
    StatusOr<InterestPrediction> p = engine_->PredictInterest(draft, 10);
    if (!p.ok()) continue;
    ASSERT_TRUE(p->model_reranked);
    drafts.push_back(draft);
    want.push_back(std::move(*p));
  }
  ASSERT_FALSE(drafts.empty());

  const EngineStatsSnapshot before = engine_->stats();
  constexpr int kThreads = 4;
  constexpr int kRounds = 5;
  std::atomic<uint64_t> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int round = 0; round < kRounds; ++round) {
        for (size_t i = 0; i < drafts.size(); ++i) {
          StatusOr<InterestPrediction> got =
              engine_->PredictInterest(drafts[i], 10);
          bool same = got.ok() && got->model_reranked &&
                      got->class_weights == want[i].class_weights &&
                      got->model_version == want[i].model_version &&
                      got->neighbors.size() == want[i].neighbors.size();
          for (size_t n = 0; same && n < want[i].neighbors.size(); ++n) {
            same = got->neighbors[n].doc == want[i].neighbors[n].doc;
          }
          if (!same) mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0u);
  const EngineStatsSnapshot after = engine_->stats();
  const uint64_t calls = static_cast<uint64_t>(kThreads) * kRounds *
                         static_cast<uint64_t>(drafts.size());
  EXPECT_EQ(after.interest_predictions - before.interest_predictions, calls);
  EXPECT_EQ(after.model_predictions - before.model_predictions, calls);
  EXPECT_EQ(after.inference_batches - before.inference_batches, calls);
  EXPECT_EQ(after.serving_errors, before.serving_errors);
}

TEST_F(EngineConcurrencyFixture, SnapshotPinsItsGenerationAcrossSwaps) {
  std::shared_ptr<const Engine::IndexMap> pinned = engine_->IndexSnapshot();
  ASSERT_NE(pinned->find("news"), pinned->end());
  const index::InvertedIndex& old_news = pinned->at("news");
  const uint64_t old_docs = old_news.num_docs();

  // Two swaps retire the pinned generation from the engine's point of
  // view; the snapshot must keep it fully usable.
  ASSERT_TRUE(engine_->BuildIndex(db_).ok());
  ASSERT_TRUE(engine_->BuildIndex(db_).ok());
  std::shared_ptr<const Engine::IndexMap> current = engine_->IndexSnapshot();
  EXPECT_NE(pinned.get(), current.get());

  EXPECT_EQ(old_news.num_docs(), old_docs);
  const std::vector<index::SearchResult> hits =
      old_news.TopK({"market", "trade"}, 3);
  EXPECT_LE(hits.size(), 3u);  // no crash, coherent answer
}

TEST_F(EngineConcurrencyFixture, StatsHookCountsConcurrentTraffic) {
  const std::string query = EventQuery();
  const EngineStatsSnapshot before = engine_->stats();
  constexpr int kThreads = 4;
  constexpr int kOps = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kOps; ++i) {
        ASSERT_TRUE(engine_->QueryTrending(query, 3).ok());
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const EngineStatsSnapshot after = engine_->stats();
  EXPECT_EQ(after.trending_queries - before.trending_queries,
            static_cast<uint64_t>(kThreads) * kOps);
  EXPECT_GT(after.docs_scored, before.docs_scored);
  EXPECT_EQ(after.serving_errors, before.serving_errors);
}

TEST_F(EngineConcurrencyFixture, ColdEngineServesFailedPreconditionSafely) {
  Engine cold{EngineOptions{}};
  std::vector<std::thread> threads;
  std::atomic<uint64_t> wrong_status{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 50; ++i) {
        StatusOr<std::vector<QueryHit>> hits = cold.QueryTrending("x", 3);
        if (hits.ok() ||
            hits.status().code() != StatusCode::kFailedPrecondition) {
          wrong_status.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(wrong_status.load(), 0u);
  EXPECT_EQ(cold.stats().serving_errors, 200u);
}

}  // namespace
}  // namespace newsdiff
