// Concurrency tests for the Engine serving path: multi-threaded
// QueryTrending / PredictInterest racing BuildIndex and LoadIndex
// generation swaps, and concurrent model-scored predictions against
// single-threaded answers. These are the suites the tsan CI job runs
// (regex `EngineConcurrency`) — the snapshot-swap in core/engine.cc is
// exactly the code TSan must see under real thread interleavings.
#include <atomic>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/bitwise.h"
#include "core/engine.h"
#include "datagen/world.h"
#include "index/index.h"
#include "store/database.h"

namespace newsdiff {
namespace {

namespace fs = std::filesystem;

/// Bitwise equality of two answers; failures compare by code.
bool SameAnswer(const StatusOr<InterestPrediction>& got,
                const StatusOr<InterestPrediction>& want) {
  if (got.ok() != want.ok()) return false;
  if (!want.ok()) return got.status().code() == want.status().code();
  bool same = got->model_reranked && got->generation == want->generation &&
              BitwiseEqual(got->class_weights, want->class_weights) &&
              got->neighbors.size() == want->neighbors.size();
  for (size_t n = 0; same && n < want->neighbors.size(); ++n) {
    same = got->neighbors[n].doc == want->neighbors[n].doc &&
           SameBits(got->neighbors[n].model_score,
                    want->neighbors[n].model_score);
  }
  return same;
}

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
  std::atomic<bool> writer_done{false};
  std::atomic<uint64_t> ops{0};
  std::atomic<uint64_t> failures{0};
  std::atomic<uint64_t> empty_results{0};

  // Readers keep going until every swap has landed, so all kSwaps race
  // live traffic however the threads are scheduled.
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      for (int i = 0; i < kOpsPerReader || !writer_done.load(); ++i) {
        ops.fetch_add(1);
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
    for (int s = 0; s < kSwaps; ++s) {
      EXPECT_TRUE(engine_->BuildIndex(db_).ok());
    }
    writer_done.store(true);
  });
  writer.join();
  for (std::thread& r : readers) r.join();

  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(empty_results.load(), 0u);
  const EngineStatsSnapshot stats = engine_->stats();
  EXPECT_EQ(stats.index_swaps, 1u + kSwaps);  // initial build + rebuilds
  EXPECT_EQ(stats.serving_errors, 0u);
  EXPECT_EQ(stats.trending_queries + stats.interest_predictions, ops.load());
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
          if (!SameAnswer(engine_->PredictInterest(drafts[i], 10), want[i])) {
            mismatches.fetch_add(1);
          }
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

// LoadIndex re-derives each generation's model while predictions run: every
// answer, single or batched, equals the single-threaded answer of the
// generation it names. Generations alternate between two worlds, and the
// loader walks them newest to oldest by deleting the newest file.
TEST_F(EngineConcurrencyFixture,
       LoadIndexRacesPredictionsAndEachAnswerMatchesItsGeneration) {
  constexpr uint64_t kGenerations = 4;
  constexpr int kCallers = 3;
  const fs::path dir = fs::temp_directory_path() / "newsdiff_engine_loadrace";
  fs::remove_all(dir);
  EngineOptions options;
  options.index_dir = dir.string();
  options.index_retain = kGenerations;
  // Same seed, fewer tweets: the same planted events, a different model.
  datagen::WorldOptions world_options;
  world_options.num_articles = 200;
  world_options.num_tweets = 500;
  world_options.num_users = 120;
  store::Database other;
  datagen::GenerateWorld(world_options).LoadInto(other);

  std::vector<std::string> drafts;
  for (const datagen::PlantedEvent& e : world_.events) {
    if (e.keywords.size() >= 2) {
      drafts.push_back(e.keywords[0] + " " + e.keywords[1]);
    }
  }
  std::map<uint64_t, std::vector<StatusOr<InterestPrediction>>> want;
  {
    Engine writer(options);
    for (uint64_t g = 1; g <= kGenerations; ++g) {
      ASSERT_TRUE(writer.BuildIndex(g % 2 == 1 ? db_ : other).ok());
      for (const std::string& d : drafts) {
        want[g].push_back(writer.PredictInterest(d, 10));
        ASSERT_TRUE(want[g].back().ok()) << d;
      }
    }
  }

  Engine reader(options);
  ASSERT_TRUE(reader.LoadIndex().ok());
  std::atomic<bool> loader_done{false};
  std::atomic<int> calls{0};
  std::atomic<uint64_t> mismatches{0};
  std::vector<std::atomic<uint64_t>> seen(kGenerations + 1);
  auto check = [&](const StatusOr<InterestPrediction>& got, size_t i) {
    const uint64_t g = got.ok() ? got->generation : 0;
    if (g >= 1 && g <= kGenerations && SameAnswer(got, want.at(g)[i])) {
      seen[g].fetch_add(1);
    } else {
      mismatches.fetch_add(1);
    }
  };
  std::vector<std::thread> callers;
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&, t] {
      do {
        for (size_t i = 0; i < drafts.size(); ++i) {
          check(reader.PredictInterest(drafts[i], 10), i);
          calls.fetch_add(1);
        }
        if (t == 0) {
          const std::vector<StatusOr<InterestPrediction>> batch =
              reader.PredictInterestBatch(drafts, 10);
          for (size_t i = 0; i < batch.size(); ++i) check(batch[i], i);
        }
      } while (!loader_done.load());
    });
  }
  // Of the next n completed calls at most kCallers began before the wait,
  // so n > kCallers guarantees a call on the newest generation.
  const auto wait_for_calls = [&](int n) {
    const int target = calls.load() + n;
    while (calls.load() < target) std::this_thread::yield();
  };
  for (uint64_t g = kGenerations; g > 1; --g) {
    wait_for_calls(kCallers + 1);
    fs::remove(dir / index::IndexFileName(g));
    StatusOr<index::IndexLoadReport> loaded = reader.LoadIndex();
    EXPECT_TRUE(loaded.ok() && loaded->generation == g - 1);
  }
  wait_for_calls(kCallers + 1);
  loader_done.store(true);
  for (std::thread& c : callers) c.join();
  fs::remove_all(dir);

  EXPECT_EQ(mismatches.load(), 0u);
  for (uint64_t g = 1; g <= kGenerations; ++g) {
    EXPECT_GT(seen[g].load(), 0u) << "no answer from generation " << g;
  }
  EXPECT_EQ(reader.stats().index_swaps, kGenerations);
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
