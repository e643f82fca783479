// Tests for the inference server (serve/inference_server.*) and the
// cross-call packed-weight cache it serves from: input rejections, bitwise
// agreement with the model's own forward pass, batch invariance, cache
// reuse, and model hot-swaps racing callers. The
// Inference*/InferenceConcurrency* suites run under the sanitizer CI jobs
// (selected by the `Inference` test-name regex).
#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "common/rng.h"
#include "common/status.h"
#include "la/matrix.h"
#include "nn/architectures.h"
#include "serve/inference_server.h"

namespace newsdiff::serve {
namespace {

constexpr size_t kDim = 16;
constexpr size_t kClasses = 3;

nn::Model TestModel(uint64_t seed = 41) {
  nn::MlpConfig config;
  config.input_size = kDim;
  config.hidden_sizes = {12, 8};
  config.num_classes = kClasses;
  config.seed = seed;
  return nn::BuildMlp(config);
}

la::Matrix RandomFeatures(size_t rows, uint64_t seed) {
  la::Matrix m(rows, kDim);
  Rng rng(seed);
  for (double& v : m.data()) v = rng.Uniform(-1.0, 1.0);
  return m;
}

void ExpectRowBitwise(const la::Matrix& got, size_t got_row,
                      const la::Matrix& want, size_t want_row) {
  ASSERT_EQ(got.cols(), want.cols());
  const double* g = got.RowPtr(got_row);
  const double* w = want.RowPtr(want_row);
  for (size_t c = 0; c < got.cols(); ++c) {
    EXPECT_EQ(g[c], w[c]) << "row " << got_row << " col " << c;
  }
}

bool Bitwise(const la::Matrix& a, const la::Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() && a.data() == b.data();
}

TEST(InferenceServerTest, RejectsBeforeModelLoaded) {
  InferenceServer server{Parallelism{}};
  EXPECT_FALSE(server.has_model());
  EXPECT_EQ(server.model_version(), 0u);
  auto result = server.Predict(RandomFeatures(1, 1));
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST(InferenceServerTest, RejectsMismatchedFeatureWidth) {
  InferenceServer server{Parallelism{}};
  server.LoadModel(TestModel(), 1);
  la::Matrix narrow(1, kDim - 1);
  EXPECT_EQ(server.Predict(narrow).status().code(),
            StatusCode::kInvalidArgument);
}

// The served answer is the model's own forward pass: routing the dense
// layers through the packed-weight cache never changes a bit.
TEST(InferenceServerTest, PredictMatchesDirectBitwise) {
  InferenceServer server{Parallelism{}};
  server.LoadModel(TestModel(), 1);
  nn::Model reference = TestModel();
  la::Matrix features = RandomFeatures(7, 2);
  uint64_t version = 0;
  auto served = server.Predict(features, &version);
  ASSERT_TRUE(served.ok()) << served.status().message();
  EXPECT_EQ(version, 1u);
  const la::Matrix direct = reference.PredictProba(features);
  ASSERT_EQ(served->rows(), 7u);
  ASSERT_EQ(served->cols(), kClasses);
  for (size_t r = 0; r < 7; ++r) ExpectRowBitwise(*served, r, direct, r);
  const InferenceServerStats stats = server.stats();
  EXPECT_EQ(stats.forward_passes, 1u);
  EXPECT_EQ(stats.rows, 7u);
}

// The contract explicit batching depends on: batch-of-N row i is bitwise
// equal to the same row predicted alone, so WHAT a row is batched with
// never changes its answer.
TEST(InferenceServerTest, BatchCompositionIsBitwiseInvariant) {
  InferenceServer server{Parallelism{}};
  server.LoadModel(TestModel(), 1);
  la::Matrix batch = RandomFeatures(9, 3);
  auto all = server.Predict(batch);
  ASSERT_TRUE(all.ok());
  for (size_t r = 0; r < batch.rows(); ++r) {
    la::Matrix one(1, kDim);
    for (size_t c = 0; c < kDim; ++c) one.RowPtr(0)[c] = batch.RowPtr(r)[c];
    auto single = server.Predict(one);
    ASSERT_TRUE(single.ok());
    ExpectRowBitwise(*all, r, *single, 0);
  }
}

TEST(InferenceServerTest, PackedCacheHitsAfterWarmup) {
  InferenceServer server{Parallelism{}};
  server.LoadModel(TestModel(), 1);  // warmup forward packs every layer
  const la::WeightCacheStats before = server.cache_stats();
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(server.Predict(RandomFeatures(2, 10 + i)).ok());
  }
  const la::WeightCacheStats after = server.cache_stats();
  EXPECT_GT(after.hits, before.hits);
  EXPECT_EQ(after.misses, before.misses)
      << "serving traffic must never re-pack an installed generation";
}

TEST(InferenceServerTest, ReloadSwapsGenerationAndRepacks) {
  InferenceServer server{Parallelism{}};
  server.LoadModel(TestModel(41), 1);
  la::Matrix features = RandomFeatures(3, 11);
  auto v1 = server.Predict(features);
  ASSERT_TRUE(v1.ok());
  EXPECT_EQ(server.model_version(), 1u);

  server.LoadModel(TestModel(99), 2);  // different init: different outputs
  EXPECT_EQ(server.model_version(), 2u);
  EXPECT_GE(server.cache_stats().swaps, 1u);
  auto v2 = server.Predict(features);
  ASSERT_TRUE(v2.ok());
  bool any_diff = false;
  for (size_t i = 0; i < v1->size(); ++i) {
    if (v1->data()[i] != v2->data()[i]) any_diff = true;
  }
  EXPECT_TRUE(any_diff) << "new generation must actually serve new weights";
  EXPECT_EQ(server.stats().model_swaps, 2u);
}

// --- Concurrency: run under tsan via the Inference regex. ---

TEST(InferenceConcurrencyTest, ConcurrentSubmittersGetConsistentAnswers) {
  InferenceServer server{Parallelism{}};
  server.LoadModel(TestModel(), 1);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 25;
  nn::Model reference = TestModel();
  std::vector<std::vector<la::Matrix>> inputs(kThreads), want(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      inputs[t].push_back(RandomFeatures(1 + (i % 3), 100 + t * 1000 + i));
      want[t].push_back(reference.PredictProba(inputs[t].back()));
    }
  }
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        auto served = server.Predict(inputs[t][i]);
        if (!served.ok() || !Bitwise(*served, want[t][i])) ++mismatches;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(server.stats().forward_passes,
            static_cast<uint64_t>(kThreads * kPerThread));
}

TEST(InferenceConcurrencyTest, HotSwapRacesInFlightBatches) {
  InferenceServer server{Parallelism{}};
  server.LoadModel(TestModel(41), 1);

  std::atomic<bool> stop{false};
  std::atomic<int> errors{0};
  std::vector<std::thread> predictors;
  for (int t = 0; t < 3; ++t) {
    predictors.emplace_back([&, t] {
      int i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        auto result = server.Predict(RandomFeatures(2, 500 + t * 1000 + i++));
        // Every outcome must be OK: same input width across generations,
        // so a swap mid-flight is invisible to correctness.
        if (!result.ok()) ++errors;
      }
    });
  }
  for (uint64_t version = 2; version <= 12; ++version) {
    server.LoadModel(TestModel(40 + version), version);
  }
  stop.store(true);
  for (auto& th : predictors) th.join();
  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(server.model_version(), 12u);
  EXPECT_GE(server.cache_stats().swaps, 1u);
}

// The version Predict reports is the generation that produced the answer,
// even while LoadModel swaps generations under the callers.
TEST(InferenceConcurrencyTest, ReportedVersionNamesTheGenerationThatScored) {
  constexpr uint64_t kGenerations = 12;
  constexpr int kCallers = 3;
  const la::Matrix features = RandomFeatures(4, 7);
  std::map<uint64_t, la::Matrix> want;
  for (uint64_t v = 1; v <= kGenerations; ++v) {
    want[v] = TestModel(40 + v).PredictProba(features);
  }

  InferenceServer server{Parallelism{}};
  server.LoadModel(TestModel(41), 1);
  std::atomic<bool> stop{false};
  std::atomic<int> mismatches{0};
  std::atomic<int> calls{0};
  std::array<std::atomic<int>, kGenerations + 1> seen{};
  std::vector<std::thread> callers;
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        uint64_t version = 0;
        auto served = server.Predict(features, &version);
        auto expected = want.find(version);
        if (!served.ok() || expected == want.end() ||
            !Bitwise(*served, expected->second)) {
          ++mismatches;
        } else {
          ++seen[version];
        }
        ++calls;
      }
    });
  }
  // Of the next n completions at most kCallers began before the wait, so
  // n > kCallers guarantees a call that started on the newest generation.
  const auto wait_for_calls = [&](int n) {
    const int target = calls.load() + n;
    while (calls.load() < target) std::this_thread::yield();
  };
  wait_for_calls(kCallers + 1);
  for (uint64_t v = 2; v <= kGenerations; ++v) {
    server.LoadModel(TestModel(40 + v), v);
    wait_for_calls(kCallers + 1);
  }
  stop.store(true);
  for (auto& th : callers) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  for (uint64_t v = 1; v <= kGenerations; ++v) {
    EXPECT_GT(seen[v].load(), 0) << "no call scored on generation " << v;
  }
}

}  // namespace
}  // namespace newsdiff::serve
