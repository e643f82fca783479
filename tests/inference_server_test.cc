// Tests for the serving model and the inference server
// (serve/inference_server.*): input rejections, bitwise agreement with the
// unpacked model's own forward pass, batch invariance, and model swaps
// racing callers; and for the index-derived features the serving model is
// trained on (serve/features.*). The Inference*/InferenceConcurrency*
// suites run under the sanitizer CI jobs (the `Inference` name regex).
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/bitwise.h"
#include "common/rng.h"
#include "common/status.h"
#include "corpus/corpus.h"
#include "index/index.h"
#include "la/matrix.h"
#include "nn/architectures.h"
#include "serve/features.h"
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

std::shared_ptr<ServingModel> Served(uint64_t seed = 41) {
  return std::make_shared<ServingModel>(TestModel(seed));
}

/// The current model an InferenceServer reads, swapped the way the Engine
/// swaps its serving generation.
struct CurrentModel {
  std::shared_ptr<ServingModel> Get() {
    std::lock_guard<std::mutex> lock(mu);
    return model;
  }
  void Set(std::shared_ptr<ServingModel> next) {
    std::lock_guard<std::mutex> lock(mu);
    model = std::move(next);
  }
  std::mutex mu;
  std::shared_ptr<ServingModel> model;
};

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
    EXPECT_PRED2(SameBits, g[c], w[c]) << "row " << got_row << " col " << c;
  }
}

TEST(InferenceServerTest, RejectsBeforeModelLoaded) {
  InferenceServer server([] { return std::shared_ptr<ServingModel>(); });
  auto result = server.Predict(RandomFeatures(1, 1));
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST(InferenceServerTest, RejectsMismatchedFeatureWidth) {
  ServingModel model(TestModel());
  la::Matrix narrow(1, kDim - 1);
  EXPECT_EQ(model.Predict(narrow).status().code(),
            StatusCode::kInvalidArgument);
}

// The served answer is the model's own forward pass: the weights packed
// once at construction never change a bit.
TEST(InferenceServerTest, PredictMatchesDirectBitwise) {
  std::shared_ptr<ServingModel> model = Served();
  InferenceServer server([model] { return model; });
  nn::Model reference = TestModel();
  la::Matrix features = RandomFeatures(7, 2);
  auto served = server.Predict(features);
  ASSERT_TRUE(served.ok()) << served.status().message();
  const la::Matrix direct = reference.PredictProba(features);
  ASSERT_EQ(served->rows(), 7u);
  ASSERT_EQ(served->cols(), kClasses);
  for (size_t r = 0; r < 7; ++r) ExpectRowBitwise(*served, r, direct, r);
}

// The contract explicit batching depends on: batch-of-N row i is bitwise
// equal to the same row predicted alone, so WHAT a row is batched with
// never changes its answer.
TEST(InferenceServerTest, BatchCompositionIsBitwiseInvariant) {
  ServingModel model(TestModel());
  la::Matrix batch = RandomFeatures(9, 3);
  auto all = model.Predict(batch);
  ASSERT_TRUE(all.ok());
  for (size_t r = 0; r < batch.rows(); ++r) {
    la::Matrix one(1, kDim);
    for (size_t c = 0; c < kDim; ++c) one.RowPtr(0)[c] = batch.RowPtr(r)[c];
    auto single = model.Predict(one);
    ASSERT_TRUE(single.ok());
    ExpectRowBitwise(*all, r, *single, 0);
  }
}

// The server scores whatever model is current: a swapped-in generation,
// packed at its own construction, serves its own weights.
TEST(InferenceServerTest, ReloadSwapsGenerationAndRepacks) {
  CurrentModel current;
  current.Set(Served(41));
  InferenceServer server([&current] { return current.Get(); });
  la::Matrix features = RandomFeatures(3, 11);
  auto v1 = server.Predict(features);
  ASSERT_TRUE(v1.ok());

  current.Set(Served(99));  // different init: different outputs
  auto v2 = server.Predict(features);
  ASSERT_TRUE(v2.ok());
  EXPECT_TRUE(BitwiseEqual(*v2, TestModel(99).PredictProba(features)));
  EXPECT_FALSE(BitwiseEqual(*v1, *v2))
      << "new generation must actually serve new weights";
}

// --- Concurrency: run under tsan via the Inference regex. ---

TEST(InferenceConcurrencyTest, ConcurrentSubmittersGetConsistentAnswers) {
  ServingModel model(TestModel());

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
        auto served = model.Predict(inputs[t][i]);
        if (!served.ok() || !BitwiseEqual(*served, want[t][i])) ++mismatches;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(InferenceConcurrencyTest, HotSwapRacesInFlightBatches) {
  CurrentModel current;
  current.Set(Served(41));
  InferenceServer server([&current] { return current.Get(); });

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
    current.Set(Served(40 + version));
  }
  stop.store(true);
  for (auto& th : predictors) th.join();
  EXPECT_EQ(errors.load(), 0);
  const la::Matrix features = RandomFeatures(2, 1);
  auto last = server.Predict(features);
  ASSERT_TRUE(last.ok());
  EXPECT_TRUE(BitwiseEqual(*last, TestModel(52).PredictProba(features)));
}

// Features read back from an index's postings equal the corpus-derived
// ones bit for bit — built in memory or parsed from its serialized form —
// including a zero-term document and two terms that share a column with
// opposite signs (equal counts cancel to an all-zero row).
TEST(InferenceFeaturesTest, FeaturizeIndexMatchesFeaturizeCorpusBitwise) {
  constexpr size_t kFeatureDim = 8;
  const HashedFeaturizer featurizer(kFeatureDim);
  std::string plus, minus;  // two terms of column 0, one of each sign
  for (int i = 0; plus.empty() || minus.empty(); ++i) {
    const std::string term = "t" + std::to_string(i);
    const HashedFeaturizer::Slot slot = featurizer.SlotOf(term);
    std::string& pick = slot.sign > 0 ? plus : minus;
    if (slot.column == 0 && pick.empty()) pick = term;
  }
  corpus::Corpus corpus;
  corpus.AddDocument({});
  corpus.AddDocument({plus, plus, minus, minus});
  corpus.AddDocument({plus, plus, plus, minus, "other"});
  Rng rng(5);
  for (int d = 0; d < 200; ++d) {
    std::vector<std::string> tokens;
    for (size_t n = rng.NextBelow(12); n > 0; --n) {
      tokens.push_back("w" + std::to_string(rng.NextBelow(60)));
    }
    corpus.AddDocument(tokens);
  }
  index::IndexOptions options;
  options.block_size = 4;  // many blocks per posting list
  StatusOr<index::InvertedIndex> built =
      index::InvertedIndex::Build(corpus, options);
  ASSERT_TRUE(built.ok());
  std::string body;
  built->AppendTo(&body);
  StatusOr<index::InvertedIndex> parsed = index::InvertedIndex::Parse(body);
  ASSERT_TRUE(parsed.ok());

  const la::Matrix want = featurizer.FeaturizeCorpus(corpus);
  EXPECT_TRUE(BitwiseEqual(featurizer.FeaturizeIndex(*built), want));
  EXPECT_TRUE(BitwiseEqual(featurizer.FeaturizeIndex(*parsed), want));
  for (size_t row : {0, 1}) {
    for (size_t c = 0; c < kFeatureDim; ++c) EXPECT_EQ(want(row, c), 0.0);
  }
  EXPECT_GT(want(2, 0), 0.0);  // 3 * (+1) + 1 * (-1) in column 0
}

}  // namespace
}  // namespace newsdiff::serve
