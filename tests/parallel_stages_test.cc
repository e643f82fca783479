// Bitwise serial-vs-parallel equality for every stage wired to the
// deterministic execution layer (common/parallel.h). These are the
// contract tests behind DESIGN.md "Parallel execution": `threads` must
// never change a result, and sharded-semantics stages must depend only on
// the resolved shard count.

#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/bitwise.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/time.h"
#include "embed/pvdbow.h"
#include "event/mabed.h"
#include "la/matrix.h"
#include "la/sparse.h"
#include "nn/architectures.h"
#include "nn/model.h"
#include "nn/optimizer.h"
#include "topic/nmf.h"

namespace newsdiff {
namespace {

la::Matrix RandomMatrix(size_t rows, size_t cols, uint64_t seed) {
  la::Matrix m(rows, cols);
  Rng rng(seed);
  for (double& v : m.data()) v = rng.Uniform(-2.0, 2.0);
  return m;
}

la::CsrMatrix RandomCsr(size_t rows, size_t cols, double density,
                        uint64_t seed) {
  Rng rng(seed);
  std::vector<la::Triplet> triplets;
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      if (rng.NextDouble() < density) {
        triplets.push_back({static_cast<uint32_t>(r),
                            static_cast<uint32_t>(c), rng.NextDouble()});
      }
    }
  }
  return la::CsrMatrix::FromTriplets(rows, cols, triplets);
}

const Parallelism kPar4{.threads = 4};

TEST(ParallelStagesLa, MatMulBitwiseEqualToSerial) {
  la::Matrix a = RandomMatrix(37, 23, 1);
  la::Matrix b = RandomMatrix(23, 19, 2);
  EXPECT_TRUE(BitwiseEqual(la::MatMul(a, b), la::MatMul(a, b, kPar4)));
}

TEST(ParallelStagesLa, MatMulTransABitwiseEqualToSerial) {
  la::Matrix a = RandomMatrix(31, 17, 3);
  la::Matrix b = RandomMatrix(31, 13, 4);
  EXPECT_TRUE(
      BitwiseEqual(la::MatMulTransA(a, b), la::MatMulTransA(a, b, kPar4)));
}

TEST(ParallelStagesLa, MatMulTransBBitwiseEqualToSerial) {
  la::Matrix a = RandomMatrix(29, 21, 5);
  la::Matrix b = RandomMatrix(11, 21, 6);
  EXPECT_TRUE(
      BitwiseEqual(la::MatMulTransB(a, b), la::MatMulTransB(a, b, kPar4)));
}

// The fused multiplicative update, including NaN, -0.0 and +-inf inputs:
// equal bytes at 1 and 4 threads, through repeated updates.
TEST(ParallelStagesLa, ElementwiseOpsBitwiseEqualToSerial) {
  la::Matrix serial = RandomMatrix(13, 41, 7);
  la::Matrix num = RandomMatrix(13, 41, 8);
  la::Matrix den = RandomMatrix(13, 41, 9);
  serial(0, 0) = std::numeric_limits<double>::quiet_NaN();
  serial(1, 5) = -0.0;
  num(2, 7) = std::numeric_limits<double>::infinity();
  den(3, 9) = -std::numeric_limits<double>::infinity();
  den(4, 11) = 0.0;
  la::Matrix parallel = serial;
  for (int round = 0; round < 3; ++round) {
    serial.MultiplicativeUpdate(num, den, 1e-9, 1e-8);
    parallel.MultiplicativeUpdate(num, den, 1e-9, 1e-8, kPar4);
    ASSERT_EQ(std::memcmp(serial.data().data(), parallel.data().data(),
                          serial.size() * sizeof(double)),
              0)
        << "round " << round;
  }
}

TEST(ParallelStagesLa, CsrMultiplyDenseBitwiseEqualToSerial) {
  la::CsrMatrix a = RandomCsr(64, 48, 0.15, 9);
  la::Matrix d = RandomMatrix(48, 10, 10);
  EXPECT_TRUE(BitwiseEqual(a.MultiplyDense(d), a.MultiplyDense(d, kPar4)));
  la::Matrix dt = RandomMatrix(10, 48, 11);
  EXPECT_TRUE(BitwiseEqual(a.MultiplyDenseTransposed(dt),
                           a.MultiplyDenseTransposed(dt, kPar4)));
}

TEST(ParallelStagesLa, TransposedGatherBitwiseEqualToScatter) {
  // The NMF parallelization hinges on this: the row-partitionable gather
  // Transposed().MultiplyDense must accumulate each output element in the
  // exact order of the serial scatter TransposeMultiplyDense.
  la::CsrMatrix a = RandomCsr(80, 55, 0.2, 12);
  la::Matrix d = RandomMatrix(80, 9, 13);
  la::Matrix scatter = a.TransposeMultiplyDense(d);
  la::Matrix gather = a.Transposed().MultiplyDense(d, kPar4);
  EXPECT_TRUE(BitwiseEqual(scatter, gather));
}

TEST(ParallelStagesNmf, FactorisationBitwiseEqualToSerial) {
  la::CsrMatrix a = RandomCsr(120, 60, 0.1, 14);
  topic::NmfOptions serial_opts;
  serial_opts.components = 6;
  serial_opts.max_iterations = 30;
  serial_opts.seed = 5;
  topic::NmfOptions parallel_opts = serial_opts;
  parallel_opts.parallelism = kPar4;

  auto serial = topic::Nmf(a, serial_opts);
  auto parallel = topic::Nmf(a, parallel_opts);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(parallel.ok());
  EXPECT_TRUE(BitwiseEqual(serial->w, parallel->w));
  EXPECT_TRUE(BitwiseEqual(serial->h, parallel->h));
  EXPECT_EQ(serial->iterations, parallel->iterations);
  EXPECT_EQ(serial->objective_history, parallel->objective_history);
}

corpus::Corpus BurstCorpus(uint64_t seed) {
  Rng rng(seed);
  corpus::Corpus corp;
  const char* background[] = {"alpha", "beta", "gamma", "delta",
                              "epsilon", "zeta", "eta", "theta"};
  const UnixSeconds day = kSecondsPerDay;
  for (int i = 0; i < 300; ++i) {
    std::vector<std::string> doc;
    for (int w = 0; w < 8; ++w) doc.push_back(background[rng.NextBelow(8)]);
    corp.AddDocument(doc, static_cast<int64_t>(rng.NextBelow(20 * day)));
  }
  for (int i = 0; i < 100; ++i) {
    std::vector<std::string> doc = {"quake", "rescue", "aftershock"};
    for (int w = 0; w < 4; ++w) doc.push_back(background[rng.NextBelow(8)]);
    corp.AddDocument(doc,
                     5 * day + static_cast<int64_t>(rng.NextBelow(3 * day)));
  }
  return corp;
}

TEST(ParallelStagesMabed, EventsBitwiseEqualToSerial) {
  corpus::Corpus corp = BurstCorpus(17);
  event::MabedOptions serial_opts;
  serial_opts.time_slice_seconds = 6 * kSecondsPerHour;
  serial_opts.max_events = 5;
  serial_opts.min_main_doc_freq = 5;
  serial_opts.min_support = 10;
  event::MabedOptions parallel_opts = serial_opts;
  parallel_opts.parallelism = kPar4;

  auto serial = event::Mabed(serial_opts).Detect(corp);
  auto parallel = event::Mabed(parallel_opts).Detect(corp);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(parallel.ok());
  ASSERT_EQ(serial->size(), parallel->size());
  ASSERT_FALSE(serial->empty());
  for (size_t i = 0; i < serial->size(); ++i) {
    const event::Event& s = (*serial)[i];
    const event::Event& p = (*parallel)[i];
    EXPECT_EQ(s.main_word, p.main_word);
    EXPECT_EQ(s.start_slice, p.start_slice);
    EXPECT_EQ(s.end_slice, p.end_slice);
    EXPECT_EQ(s.support, p.support);
    EXPECT_TRUE(SameBits(s.magnitude, p.magnitude));
    EXPECT_EQ(s.related_words, p.related_words);
    EXPECT_EQ(s.related_terms, p.related_terms);
    EXPECT_TRUE(BitwiseEqual(s.related_weights, p.related_weights));
  }
}

std::vector<std::vector<std::string>> PvDocs(uint64_t seed) {
  Rng rng(seed);
  const char* words[] = {"game", "goal", "team", "vote", "poll", "party",
                         "stock", "market", "trade", "rain", "storm", "wind"};
  std::vector<std::vector<std::string>> docs;
  for (int d = 0; d < 48; ++d) {
    std::vector<std::string> doc;
    size_t theme = static_cast<size_t>(d % 4) * 3;
    for (int w = 0; w < 24; ++w) {
      doc.push_back(words[theme + rng.NextBelow(3)]);
    }
    docs.push_back(std::move(doc));
  }
  return docs;
}

TEST(ParallelStagesPvDbow, ShardedResultIndependentOfThreadCount) {
  auto docs = PvDocs(19);
  embed::PvDbowOptions base;
  base.dimension = 16;
  base.epochs = 3;
  base.min_count = 1;
  base.parallelism = {.threads = 1, .shards = 4};
  embed::PvDbowOptions threaded = base;
  threaded.parallelism.threads = 4;

  auto one = embed::TrainPvDbow(docs, base);
  auto four = embed::TrainPvDbow(docs, threaded);
  ASSERT_TRUE(one.ok());
  ASSERT_TRUE(four.ok());
  EXPECT_TRUE(BitwiseEqual(one->doc_vectors, four->doc_vectors));
}

TEST(ParallelStagesPvDbow, SingleShardMatchesLegacySequential) {
  auto docs = PvDocs(21);
  embed::PvDbowOptions legacy;
  legacy.dimension = 16;
  legacy.epochs = 2;
  legacy.min_count = 1;
  embed::PvDbowOptions pinned = legacy;
  pinned.parallelism = {.threads = 8, .shards = 1};  // threaded, 1 shard

  auto a = embed::TrainPvDbow(docs, legacy);
  auto b = embed::TrainPvDbow(docs, pinned);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(BitwiseEqual(a->doc_vectors, b->doc_vectors));
}

void MakeBlobs(size_t per_class, size_t classes, size_t dim, uint64_t seed,
               la::Matrix* x, std::vector<int>* y) {
  Rng rng(seed);
  x->Resize(per_class * classes, dim);
  y->assign(per_class * classes, 0);
  size_t row = 0;
  for (size_t c = 0; c < classes; ++c) {
    for (size_t i = 0; i < per_class; ++i) {
      double* out = x->RowPtr(row);
      for (size_t d = 0; d < dim; ++d) {
        out[d] = rng.Gaussian((d % classes == c) ? 3.0 : 0.0, 0.5);
      }
      (*y)[row] = static_cast<int>(c);
      ++row;
    }
  }
}

std::vector<la::Matrix> FitAndSnapshotWeights(nn::Model& model,
                                              const la::Matrix& x,
                                              const std::vector<int>& y,
                                              const Parallelism& par) {
  nn::Sgd sgd({0.1, 0.0});
  nn::FitOptions fit;
  fit.epochs = 8;
  fit.batch_size = 16;
  fit.early_stopping.enabled = false;
  fit.parallelism = par;
  auto history = model.Fit(x, y, sgd, fit);
  EXPECT_TRUE(history.ok());
  std::vector<la::Matrix> weights;
  for (const nn::Param& p : model.Parameters()) weights.push_back(*p.value);
  return weights;
}

TEST(ParallelStagesTraining, MlpWeightsBitwiseEqualAcrossThreadCounts) {
  la::Matrix x;
  std::vector<int> y;
  MakeBlobs(40, 3, 12, 23, &x, &y);
  nn::MlpConfig cfg;
  cfg.input_size = 12;
  cfg.hidden_sizes = {16, 8};

  nn::Model serial_model = nn::BuildMlp(cfg);
  nn::Model parallel_model = nn::BuildMlp(cfg);
  auto serial = FitAndSnapshotWeights(serial_model, x, y, {});
  auto parallel = FitAndSnapshotWeights(parallel_model, x, y, kPar4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_TRUE(BitwiseEqual(serial[i], parallel[i])) << "param " << i;
  }
}

TEST(ParallelStagesTraining, CnnWeightsBitwiseEqualAcrossThreadCounts) {
  la::Matrix x;
  std::vector<int> y;
  MakeBlobs(30, 3, 32, 29, &x, &y);
  nn::CnnConfig cfg;
  cfg.input_size = 32;
  cfg.filters = 4;
  cfg.kernel_size = 5;
  cfg.pool_size = 2;
  cfg.dense_size = 8;

  // Conv1D's backward regroups its batch sum per shard, so pin the shard
  // count and vary only the thread count — the contract under test.
  Parallelism pinned_serial{.threads = 1, .shards = 8};
  Parallelism pinned_threaded{.threads = 4, .shards = 8};
  nn::Model serial_model = nn::BuildCnn(cfg);
  nn::Model parallel_model = nn::BuildCnn(cfg);
  auto serial = FitAndSnapshotWeights(serial_model, x, y, pinned_serial);
  auto parallel = FitAndSnapshotWeights(parallel_model, x, y, pinned_threaded);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_TRUE(BitwiseEqual(serial[i], parallel[i])) << "param " << i;
  }
}

TEST(ParallelStagesTraining, CnnSingleShardMatchesLegacyBackward) {
  // Resolved shard count 1 must reproduce the pre-parallel accumulation
  // order exactly, i.e. default options == explicit serial.
  la::Matrix x;
  std::vector<int> y;
  MakeBlobs(20, 3, 32, 31, &x, &y);
  nn::CnnConfig cfg;
  cfg.input_size = 32;
  cfg.filters = 4;
  cfg.kernel_size = 5;
  cfg.pool_size = 2;
  cfg.dense_size = 8;

  nn::Model a = nn::BuildCnn(cfg);
  nn::Model b = nn::BuildCnn(cfg);
  auto default_weights = FitAndSnapshotWeights(a, x, y, {});
  auto pinned_weights =
      FitAndSnapshotWeights(b, x, y, {.threads = 1, .shards = 1});
  ASSERT_EQ(default_weights.size(), pinned_weights.size());
  for (size_t i = 0; i < default_weights.size(); ++i) {
    EXPECT_TRUE(BitwiseEqual(default_weights[i], pinned_weights[i]));
  }
}

}  // namespace
}  // namespace newsdiff
