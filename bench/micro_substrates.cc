// Micro-benchmarks for the substrates (google-benchmark): tokenizer
// throughput, the three §4.2 corpus builds, TFIDF matrix build, one NMF
// iteration, the refresh's two MABED detections, one Word2Vec sentence,
// dense/conv forward+backward, store insert/find.
#include <benchmark/benchmark.h>

#include "core/assignment.h"
#include "core/collection.h"
#include "core/pipeline.h"
#include "core/preprocess.h"
#include "corpus/weighting.h"
#include "embed/pvdbow.h"
#include "datagen/world.h"
#include "embed/word2vec.h"
#include "event/mabed.h"
#include "nn/architectures.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "store/database.h"
#include "store/json.h"
#include "text/pipeline.h"
#include "topic/lda.h"
#include "topic/nmf.h"

namespace {

using namespace newsdiff;

const datagen::World& SharedWorld() {
  static const datagen::World* kWorld = [] {
    datagen::WorldOptions opts;
    opts.seed = 7;
    opts.num_articles = 500;
    opts.num_tweets = 2000;
    return new datagen::World(datagen::GenerateWorld(opts));
  }();
  return *kWorld;
}

void BM_TokenizeNewsTM(benchmark::State& state) {
  const datagen::World& world = SharedWorld();
  size_t i = 0;
  size_t bytes = 0;
  for (auto _ : state) {
    const datagen::NewsArticle& art = world.articles[i % world.articles.size()];
    auto tokens = text::PreprocessNewsTM(art.body);
    benchmark::DoNotOptimize(tokens);
    bytes += art.body.size();
    ++i;
  }
  state.SetBytesProcessed(static_cast<int64_t>(bytes));
}
BENCHMARK(BM_TokenizeNewsTM);

void BM_TokenizeTwitterED(benchmark::State& state) {
  const datagen::World& world = SharedWorld();
  size_t i = 0;
  for (auto _ : state) {
    const datagen::Tweet& tw = world.tweets[i % world.tweets.size()];
    auto tokens = text::PreprocessTwitterED(tw.text);
    benchmark::DoNotOptimize(tokens);
    ++i;
  }
}
BENCHMARK(BM_TokenizeTwitterED);

// The shared world read back through the store, as BuildIndex and the
// pipeline read it.
struct SharedRecords {
  std::vector<core::NewsRecord> news;
  std::vector<core::TweetRecord> tweets;
  size_t news_bytes = 0;   // title + " " + body
  size_t tweet_bytes = 0;
};

const SharedRecords& Records() {
  static const SharedRecords* kRecords = [] {
    store::Database db;
    SharedWorld().LoadInto(db);
    auto* r = new SharedRecords{*core::LoadNews(db), *core::LoadTweets(db)};
    for (const core::NewsRecord& n : r->news) {
      r->news_bytes += n.title.size() + 1 + n.body.size();
    }
    for (const core::TweetRecord& t : r->tweets) {
      r->tweet_bytes += t.text.size();
    }
    return r;
  }();
  return *kRecords;
}

// One whole corpus build per iteration: tokenizing plus interning.
template <typename Record>
void RunCorpusBuild(benchmark::State& state,
                    corpus::Corpus (*build)(const std::vector<Record>&),
                    const std::vector<Record>& records, size_t bytes) {
  for (auto _ : state) {
    corpus::Corpus corp = build(records);
    benchmark::DoNotOptimize(corp);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * bytes));
}

void BM_BuildNewsTM(benchmark::State& state) {
  RunCorpusBuild(state, core::BuildNewsTM, Records().news,
                 Records().news_bytes);
}
BENCHMARK(BM_BuildNewsTM);

void BM_BuildNewsED(benchmark::State& state) {
  RunCorpusBuild(state, core::BuildNewsED, Records().news,
                 Records().news_bytes);
}
BENCHMARK(BM_BuildNewsED);

void BM_BuildTwitterED(benchmark::State& state) {
  RunCorpusBuild(state, core::BuildTwitterED, Records().tweets,
                 Records().tweet_bytes);
}
BENCHMARK(BM_BuildTwitterED);

corpus::Corpus BuildSmallCorpus() {
  corpus::Corpus corp;
  const datagen::World& world = SharedWorld();
  for (const datagen::NewsArticle& art : world.articles) {
    corp.AddDocument(text::PreprocessNewsTM(art.body), art.published, art.id);
  }
  return corp;
}

void BM_BuildDocumentTermMatrix(benchmark::State& state) {
  static const corpus::Corpus* kCorp = new corpus::Corpus(BuildSmallCorpus());
  for (auto _ : state) {
    auto dtm = corpus::BuildDocumentTermMatrix(*kCorp);
    benchmark::DoNotOptimize(dtm);
  }
}
BENCHMARK(BM_BuildDocumentTermMatrix);

void BM_NmfIteration(benchmark::State& state) {
  static const corpus::Corpus* kCorp = new corpus::Corpus(BuildSmallCorpus());
  static const corpus::DocumentTermMatrix* kDtm =
      new corpus::DocumentTermMatrix(
          corpus::BuildDocumentTermMatrix(*kCorp));
  const size_t k = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    topic::NmfOptions opts;
    opts.components = k;
    opts.max_iterations = 1;
    opts.eval_every = 1;
    auto result = topic::Nmf(kDtm->matrix, opts);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_NmfIteration)->Arg(8)->Arg(24);

// The refresh's two detections: PipelineOptions' news and Twitter MABED
// settings over the NewsED and TwitterED corpora of a world the size of
// perfbench's offline_refresh (1200 articles, 3500 tweets, 600 users),
// read back through the store.
struct RefreshCorpora {
  corpus::Corpus news_ed;
  corpus::Corpus twitter_ed;
};

const RefreshCorpora& RefreshWorldCorpora() {
  static const RefreshCorpora* kCorpora = [] {
    datagen::WorldOptions opts;
    opts.seed = 7;
    opts.num_articles = 1200;
    opts.num_tweets = 3500;
    opts.num_users = 600;
    store::Database db;
    datagen::GenerateWorld(opts).LoadInto(db);
    return new RefreshCorpora{core::BuildNewsED(*core::LoadNews(db)),
                              core::BuildTwitterED(*core::LoadTweets(db))};
  }();
  return *kCorpora;
}

void BM_MabedDetect(benchmark::State& state, bool twitter) {
  const core::PipelineOptions defaults;
  const RefreshCorpora& corpora = RefreshWorldCorpora();
  event::Mabed mabed(twitter ? defaults.twitter_mabed : defaults.news_mabed);
  for (auto _ : state) {
    auto events = mabed.Detect(twitter ? corpora.twitter_ed : corpora.news_ed);
    benchmark::DoNotOptimize(events);
  }
}
BENCHMARK_CAPTURE(BM_MabedDetect, news, false)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_MabedDetect, twitter, true)
    ->Unit(benchmark::kMillisecond);

void BM_Word2VecEpoch(benchmark::State& state) {
  static const auto* kSentences = new std::vector<std::vector<std::string>>(
      datagen::BackgroundSentences(300, 5));
  for (auto _ : state) {
    embed::Word2VecOptions opts;
    opts.dimension = 50;
    opts.epochs = 1;
    opts.min_count = 1;
    auto vectors = embed::TrainWord2Vec(*kSentences, opts);
    benchmark::DoNotOptimize(vectors);
  }
}
BENCHMARK(BM_Word2VecEpoch);

void BM_MlpTrainStep(benchmark::State& state) {
  Rng rng(3);
  la::Matrix x = la::Matrix::RandomNormal(128, 300, 1.0, rng);
  std::vector<int> y(128);
  for (size_t i = 0; i < y.size(); ++i) y[i] = static_cast<int>(i % 3);
  nn::MlpConfig cfg;
  cfg.input_size = 300;
  nn::Model model = nn::BuildMlp(cfg);
  nn::Sgd sgd({0.1, 0.0});
  nn::FitOptions fit;
  fit.epochs = 1;
  fit.batch_size = 128;
  fit.early_stopping.enabled = false;
  for (auto _ : state) {
    auto history = model.Fit(x, y, sgd, fit);
    benchmark::DoNotOptimize(history);
  }
}
BENCHMARK(BM_MlpTrainStep);

void BM_CnnTrainStep(benchmark::State& state) {
  Rng rng(3);
  la::Matrix x = la::Matrix::RandomNormal(128, 300, 1.0, rng);
  std::vector<int> y(128);
  for (size_t i = 0; i < y.size(); ++i) y[i] = static_cast<int>(i % 3);
  nn::CnnConfig cfg;
  cfg.input_size = 300;
  nn::Model model = nn::BuildCnn(cfg);
  nn::Sgd sgd({0.1, 0.0});
  nn::FitOptions fit;
  fit.epochs = 1;
  fit.batch_size = 128;
  fit.early_stopping.enabled = false;
  for (auto _ : state) {
    auto history = model.Fit(x, y, sgd, fit);
    benchmark::DoNotOptimize(history);
  }
}
BENCHMARK(BM_CnnTrainStep);

void BM_StoreInsert(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    store::Collection coll("bench");
    state.ResumeTiming();
    for (int i = 0; i < 1000; ++i) {
      coll.Insert(store::MakeObject({
          {"tweet_id", static_cast<int64_t>(i)},
          {"text", "benchmark tweet body text"},
          {"likes", static_cast<int64_t>(i * 7 % 2000)},
      }));
    }
    benchmark::DoNotOptimize(coll);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_StoreInsert);

void BM_StoreIndexedFind(benchmark::State& state) {
  static store::Collection* kColl = [] {
    auto* coll = new store::Collection("bench");
    for (int i = 0; i < 10000; ++i) {
      coll->Insert(store::MakeObject({
          {"user_id", static_cast<int64_t>(i % 500)},
          {"likes", static_cast<int64_t>(i)},
      }));
    }
    coll->CreateIndex("user_id");
    return coll;
  }();
  int64_t uid = 0;
  for (auto _ : state) {
    auto docs = kColl->Find(
        store::Filter().Eq("user_id", store::Value(uid % 500)));
    benchmark::DoNotOptimize(docs);
    ++uid;
  }
}
BENCHMARK(BM_StoreIndexedFind);

void BM_LdaIteration(benchmark::State& state) {
  static const corpus::Corpus* kCorp = new corpus::Corpus(BuildSmallCorpus());
  for (auto _ : state) {
    topic::LdaOptions opts;
    opts.num_topics = 8;
    opts.iterations = 1;
    auto result = topic::FitLda(*kCorp, opts);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_LdaIteration);

void BM_PvDbowEpoch(benchmark::State& state) {
  static const auto* kDocs = new std::vector<std::vector<std::string>>(
      datagen::BackgroundSentences(200, 9));
  for (auto _ : state) {
    embed::PvDbowOptions opts;
    opts.dimension = 50;
    opts.epochs = 1;
    opts.min_count = 1;
    auto result = embed::TrainPvDbow(*kDocs, opts);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_PvDbowEpoch);

void BM_HungarianAssignment(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(4);
  la::Matrix cost = la::Matrix::Random(n, n, 0.0, 1.0, rng);
  for (auto _ : state) {
    auto result = core::SolveAssignment(cost);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_HungarianAssignment)->Arg(16)->Arg(64);

void BM_CosineSimilarity300(benchmark::State& state) {
  Rng rng(5);
  la::Matrix vecs = la::Matrix::RandomNormal(64, 300, 1.0, rng);
  size_t i = 0;
  for (auto _ : state) {
    double s = la::CosineSimilarity(vecs.Row(i % 64), vecs.Row((i + 1) % 64));
    benchmark::DoNotOptimize(s);
    ++i;
  }
}
BENCHMARK(BM_CosineSimilarity300);

void BM_JsonRoundtrip(benchmark::State& state) {
  store::Value doc = store::MakeObject({
      {"tweet_id", int64_t{123456}},
      {"text", "a moderately long tweet body with several words in it"},
      {"likes", int64_t{532}},
      {"nested", store::MakeObject({{"a", 1.5}, {"b", "x"}})},
  });
  for (auto _ : state) {
    std::string json = store::ToJson(doc);
    auto parsed = store::ParseJson(json);
    benchmark::DoNotOptimize(parsed);
  }
}
BENCHMARK(BM_JsonRoundtrip);

}  // namespace

BENCHMARK_MAIN();
