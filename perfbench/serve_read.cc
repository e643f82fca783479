// serve_read: closed-loop read traffic against a built Engine.
//
// The requests are the read share of the repository's own serving traffic:
// loadgen::WorkloadGenerator's steady phase (loadgen::PhaseSpec's default
// mix) with its two ingest classes weighted to zero, so QueryTrending and
// PredictInterest arrive 45:25, about Zipf-skewed hot topics. The Engine
// serves the world serving_bench and index_bench use in smoke mode (1500
// articles, 4000 tweets, 600 users). Nothing writes and nothing rebuilds,
// so every request runs the full read path: tokenise, cursor/block
// decode/BM25 score, feature gather, inference queue + GEMM, combine.
//
// Two clients each send the next request of the trace as soon as the last
// one returns, ignoring the trace's arrival times. A closed loop rather
// than the arrival schedule because on a small shared VM, idle client
// threads that sleep between arrivals made service times swing by a third
// from run to run; busy clients keep the measurement about the read path.
#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "core/collection.h"
#include "core/engine.h"
#include "core/preprocess.h"
#include "harness.h"
#include "index/index.h"
#include "serve/features.h"
#include "text/pipeline.h"

namespace perfbench {

namespace {

using namespace newsdiff;
using loadgen::OpClass;
using loadgen::Request;

constexpr size_t kArticles = 1500;
constexpr size_t kTweets = 4000;
constexpr size_t kUsers = 600;
constexpr size_t kClients = 2;  // closed-loop clients
constexpr size_t kK = 10;       // loadgen::DriverOptions::query_k
// serving_bench's full-mode arrival rate. The trace is generated for
// kTraceSeconds and replayed from the start when the clients reach its end.
constexpr double kRate = 400.0;
constexpr double kTraceSeconds = 150.0;
constexpr double kWarmupSeconds = 2.0;
constexpr size_t kVerifySample = 64;
constexpr size_t kReplay = 300;
constexpr bool kReads[loadgen::kNumOpClasses] = {false, false, true, true};

bool IsPredict(const Request& r) { return r.op == OpClass::kPredictInterest; }

bool CheckTrending(const StatusOr<std::vector<QueryHit>>& hits) {
  if (!hits.ok() || hits->size() > kK) return false;
  for (size_t i = 1; i < hits->size(); ++i) {
    if ((*hits)[i].score > (*hits)[i - 1].score) return false;
  }
  return true;
}

// NotFound (no tweet matches the draft) is a valid answer, as it is to
// loadgen::LoadDriver; Verify checks it against brute force.
bool CheckPrediction(const StatusOr<InterestPrediction>& p) {
  if (!p.ok()) return p.status().code() == StatusCode::kNotFound;
  if (!p->model_reranked || p->neighbors.empty() || p->neighbors.size() > kK) {
    return false;
  }
  double sum = 0.0;
  for (double w : p->class_weights) sum += w;
  return std::fabs(sum - 1.0) < 1e-6 &&
         p->confidence ==
             p->class_weights[static_cast<size_t>(p->predicted_class)];
}

// Answers against the brute-force BM25 reference and the batch path, on a
// sample of the measured requests.
void Verify(Engine& engine, store::Database& db,
            const std::vector<Request>& requests, Result* result) {
  StatusOr<std::vector<core::NewsRecord>> news = core::LoadNews(db);
  StatusOr<std::vector<core::TweetRecord>> tweets = core::LoadTweets(db);
  if (!news.ok() || !tweets.ok()) {
    result->Fail("verify: could not read the store");
    return;
  }
  const corpus::Corpus news_corpus = core::BuildNewsED(*news);
  const corpus::Corpus tweet_corpus = core::BuildTwitterED(*tweets);
  const index::IndexOptions& ix = engine.options().index;
  const size_t stride = std::max<size_t>(1, requests.size() / kVerifySample);
  std::vector<std::string> drafts;
  std::vector<InterestPrediction> singles;
  for (size_t i = 0; i < requests.size(); i += stride) {
    const Request& r = requests[i];
    const std::vector<index::SearchResult> want = index::BruteForceTopK(
        IsPredict(r) ? tweet_corpus : news_corpus, ix,
        text::PreprocessNewsED(r.text), kK);
    if (!IsPredict(r)) {
      StatusOr<std::vector<QueryHit>> hits = engine.QueryTrending(r.text, kK);
      bool same = hits.ok() && hits->size() == want.size();
      for (size_t j = 0; same && j < want.size(); ++j) {
        same = (*hits)[j].doc == want[j].doc &&
               (*hits)[j].score == want[j].score;
      }
      if (!same) result->Fail("QueryTrending differs from brute force");
      continue;
    }
    StatusOr<InterestPrediction> p = engine.PredictInterest(r.text, kK);
    if (!CheckPrediction(p)) {
      result->Fail("PredictInterest answer malformed");
      continue;
    }
    if (!p.ok()) {
      if (!want.empty()) result->Fail("PredictInterest missed matching tweets");
      continue;
    }
    std::vector<uint32_t> got_docs, want_docs;
    for (const QueryHit& h : p->neighbors) got_docs.push_back(h.doc);
    for (const index::SearchResult& s : want) want_docs.push_back(s.doc);
    std::sort(got_docs.begin(), got_docs.end());
    std::sort(want_docs.begin(), want_docs.end());
    if (got_docs != want_docs) {
      result->Fail("PredictInterest neighbours differ from brute force");
    }
    drafts.push_back(r.text);
    singles.push_back(std::move(*p));
  }
  // Batch-of-N must equal N single calls bit for bit (f32 serving path).
  const std::vector<StatusOr<InterestPrediction>> batch =
      engine.PredictInterestBatch(drafts, kK);
  for (size_t i = 0; i < singles.size(); ++i) {
    bool same = i < batch.size() && batch[i].ok() &&
                batch[i]->class_weights == singles[i].class_weights &&
                batch[i]->neighbors.size() == singles[i].neighbors.size();
    for (size_t j = 0; same && j < singles[i].neighbors.size(); ++j) {
      same = batch[i]->neighbors[j].doc == singles[i].neighbors[j].doc;
    }
    if (!same) result->Fail("PredictInterestBatch differs from single calls");
  }
}

// Per-layer attribution: replays predict drafts one at a time through the
// public layer calls the Engine makes, timing each, next to the full call.
void ReplayLayers(Engine& engine, store::Database& db,
                  const std::vector<Request>& requests, Result* result) {
  StatusOr<std::vector<core::TweetRecord>> tweets = core::LoadTweets(db);
  if (!tweets.ok()) {
    result->Fail("replay: could not read tweets");
    return;
  }
  const la::Matrix features =
      serve::HashedFeaturizer(engine.options().serving.model.feature_dim)
          .FeaturizeCorpus(core::BuildTwitterED(*tweets));
  std::shared_ptr<const Engine::IndexMap> snapshot = engine.IndexSnapshot();
  const index::InvertedIndex& tweets_ix = snapshot->at("tweets");
  serve::InferenceServer* server = engine.inference_server();
  std::vector<double> tokenize, topk, gather, infer, predict_call,
      trending_call;
  for (const Request& r : requests) {
    if (predict_call.size() >= kReplay && trending_call.size() >= kReplay) {
      break;
    }
    if (!IsPredict(r)) {
      if (trending_call.size() >= kReplay) continue;
      const Clock::time_point t = Clock::now();
      const bool ok = CheckTrending(engine.QueryTrending(r.text, kK));
      trending_call.push_back(MillisSince(t) * 1e3);
      if (!ok) result->Fail("replay: QueryTrending failed");
      continue;
    }
    if (predict_call.size() >= kReplay) continue;
    Clock::time_point t = Clock::now();
    const std::vector<std::string> terms = text::PreprocessNewsED(r.text);
    tokenize.push_back(MillisSince(t) * 1e3);
    t = Clock::now();
    const std::vector<index::SearchResult> hits = tweets_ix.TopK(terms, kK);
    topk.push_back(MillisSince(t) * 1e3);
    if (hits.empty()) continue;  // answered NotFound before inference
    t = Clock::now();
    la::Matrix rows(hits.size(), features.cols());
    for (size_t i = 0; i < hits.size(); ++i) {
      std::copy_n(features.RowPtr(hits[i].doc), features.cols(),
                  rows.RowPtr(i));
    }
    gather.push_back(MillisSince(t) * 1e3);
    t = Clock::now();
    const bool infer_ok = server != nullptr && server->Predict(rows).ok();
    infer.push_back(MillisSince(t) * 1e3);
    t = Clock::now();
    const bool ok = CheckPrediction(engine.PredictInterest(r.text, kK));
    predict_call.push_back(MillisSince(t) * 1e3);
    if (!infer_ok || !ok) result->Fail("replay: PredictInterest failed");
  }
  result->Add("tokenize_us", Median(tokenize), "us");
  result->Add("index_topk_us", Median(topk), "us");
  result->Add("feature_gather_us", Median(gather), "us");
  result->Add("inference_us", Median(infer), "us");
  result->Add("predict_call_us", Median(predict_call), "us");
  result->Add("trending_call_us", Median(trending_call), "us");
}

}  // namespace

Result RunServeRead(const Args& args) {
  Result result;
  store::Database db;
  std::unique_ptr<Engine> engine;
  auto setup = [&] {
    const datagen::World world =
        MakeWorld(args.seed, kArticles, kTweets, kUsers);
    db = store::Database();
    world.LoadInto(db);
    engine = std::make_unique<Engine>(EngineOptions{});
    StatusOr<BuildIndexReport> built = engine->BuildIndex(db);
    if (!built.ok()) result.Fail("BuildIndex: " + built.status().ToString());
  };
  const double setup_s = MinSetupSeconds(setup);
  if (!result.correct) return result;

  // Request i is trace[i % size], so every build of the program is sent
  // the same request sequence.
  const std::vector<Request> trace =
      SteadyTrace(args.seed, kUsers, kRate, kTraceSeconds, kReads);
  auto run = [&](const Request& r) {
    return IsPredict(r) ? CheckPrediction(engine->PredictInterest(r.text, kK))
                        : CheckTrending(engine->QueryTrending(r.text, kK));
  };
  // Warm-up on requests of another seed.
  for (const Request& r :
       SteadyTrace(~args.seed, kUsers, kRate, kWarmupSeconds, kReads)) {
    run(r);
  }

  const EngineStatsSnapshot before = engine->stats();
  const ClosedLoopTimings timings =
      RunClosedLoop(kClients, args.seconds,
                    [&](size_t i) { return run(trace[i % trace.size()]); });
  const EngineStatsSnapshot after = engine->stats();
  std::vector<Request> requests;
  for (size_t i = 0; i < timings.latency_ms.size(); ++i) {
    requests.push_back(trace[i % trace.size()]);
  }

  result.attempted = requests.size();
  for (char ok : timings.ok) result.failed += ok ? 0 : 1;
  if (result.failed > 0) {
    result.Fail(std::to_string(result.failed) + " read requests failed");
  }
  Verify(*engine, db, requests, &result);

  if (!args.trace) {
    result.Add("p50_ms", Median(timings.latency_ms), "ms");
    result.Add("tail_ms", Percentile(timings.latency_ms, 0.99), "ms");
    result.Add("setup_s", std::min(setup_s, MinSetupSeconds(setup)), "s");
    return result;
  }
  const double queries = static_cast<double>(
      (after.trending_queries - before.trending_queries) +
      (after.interest_predictions - before.interest_predictions));
  for (const bool predict : {true, false}) {
    std::vector<double> latency;
    for (size_t i = 0; i < requests.size(); ++i) {
      if (IsPredict(requests[i]) == predict) {
        latency.push_back(timings.latency_ms[i]);
      }
    }
    result.Add(predict ? "predict_p50_ms" : "trending_p50_ms",
               Median(latency), "ms");
  }
  result.Add("index_docs_scored",
             static_cast<double>(after.docs_scored - before.docs_scored) /
                 queries,
             "count");
  result.Add("index_blocks_decoded",
             static_cast<double>(after.blocks_decoded - before.blocks_decoded) /
                 queries,
             "count");
  const uint64_t batches = after.inference_batches - before.inference_batches;
  result.Add("inference_batches", static_cast<double>(batches), "count");
  result.Add("inference_batch_rows",
             batches == 0 ? 0.0
                          : static_cast<double>(after.inference_batched_rows -
                                                before.inference_batched_rows) /
                                static_cast<double>(batches),
             "rows");
  result.Add("inference_queue_rejections",
             static_cast<double>(after.inference_queue_rejections -
                                 before.inference_queue_rejections),
             "count");
  ReplayLayers(*engine, db, requests, &result);
  return result;
}

}  // namespace perfbench
