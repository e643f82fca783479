#include "core/engine.h"

#include <algorithm>
#include <utility>

#include "core/collection.h"
#include "core/preprocess.h"
#include "datagen/world.h"
#include "serve/features.h"
#include "serve/trainer.h"
#include "text/pipeline.h"

namespace newsdiff {

namespace {

constexpr char kNewsIndex[] = "news";
constexpr char kTweetsIndex[] = "tweets";

}  // namespace

core::PipelineOptions EngineOptions::PipelineView() const {
  core::PipelineOptions view = pipeline;
  view.parallelism = parallelism;
  return view;
}

core::PredictorOptions EngineOptions::PredictorView() const {
  core::PredictorOptions view = predictor;
  view.parallelism = parallelism;
  return view;
}

core::SupervisorOptions EngineOptions::SupervisorView() const {
  return supervisor;
}

serve::ServingOptions EngineOptions::ServingView() const {
  serve::ServingOptions view = serving;
  view.model.parallelism = parallelism;
  // The serving model classifies into the predictor's class space so its
  // output lines up with the Table-2 likes classes the vote path uses.
  view.model.num_classes = std::max<size_t>(predictor.num_classes, 1);
  return view;
}

std::string EngineOptions::IndexDir() const {
  if (!index_dir.empty()) return index_dir;
  if (!supervisor.snapshot_dir.empty()) {
    return supervisor.snapshot_dir + "/index";
  }
  return "";
}

Engine::Engine(EngineOptions options)
    : options_(std::move(options)),
      supervisor_(core::Pipeline(options_.PipelineView()),
                  options_.SupervisorView()),
      serving_(std::make_shared<const ServingData>()),
      inference_(std::make_unique<serve::InferenceServer>(
          options_.parallelism)) {}

std::shared_ptr<const Engine::ServingData> Engine::ServingSnapshot() const {
  std::lock_guard<std::mutex> lock(index_mu_);
  return serving_;
}

std::shared_ptr<const Engine::IndexMap> Engine::IndexSnapshot() const {
  // Aliasing constructor: the handle points at the index map but keeps the
  // whole serving snapshot (indexes + features) alive, preserving the
  // public pin-a-generation contract unchanged.
  std::shared_ptr<const ServingData> data = ServingSnapshot();
  return std::shared_ptr<const IndexMap>(data, &data->indexes);
}

void Engine::SwapServing(ServingData data, uint64_t generation) {
  std::shared_ptr<const ServingData> next =
      std::make_shared<const ServingData>(std::move(data));
  {
    std::lock_guard<std::mutex> lock(index_mu_);
    serving_ = std::move(next);
  }
  index_generation_.store(generation, std::memory_order_relaxed);
  counters_.index_swaps.fetch_add(1, std::memory_order_relaxed);
}

EngineStatsSnapshot Engine::stats() const {
  EngineStatsSnapshot s;
  s.trending_queries =
      counters_.trending_queries.load(std::memory_order_relaxed);
  s.interest_predictions =
      counters_.interest_predictions.load(std::memory_order_relaxed);
  s.serving_errors = counters_.serving_errors.load(std::memory_order_relaxed);
  s.not_found = counters_.not_found.load(std::memory_order_relaxed);
  s.index_swaps = counters_.index_swaps.load(std::memory_order_relaxed);
  s.docs_scored = counters_.docs_scored.load(std::memory_order_relaxed);
  s.blocks_decoded = counters_.blocks_decoded.load(std::memory_order_relaxed);
  s.model_predictions =
      counters_.model_predictions.load(std::memory_order_relaxed);
  const serve::InferenceServerStats is = inference_->stats();
  s.inference_batches = is.forward_passes;
  s.inference_batched_rows = is.rows;
  s.model_swaps = is.model_swaps;
  return s;
}

FileIo& Engine::io() const {
  return options_.io != nullptr ? *options_.io : DefaultFileIo();
}

Status Engine::Recover(store::Database& db) {
  NEWSDIFF_RETURN_IF_ERROR(supervisor_.Recover(db));
  if (options_.IndexDir().empty()) return Status::OK();
  StatusOr<index::IndexLoadReport> report = LoadIndex();
  if (!report.ok()) return report.status();
  return Status::OK();
}

StatusOr<core::PipelineResult> Engine::RunPipeline(
    store::Database& db, const embed::PretrainedStore& embeddings) {
  return supervisor_.Run(db, embeddings);
}

StatusOr<BuildIndexReport> Engine::BuildIndex(store::Database& db) {
  StatusOr<std::vector<core::NewsRecord>> news = core::LoadNews(db);
  if (!news.ok()) return news.status();
  StatusOr<std::vector<core::TweetRecord>> tweets = core::LoadTweets(db);
  if (!tweets.ok()) return tweets.status();

  // The same tokenisation the offline event-detection stages use, so a
  // query phrased like a headline meets the corpus on equal terms.
  const corpus::Corpus news_corpus = core::BuildNewsED(*news);
  const corpus::Corpus tweet_corpus = core::BuildTwitterED(*tweets);

  std::vector<double> tweet_labels;
  tweet_labels.reserve(tweets->size());
  for (const core::TweetRecord& t : *tweets) {
    tweet_labels.push_back(
        static_cast<double>(datagen::EncodeCountClass(t.likes)));
  }

  StatusOr<index::InvertedIndex> news_ix =
      index::InvertedIndex::Build(news_corpus, options_.index);
  if (!news_ix.ok()) return news_ix.status();
  StatusOr<index::InvertedIndex> tweets_ix =
      index::InvertedIndex::Build(tweet_corpus, options_.index, tweet_labels);
  if (!tweets_ix.ok()) return tweets_ix.status();

  IndexMap built;
  built.emplace(kNewsIndex, std::move(*news_ix));
  built.emplace(kTweetsIndex, std::move(*tweets_ix));

  BuildIndexReport report;
  report.news_docs = news_corpus.size();
  report.tweet_docs = tweet_corpus.size();
  report.news_terms = built[kNewsIndex].num_terms();
  report.tweet_terms = built[kTweetsIndex].num_terms();

  // Serving model: hashed features for every candidate tweet (row r
  // matches the tweets index's dense doc id r) and a fresh MLP generation
  // for the inference server. Features hash term STRINGS, so the model
  // keeps scoring across rebuilds even though vocabulary ids change.
  la::Matrix tweet_features;
  if (tweet_corpus.size() > 0) {
    const serve::ServingOptions serving = options_.ServingView();
    serve::HashedFeaturizer featurizer(serving.model.feature_dim);
    tweet_features = featurizer.FeaturizeCorpus(tweet_corpus);
    const int max_class = static_cast<int>(serving.model.num_classes) - 1;
    std::vector<int> labels;
    labels.reserve(tweet_labels.size());
    for (double l : tweet_labels) {
      labels.push_back(std::clamp(static_cast<int>(l), 0, max_class));
    }
    StatusOr<nn::Model> model =
        serve::TrainInterestModel(tweet_features, labels, serving.model);
    if (!model.ok()) return model.status();
    const uint64_t version =
        model_generation_.fetch_add(1, std::memory_order_relaxed) + 1;
    inference_->LoadModel(std::move(*model), version);
  }

  const std::string dir = options_.IndexDir();
  if (!dir.empty()) {
    index::IndexStore store(io(), dir, options_.index_retain);
    NEWSDIFF_RETURN_IF_ERROR(store.Save(built));
    report.generation = store.generation();
  }
  ServingData data;
  data.indexes = std::move(built);
  data.tweet_features = std::move(tweet_features);
  SwapServing(std::move(data), report.generation);
  return report;
}

StatusOr<index::IndexLoadReport> Engine::LoadIndex() {
  const std::string dir = options_.IndexDir();
  if (dir.empty()) {
    return Status::FailedPrecondition("engine: no index directory configured");
  }
  index::IndexStore store(io(), dir, options_.index_retain);
  // Indexes only: feature rows come from BuildIndex, so PredictInterest
  // votes until the next build.
  ServingData data;
  StatusOr<index::IndexLoadReport> report = store.Load(&data.indexes);
  if (report.ok()) SwapServing(std::move(data), report->generation);
  return report;
}

const index::InvertedIndex* Engine::GetIndex(const std::string& name) const {
  std::shared_ptr<const IndexMap> snapshot = IndexSnapshot();
  auto it = snapshot->find(name);
  return it == snapshot->end() ? nullptr : &it->second;
}

StatusOr<std::vector<QueryHit>> Engine::QueryOn(
    const ServingData& data, const std::string& index_name,
    const std::vector<std::string>& terms, size_t k,
    index::QueryStats* stats) const {
  auto found = data.indexes.find(index_name);
  if (found == data.indexes.end()) {
    counters_.serving_errors.fetch_add(1, std::memory_order_relaxed);
    return Status::FailedPrecondition(
        "engine: index '" + index_name +
        "' not loaded; call BuildIndex or LoadIndex first");
  }
  const index::InvertedIndex* ix = &found->second;
  index::QueryStats local_stats;
  std::vector<QueryHit> hits;
  for (const index::SearchResult& r : ix->TopK(terms, k, &local_stats)) {
    const index::DocInfo& info = ix->doc(r.doc);
    QueryHit hit;
    hit.doc = r.doc;
    hit.external_id = info.external_id;
    hit.timestamp = info.timestamp;
    hit.score = r.score;
    hit.label = info.label;
    hits.push_back(hit);
  }
  counters_.docs_scored.fetch_add(local_stats.docs_scored,
                                  std::memory_order_relaxed);
  counters_.blocks_decoded.fetch_add(local_stats.blocks_decoded,
                                     std::memory_order_relaxed);
  if (stats != nullptr) *stats = local_stats;
  return hits;
}

StatusOr<std::vector<QueryHit>> Engine::Query(
    const std::string& index_name, const std::vector<std::string>& terms,
    size_t k, index::QueryStats* stats) const {
  // Pin the current generation: a concurrent BuildIndex/LoadIndex swap
  // retires the snapshot we are reading only after this handle releases it.
  std::shared_ptr<const ServingData> snapshot = ServingSnapshot();
  return QueryOn(*snapshot, index_name, terms, k, stats);
}

StatusOr<std::vector<QueryHit>> Engine::QueryTrending(
    const std::string& query, size_t k, index::QueryStats* stats) const {
  counters_.trending_queries.fetch_add(1, std::memory_order_relaxed);
  return Query(kNewsIndex, text::PreprocessNewsED(query), k, stats);
}

namespace {

/// Copies the feature rows for `hits` (dense doc ids) out of the pinned
/// generation's feature matrix. Returns false if any hit has no feature row
/// (stale model against a feature-less snapshot) — callers then fall back
/// to the vote.
bool GatherCandidateFeatures(const la::Matrix& tweet_features,
                             const std::vector<QueryHit>& hits,
                             la::Matrix* out, size_t first_row) {
  for (const QueryHit& h : hits) {
    if (h.doc >= tweet_features.rows()) return false;
  }
  size_t row = first_row;
  for (const QueryHit& h : hits) {
    const double* src = tweet_features.RowPtr(h.doc);
    double* dst = out->RowPtr(row++);
    for (size_t c = 0; c < tweet_features.cols(); ++c) dst[c] = src[c];
  }
  return true;
}

}  // namespace

InterestPrediction Engine::VotePrediction(std::vector<QueryHit> hits) const {
  InterestPrediction prediction;
  const size_t num_classes =
      std::max<size_t>(options_.predictor.num_classes, 1);
  prediction.class_weights.assign(num_classes, 0.0);
  double total = 0.0;
  for (const QueryHit& h : hits) {
    size_t cls = h.label >= 0.0 ? static_cast<size_t>(h.label) : 0;
    if (cls >= num_classes) cls = num_classes - 1;
    prediction.class_weights[cls] += h.score;
    total += h.score;
  }
  if (total > 0.0) {
    for (double& w : prediction.class_weights) w /= total;
  }
  for (size_t c = 1; c < num_classes; ++c) {
    if (prediction.class_weights[c] >
        prediction
            .class_weights[static_cast<size_t>(prediction.predicted_class)]) {
      prediction.predicted_class = static_cast<int>(c);
    }
  }
  prediction.confidence =
      prediction.class_weights[static_cast<size_t>(prediction.predicted_class)];
  prediction.neighbors = std::move(hits);
  return prediction;
}

InterestPrediction Engine::CombineModelPrediction(std::vector<QueryHit> hits,
                                                  const la::Matrix& probs,
                                                  size_t first_row) const {
  InterestPrediction prediction;
  const size_t num_classes = probs.cols();
  prediction.class_weights.assign(num_classes, 0.0);

  // Retrieval-score-weighted average of the per-candidate class
  // distributions. Each softmax row sums to ~1, so the averaged weights do
  // too — preserving the "weights normalise to 1" contract of the vote
  // path without an explicit renormalisation.
  double total = 0.0;
  for (const QueryHit& h : hits) total += h.score;
  size_t row = first_row;
  for (QueryHit& h : hits) {
    const double* p = probs.RowPtr(row++);
    const double w = total > 0.0 ? h.score / total
                                 : 1.0 / static_cast<double>(hits.size());
    double expected = 0.0;
    for (size_t c = 0; c < num_classes; ++c) {
      prediction.class_weights[c] += w * p[c];
      expected += static_cast<double>(c) * p[c];
    }
    h.model_score = expected;
  }
  for (size_t c = 1; c < num_classes; ++c) {
    if (prediction.class_weights[c] >
        prediction
            .class_weights[static_cast<size_t>(prediction.predicted_class)]) {
      prediction.predicted_class = static_cast<int>(c);
    }
  }
  prediction.confidence =
      prediction.class_weights[static_cast<size_t>(prediction.predicted_class)];
  std::stable_sort(hits.begin(), hits.end(),
                   [](const QueryHit& a, const QueryHit& b) {
                     return a.model_score > b.model_score;
                   });
  prediction.neighbors = std::move(hits);
  prediction.model_reranked = true;
  return prediction;
}

StatusOr<InterestPrediction> Engine::PredictInterest(
    const std::string& draft, size_t k, index::QueryStats* stats) const {
  counters_.interest_predictions.fetch_add(1, std::memory_order_relaxed);
  std::shared_ptr<const ServingData> snapshot = ServingSnapshot();
  StatusOr<std::vector<QueryHit>> hits =
      QueryOn(*snapshot, kTweetsIndex, text::PreprocessNewsED(draft), k, stats);
  if (!hits.ok()) return hits.status();
  if (hits->empty()) {
    counters_.not_found.fetch_add(1, std::memory_order_relaxed);
    return Status::NotFound("engine: no tweets match the draft");
  }

  // Model path only when this snapshot carries feature rows for every hit
  // and a model generation is installed; anything else votes. Features and
  // indexes were published by the same swap, so the rows line up by
  // construction — the guard covers feature-less snapshots (LoadIndex).
  if (inference_->has_model() && snapshot->tweet_features.rows() > 0) {
    la::Matrix features(hits->size(), snapshot->tweet_features.cols());
    if (GatherCandidateFeatures(snapshot->tweet_features, *hits, &features,
                                0)) {
      uint64_t version = 0;
      StatusOr<la::Matrix> probs = inference_->Predict(features, &version);
      if (!probs.ok()) {
        counters_.serving_errors.fetch_add(1, std::memory_order_relaxed);
        return probs.status();
      }
      counters_.model_predictions.fetch_add(1, std::memory_order_relaxed);
      InterestPrediction prediction =
          CombineModelPrediction(std::move(*hits), *probs, 0);
      prediction.model_version = version;
      return prediction;
    }
  }
  return VotePrediction(std::move(*hits));
}

std::vector<StatusOr<InterestPrediction>> Engine::PredictInterestBatch(
    const std::vector<std::string>& drafts, size_t k) const {
  std::vector<StatusOr<InterestPrediction>> results;
  results.reserve(drafts.size());
  std::shared_ptr<const ServingData> snapshot = ServingSnapshot();

  // Retrieval pass: collect candidates per draft, record which drafts can
  // take the model path, and count their total feature rows so all drafts
  // share ONE inference call.
  struct Pending {
    size_t result_index = 0;
    std::vector<QueryHit> hits;
    size_t first_row = 0;
  };
  std::vector<Pending> pending;
  size_t total_rows = 0;
  const bool model_live =
      inference_->has_model() && snapshot->tweet_features.rows() > 0;
  for (const std::string& draft : drafts) {
    counters_.interest_predictions.fetch_add(1, std::memory_order_relaxed);
    StatusOr<std::vector<QueryHit>> hits = QueryOn(
        *snapshot, kTweetsIndex, text::PreprocessNewsED(draft), k, nullptr);
    if (!hits.ok()) {
      results.push_back(hits.status());
      continue;
    }
    if (hits->empty()) {
      counters_.not_found.fetch_add(1, std::memory_order_relaxed);
      results.push_back(Status::NotFound("engine: no tweets match the draft"));
      continue;
    }
    bool rows_ok = model_live;
    if (rows_ok) {
      for (const QueryHit& h : *hits) {
        if (h.doc >= snapshot->tweet_features.rows()) rows_ok = false;
      }
    }
    if (!rows_ok) {
      results.push_back(VotePrediction(std::move(*hits)));
      continue;
    }
    Pending p;
    p.result_index = results.size();
    p.first_row = total_rows;
    total_rows += hits->size();
    p.hits = std::move(*hits);
    results.push_back(Status::Internal("pending"));  // overwritten below
    pending.push_back(std::move(p));
  }
  if (pending.empty()) return results;

  la::Matrix features(total_rows, snapshot->tweet_features.cols());
  for (const Pending& p : pending) {
    GatherCandidateFeatures(snapshot->tweet_features, p.hits, &features,
                            p.first_row);
  }
  uint64_t version = 0;
  StatusOr<la::Matrix> probs = inference_->Predict(features, &version);
  if (!probs.ok()) {
    for (Pending& p : pending) {
      counters_.serving_errors.fetch_add(1, std::memory_order_relaxed);
      results[p.result_index] = probs.status();
    }
    return results;
  }
  for (Pending& p : pending) {
    counters_.model_predictions.fetch_add(1, std::memory_order_relaxed);
    InterestPrediction prediction =
        CombineModelPrediction(std::move(p.hits), *probs, p.first_row);
    prediction.model_version = version;
    results[p.result_index] = std::move(prediction);
  }
  return results;
}

}  // namespace newsdiff
