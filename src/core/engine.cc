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

serve::ServingOptions EngineOptions::ServingView() const {
  serve::ServingOptions view = serving;
  view.model.parallelism = parallelism;
  view.model.num_classes = std::max<size_t>(view.model.num_classes, 1);
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
                  options_.supervisor),
      serving_(std::make_shared<const ServingData>()),
      inference_(std::make_unique<serve::InferenceServer>([this] {
        // Aliasing: the handle keeps the whole generation alive.
        std::shared_ptr<const ServingData> data = ServingSnapshot();
        return std::shared_ptr<serve::ServingModel>(data, data->model.get());
      })) {}

std::shared_ptr<const Engine::ServingData> Engine::ServingSnapshot() const {
  std::lock_guard<std::mutex> lock(index_mu_);
  return serving_;
}

std::shared_ptr<const Engine::IndexMap> Engine::IndexSnapshot() const {
  // Aliasing constructor: the handle points at the index map but keeps the
  // whole serving generation (indexes, features, model) alive.
  std::shared_ptr<const ServingData> data = ServingSnapshot();
  return std::shared_ptr<const IndexMap>(data, &data->indexes);
}

Status Engine::Publish(IndexMap indexes, uint64_t generation) {
  auto next = std::make_shared<ServingData>();
  auto tweets = indexes.find(kTweetsIndex);
  if (tweets != indexes.end() && tweets->second.num_docs() > 0) {
    // Row r matches the tweets index's dense doc id r. Features hash term
    // strings and labels are the DocInfo's Table-2 likes class, so the
    // indexes alone fix the training set: a loaded INDEX-<gen> retrains
    // the writer's model bit for bit.
    const index::InvertedIndex& ix = tweets->second;
    const serve::ServingOptions serving = options_.ServingView();
    next->tweet_features =
        serve::HashedFeaturizer(serving.model.feature_dim).FeaturizeIndex(ix);
    const int max_class = static_cast<int>(serving.model.num_classes) - 1;
    std::vector<int> labels;
    labels.reserve(ix.docs().size());
    for (const index::DocInfo& doc : ix.docs()) {
      labels.push_back(std::clamp(static_cast<int>(doc.label), 0, max_class));
    }
    StatusOr<nn::Model> model =
        serve::TrainInterestModel(next->tweet_features, labels, serving.model);
    if (!model.ok()) return model.status();
    next->model = std::make_unique<serve::ServingModel>(std::move(*model));
  }
  next->indexes = std::move(indexes);
  next->generation = generation;
  {
    std::lock_guard<std::mutex> lock(index_mu_);
    serving_ = std::move(next);
  }
  counters_.index_swaps.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
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
  s.inference_batches =
      counters_.forward_passes.load(std::memory_order_relaxed);
  s.inference_batched_rows =
      counters_.rows_scored.load(std::memory_order_relaxed);
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

  // Commit first: a generation that did not reach disk is never served.
  report.generation = generation() + 1;
  const std::string dir = options_.IndexDir();
  if (!dir.empty()) {
    index::IndexStore store(io(), dir, options_.index_retain);
    NEWSDIFF_RETURN_IF_ERROR(store.Save(built));
    report.generation = store.generation();
  }
  NEWSDIFF_RETURN_IF_ERROR(Publish(std::move(built), report.generation));
  return report;
}

StatusOr<index::IndexLoadReport> Engine::LoadIndex() {
  const std::string dir = options_.IndexDir();
  if (dir.empty()) {
    return Status::FailedPrecondition("engine: no index directory configured");
  }
  index::IndexStore store(io(), dir, options_.index_retain);
  IndexMap indexes;
  StatusOr<index::IndexLoadReport> report = store.Load(&indexes);
  if (!report.ok()) return report;
  NEWSDIFF_RETURN_IF_ERROR(Publish(std::move(indexes), report->generation));
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

StatusOr<std::vector<QueryHit>> Engine::QueryTrending(
    const std::string& query, size_t k, index::QueryStats* stats) const {
  counters_.trending_queries.fetch_add(1, std::memory_order_relaxed);
  // Pin the current generation: a concurrent BuildIndex/LoadIndex swap
  // retires the snapshot we are reading only after this handle releases it.
  std::shared_ptr<const ServingData> snapshot = ServingSnapshot();
  return QueryOn(*snapshot, kNewsIndex, text::PreprocessNewsED(query), k,
                 stats);
}

namespace {

/// Copies the feature rows of `hits` (dense doc ids of the generation that
/// owns `tweet_features`) into `out`, starting at `first_row`.
void GatherCandidateFeatures(const la::Matrix& tweet_features,
                             const std::vector<QueryHit>& hits,
                             la::Matrix* out, size_t first_row) {
  size_t row = first_row;
  for (const QueryHit& h : hits) {
    std::copy_n(tweet_features.RowPtr(h.doc), tweet_features.cols(),
                out->RowPtr(row++));
  }
}

}  // namespace

StatusOr<la::Matrix> Engine::Score(const ServingData& data,
                                   const la::Matrix& features) const {
  // A hit exists only in a generation that holds tweets, and every such
  // generation holds its model.
  StatusOr<la::Matrix> probs = data.model->Predict(features);
  if (probs.ok()) {
    counters_.forward_passes.fetch_add(1, std::memory_order_relaxed);
    counters_.rows_scored.fetch_add(features.rows(),
                                    std::memory_order_relaxed);
  }
  return probs;
}

InterestPrediction Engine::CombineModelPrediction(std::vector<QueryHit> hits,
                                                  const la::Matrix& probs,
                                                  size_t first_row,
                                                  uint64_t generation) const {
  InterestPrediction prediction;
  const size_t num_classes = probs.cols();
  prediction.class_weights.assign(num_classes, 0.0);

  // Retrieval-score-weighted average of the per-candidate class
  // distributions. Each softmax row sums to ~1, so the averaged weights do
  // too without an explicit renormalisation.
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
  prediction.generation = generation;
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
  la::Matrix features(hits->size(), snapshot->tweet_features.cols());
  GatherCandidateFeatures(snapshot->tweet_features, *hits, &features, 0);
  StatusOr<la::Matrix> probs = Score(*snapshot, features);
  if (!probs.ok()) {
    counters_.serving_errors.fetch_add(1, std::memory_order_relaxed);
    return probs.status();
  }
  counters_.model_predictions.fetch_add(1, std::memory_order_relaxed);
  return CombineModelPrediction(std::move(*hits), *probs, 0,
                                snapshot->generation);
}

std::vector<StatusOr<InterestPrediction>> Engine::PredictInterestBatch(
    const std::vector<std::string>& drafts, size_t k) const {
  std::vector<StatusOr<InterestPrediction>> results;
  results.reserve(drafts.size());
  std::shared_ptr<const ServingData> snapshot = ServingSnapshot();

  // Retrieval pass: collect candidates per draft and count their total
  // feature rows so all drafts share ONE inference call.
  struct Pending {
    size_t result_index = 0;
    std::vector<QueryHit> hits;
    size_t first_row = 0;
  };
  std::vector<Pending> pending;
  size_t total_rows = 0;
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
  StatusOr<la::Matrix> probs = Score(*snapshot, features);
  if (!probs.ok()) {
    for (Pending& p : pending) {
      counters_.serving_errors.fetch_add(1, std::memory_order_relaxed);
      results[p.result_index] = probs.status();
    }
    return results;
  }
  for (Pending& p : pending) {
    counters_.model_predictions.fetch_add(1, std::memory_order_relaxed);
    results[p.result_index] = CombineModelPrediction(
        std::move(p.hits), *probs, p.first_row, snapshot->generation);
  }
  return results;
}

}  // namespace newsdiff
