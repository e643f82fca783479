#ifndef NEWSDIFF_CORE_ENGINE_H_
#define NEWSDIFF_CORE_ENGINE_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/file_io.h"
#include "common/parallel.h"
#include "common/status.h"
#include "core/pipeline.h"
#include "core/predictor.h"
#include "core/supervisor.h"
#include "index/index.h"
#include "la/matrix.h"
#include "serve/inference_server.h"
#include "store/database.h"

namespace newsdiff {

/// The one configuration aggregate for the public Engine API. Before this
/// existed, callers assembled Parallelism, KernelConfig, PipelineOptions,
/// PredictorOptions, and the supervisor's snapshot/WAL/lease knobs by hand
/// and had to keep the embedded copies consistent themselves. EngineOptions
/// owns the authoritative copy of each and hands the per-module views out
/// itself: set `parallelism` once here and every module view carries it.
struct EngineOptions {
  /// Execution parallelism for every compute path — pipeline stages, the
  /// blocked GEMM kernels (via the embedded KernelConfig), and predictor
  /// training. This field is authoritative: the copies inside `pipeline`
  /// and `predictor` are overwritten by the view accessors.
  Parallelism parallelism;

  /// Analysis-pipeline stage configuration (thresholds, slice widths).
  core::PipelineOptions pipeline;

  /// Interest-predictor training regime (§5.6 networks).
  core::PredictorOptions predictor;

  /// Durability: snapshot directory, WAL, writer lease. The supervisor view
  /// is handed to PipelineSupervisor unchanged.
  core::SupervisorOptions supervisor;

  /// Inverted-index build parameters (block size, BM25 k1/b).
  index::IndexOptions index;

  /// Where index generations live. Empty uses
  /// `<supervisor.snapshot_dir>/index` when a snapshot dir is set, and
  /// disables index persistence otherwise (queries still work in memory).
  std::string index_dir;

  /// Index generations kept on disk (>= 1).
  size_t index_retain = 2;

  /// Filesystem seam for index persistence; nullptr = DefaultFileIo().
  /// Tests point this at the storage fault injector.
  FileIo* io = nullptr;

  /// Model serving: PredictInterest reranks retrieved candidates through
  /// a small MLP (trained per BuildIndex over hashed features) served by
  /// the InferenceServer on the caller's thread.
  serve::ServingOptions serving;

  /// Per-module views: the aggregate copied down with the authoritative
  /// `parallelism` substituted in.
  core::PipelineOptions PipelineView() const;
  core::PredictorOptions PredictorView() const;
  core::SupervisorOptions SupervisorView() const;
  serve::ServingOptions ServingView() const;
  /// Resolved index directory (may be empty: in-memory only).
  std::string IndexDir() const;
};

/// One ranked document from an Engine query, joined with its DocInfo.
struct QueryHit {
  uint32_t doc = 0;          // dense id inside the queried index
  int64_t external_id = 0;   // store DocId of the article / tweet
  int64_t timestamp = 0;     // published / created time
  double score = 0.0;        // BM25 score
  double label = 0.0;        // carried label (tweets: Table-2 likes class)
  /// Model-predicted expected interest class (sum_c c * P(c)); 0 on the
  /// BM25-vote fallback path.
  double model_score = 0.0;
};

/// PredictInterest outcome. With a model generation installed the
/// retrieved candidates are scored by the trained MLP and the class weights
/// are the retrieval-score-weighted average of the model's per-candidate
/// class probabilities (neighbors come back reranked by model interest);
/// without one (or without feature rows, e.g. after LoadIndex or Recover),
/// the BM25 class vote.
struct InterestPrediction {
  int predicted_class = 0;            // argmax of class_weights
  std::vector<double> class_weights;  // per-class mass, normalised to 1
  double confidence = 0.0;            // class_weights[predicted_class]
  std::vector<QueryHit> neighbors;    // the supporting tweets
  bool model_reranked = false;        // true when the MLP scored the hits
  uint64_t model_version = 0;         // generation that scored the hits
};

/// A point-in-time copy of the Engine's serving counters. The counters
/// themselves are relaxed atomics bumped on the serving hot path (the load
/// harness's stats hook); Engine::stats() materialises this plain snapshot
/// so callers can diff before/after a run without touching atomics.
struct EngineStatsSnapshot {
  uint64_t trending_queries = 0;     // QueryTrending calls
  uint64_t interest_predictions = 0; // PredictInterest calls
  uint64_t serving_errors = 0;       // non-OK, non-NotFound outcomes
  uint64_t not_found = 0;            // PredictInterest with no matching tweet
  uint64_t index_swaps = 0;          // BuildIndex / LoadIndex generation swaps
  uint64_t docs_scored = 0;          // summed QueryStats::docs_scored
  uint64_t blocks_decoded = 0;       // summed QueryStats::blocks_decoded
  // Inference telemetry, merged from InferenceServerStats.
  uint64_t model_predictions = 0;    // PredictInterest answered by the MLP
  uint64_t inference_batches = 0;    // model forward passes
  uint64_t inference_batched_rows = 0;  // feature rows scored
  // Always 0: inference runs on the caller's thread, so nothing queues or
  // sheds. Kept for perfbench/serve_read.cc, which reports it.
  uint64_t inference_queue_rejections = 0;
  uint64_t model_swaps = 0;          // serving-model generations installed
};

/// What Engine::BuildIndex produced.
struct BuildIndexReport {
  size_t news_docs = 0;
  size_t tweet_docs = 0;
  size_t news_terms = 0;
  size_t tweet_terms = 0;
  /// Generation committed to disk (0 when persistence is disabled).
  uint64_t generation = 0;
};

/// The public serving facade: one object that owns the supervised analysis
/// pipeline (offline refresh), the durable document store recovery, and the
/// online top-k query path over block-compressed inverted indexes. All
/// entrypoints return Status/StatusOr — no bool-or-crash seams.
///
///   newsdiff::Engine engine(options);
///   engine.Recover(db);                    // load snapshot + newest index
///   engine.RunPipeline(db, embeddings);    // offline refresh (§4 stages)
///   engine.BuildIndex(db);                 // invert news + tweets
///   engine.QueryTrending("federal bank rate", 10);
///   engine.PredictInterest(draft_text, 50);
///
/// Queries are served from two indexes named "news" and "tweets", built
/// with the same text pipelines the offline stages use (PreprocessNewsED /
/// PreprocessTwitterED), so online tokenisation matches the corpora
/// byte-for-byte. Rankings are exactly the brute-force BM25 ranking — the
/// index only changes the cost, never the answer (see index/index.h).
///
/// Concurrency: QueryTrending / PredictInterest are safe to call from any
/// number of threads concurrently with BuildIndex / LoadIndex. The index
/// map lives behind an immutable shared_ptr snapshot that a swap replaces
/// atomically: in-flight queries keep the generation they started on alive
/// until they finish, and never observe a half-built map. The offline
/// entrypoints (Recover, RunPipeline, BuildIndex over a mutating Database)
/// are NOT safe against concurrent writers of the same Database — the load
/// driver serialises store writes behind its own mutex (loadgen/driver.h).
class Engine {
 public:
  using IndexMap = std::map<std::string, index::InvertedIndex>;

  explicit Engine(EngineOptions options);

  const EngineOptions& options() const { return options_; }

  /// Restores the document store from the newest intact snapshot and loads
  /// the newest intact index generation. Missing state is not an error —
  /// a fresh deployment recovers to empty.
  Status Recover(store::Database& db);

  /// Runs the supervised analysis pipeline (checkpointed, WAL-synced, and
  /// lease-fenced per the supervisor options).
  StatusOr<core::PipelineResult> RunPipeline(
      store::Database& db, const embed::PretrainedStore& embeddings);

  /// Inverts the store's "news" and "tweets" collections into the two
  /// query indexes and commits them as one new generation (when an index
  /// directory is configured). Tweet DocInfo labels carry the Table-2
  /// likes class, which PredictInterest votes over.
  StatusOr<BuildIndexReport> BuildIndex(store::Database& db);

  /// Loads the newest intact index generation from disk, replacing the
  /// in-memory indexes. No directory configured → kFailedPrecondition.
  StatusOr<index::IndexLoadReport> LoadIndex();

  /// Top-k articles for a free-text query against the "news" index.
  /// kFailedPrecondition until an index is built or loaded.
  StatusOr<std::vector<QueryHit>> QueryTrending(
      const std::string& query, size_t k,
      index::QueryStats* stats = nullptr) const;

  /// Audience-interest estimate for a draft article: retrieves the top-k
  /// most similar tweets and — when the serving model is live — scores
  /// them through the inference server on this thread, weighting each
  /// candidate's class probabilities by its retrieval score. Falls back
  /// to the BM25 class vote until a model is trained (BuildIndex trains
  /// one per generation) or when the snapshot has no feature rows
  /// (LoadIndex, Recover). Returns kNotFound when nothing matches.
  StatusOr<InterestPrediction> PredictInterest(
      const std::string& draft, size_t k,
      index::QueryStats* stats = nullptr) const;

  /// Scores many drafts in one call: all candidates retrieved for all
  /// drafts are concatenated into a single inference batch (one GEMM
  /// chain), then split back per draft. Each answer is bitwise equal to
  /// the corresponding PredictInterest call. Per-draft failures (e.g. no
  /// matching tweets) come back as that element's Status without failing
  /// the rest.
  std::vector<StatusOr<InterestPrediction>> PredictInterestBatch(
      const std::vector<std::string>& drafts, size_t k) const;

  /// The current index generation as an immutable snapshot. Holding the
  /// returned shared_ptr keeps that generation alive across any number of
  /// concurrent BuildIndex / LoadIndex swaps — the handle concurrent
  /// readers (and the load driver's workers) query through.
  std::shared_ptr<const IndexMap> IndexSnapshot() const;

  /// The named index ("news" / "tweets") in the current snapshot, or
  /// nullptr. The pointer is valid until the next swap retires the
  /// snapshot; concurrent callers should hold IndexSnapshot() instead.
  const index::InvertedIndex* GetIndex(const std::string& name) const;

  /// Index generation currently in memory (0 = unsaved / in-memory only).
  uint64_t index_generation() const {
    return index_generation_.load(std::memory_order_relaxed);
  }

  /// Serving counters since construction (see EngineStatsSnapshot).
  EngineStatsSnapshot stats() const;

  /// The inference server PredictInterest scores through (never null).
  /// Benches use it to time the model layer on its own.
  serve::InferenceServer* inference_server() const {
    return inference_.get();
  }

  /// Serving-model generation currently installed (0 = none yet).
  uint64_t model_version() const { return inference_->model_version(); }

  /// Escape hatch to the supervisor for follower/promotion flows.
  core::PipelineSupervisor& supervisor() { return supervisor_; }

 private:
  /// Everything one PredictInterest needs pinned together: the index
  /// generation AND the candidate feature rows aligned with the "tweets"
  /// index's dense doc ids. One shared_ptr swap publishes both, so a
  /// query can never score generation-G docs with generation-G' features.
  struct ServingData {
    IndexMap indexes;
    la::Matrix tweet_features;
  };

  /// Relaxed atomics bumped on the serving hot path. Relaxed is enough:
  /// the counters are monotonic telemetry, never used for synchronisation.
  struct Counters {
    std::atomic<uint64_t> trending_queries{0};
    std::atomic<uint64_t> interest_predictions{0};
    std::atomic<uint64_t> serving_errors{0};
    std::atomic<uint64_t> not_found{0};
    std::atomic<uint64_t> index_swaps{0};
    std::atomic<uint64_t> docs_scored{0};
    std::atomic<uint64_t> blocks_decoded{0};
    std::atomic<uint64_t> model_predictions{0};
  };

  FileIo& io() const;
  std::shared_ptr<const ServingData> ServingSnapshot() const;
  StatusOr<std::vector<QueryHit>> QueryOn(const ServingData& data,
                                          const std::string& index_name,
                                          const std::vector<std::string>& terms,
                                          size_t k,
                                          index::QueryStats* stats) const;
  StatusOr<std::vector<QueryHit>> Query(const std::string& index_name,
                                        const std::vector<std::string>& terms,
                                        size_t k,
                                        index::QueryStats* stats) const;
  /// Publishes a serving snapshot (indexes, plus candidate features when
  /// BuildIndex made them) as the new generation.
  void SwapServing(ServingData data, uint64_t generation);
  /// Combines retrieval hits and per-candidate model probabilities into a
  /// prediction (weights normalised, neighbors reranked by model score).
  InterestPrediction CombineModelPrediction(std::vector<QueryHit> hits,
                                            const la::Matrix& probs,
                                            size_t first_row) const;
  /// BM25 class vote over the hits (the pre-model fallback path).
  InterestPrediction VotePrediction(std::vector<QueryHit> hits) const;

  EngineOptions options_;
  core::PipelineSupervisor supervisor_;
  /// Guards the snapshot pointer only; the pointee is immutable.
  mutable std::mutex index_mu_;
  std::shared_ptr<const ServingData> serving_;
  std::atomic<uint64_t> index_generation_{0};
  std::atomic<uint64_t> model_generation_{0};
  std::unique_ptr<serve::InferenceServer> inference_;
  mutable Counters counters_;
};

}  // namespace newsdiff

#endif  // NEWSDIFF_CORE_ENGINE_H_
