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
#include "core/supervisor.h"
#include "index/index.h"
#include "la/matrix.h"
#include "serve/inference_server.h"
#include "store/database.h"

namespace newsdiff {

/// The one configuration aggregate for the public Engine API: the pipeline,
/// the supervisor's snapshot/WAL/lease knobs, the index and the serving
/// model. It holds only what the Engine reads, and hands the per-module
/// views out itself: set `parallelism` once here and every view carries it.
struct EngineOptions {
  /// Execution parallelism for every compute path — pipeline stages and
  /// serving-model training. This field is authoritative: the copies
  /// inside `pipeline` and `serving.model` are overwritten by the views.
  Parallelism parallelism;

  /// Analysis-pipeline stage configuration (thresholds, slice widths).
  core::PipelineOptions pipeline;

  /// Durability: snapshot directory, WAL, writer lease. Handed to
  /// PipelineSupervisor unchanged.
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
  /// a small MLP, trained per serving generation over hashed features of
  /// its tweets index and scored on the caller's thread. Its
  /// `model.num_classes` is the class space answers are given in: the
  /// Table-2 likes classes the tweets index carries as labels.
  serve::ServingOptions serving;

  /// Per-module views: the aggregate copied down with the authoritative
  /// `parallelism` substituted in.
  core::PipelineOptions PipelineView() const;
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
  /// Model-predicted expected interest class (sum_c c * P(c)); 0 for
  /// QueryTrending hits.
  double model_score = 0.0;
};

/// PredictInterest outcome: the retrieved candidates are scored by the
/// serving generation's MLP, and the class weights are the
/// retrieval-score-weighted average of the model's per-candidate class
/// probabilities (neighbors come back reranked by model interest). Every
/// generation that holds a tweet holds its model, so there is no other
/// path.
struct InterestPrediction {
  int predicted_class = 0;            // argmax of class_weights
  std::vector<double> class_weights;  // per-class mass, normalised to 1
  double confidence = 0.0;            // class_weights[predicted_class]
  std::vector<QueryHit> neighbors;    // the supporting tweets
  /// Always true: the MLP scored the hits. Kept for perfbench/serve_read.cc,
  /// which checks it.
  bool model_reranked = false;
  uint64_t generation = 0;            // serving generation that answered
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
  uint64_t index_swaps = 0;          // serving generations published
  uint64_t docs_scored = 0;          // summed QueryStats::docs_scored
  uint64_t blocks_decoded = 0;       // summed QueryStats::blocks_decoded
  uint64_t model_predictions = 0;    // PredictInterest answers (all scored)
  uint64_t inference_batches = 0;    // model forward passes
  uint64_t inference_batched_rows = 0;  // feature rows scored
  // Always 0: inference runs on the caller's thread, so nothing queues or
  // sheds. Kept for perfbench/serve_read.cc, which reports it.
  uint64_t inference_queue_rejections = 0;
};

/// What Engine::BuildIndex produced.
struct BuildIndexReport {
  size_t news_docs = 0;
  size_t tweet_docs = 0;
  size_t news_terms = 0;
  size_t tweet_terms = 0;
  /// Serving generation published: the INDEX-<gen> number committed to
  /// disk, or the previous generation + 1 when persistence is disabled.
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
/// Serving generations: BuildIndex (after its save commits) and LoadIndex
/// publish through one function, which derives the tweet features and the
/// interest model from the indexes alone. A generation is thus a pure
/// function of INDEX-<gen> and EngineOptions, and a restart serves the
/// writer's answers bit for bit with no model on disk. One number names
/// it in BuildIndexReport, generation() and every InterestPrediction.
///
/// Concurrency: QueryTrending / PredictInterest are safe to call from any
/// number of threads concurrently with BuildIndex / LoadIndex. Indexes,
/// features and model live behind one immutable shared_ptr snapshot that
/// a swap replaces atomically: in-flight queries keep the generation they
/// started on alive until they finish, and never observe a half-built or
/// mixed one. The offline entrypoints (Recover, RunPipeline, BuildIndex
/// over a mutating Database) are NOT safe against concurrent writers of
/// the same Database — the load driver serialises store writes behind its
/// own mutex (loadgen/driver.h).
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
  /// query indexes, commits them as INDEX-<gen> (when an index directory
  /// is configured), and only then publishes them as the serving
  /// generation. A failed save publishes nothing. Tweet DocInfo labels
  /// carry the Table-2 likes class the model is trained on.
  StatusOr<BuildIndexReport> BuildIndex(store::Database& db);

  /// Loads the newest intact index generation from disk and publishes it,
  /// re-deriving its model. No directory configured → kFailedPrecondition.
  StatusOr<index::IndexLoadReport> LoadIndex();

  /// Top-k articles for a free-text query against the "news" index.
  /// kFailedPrecondition until an index is built or loaded.
  StatusOr<std::vector<QueryHit>> QueryTrending(
      const std::string& query, size_t k,
      index::QueryStats* stats = nullptr) const;

  /// Audience-interest estimate for a draft article: retrieves the top-k
  /// most similar tweets and scores them with the pinned generation's
  /// model on this thread, weighting each candidate's class probabilities
  /// by its retrieval score. Returns kNotFound when nothing matches.
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

  /// The current generation's indexes as an immutable snapshot. Holding
  /// the returned shared_ptr keeps that generation alive across any number
  /// of concurrent BuildIndex / LoadIndex swaps — the handle concurrent
  /// readers (and the load driver's workers) query through.
  std::shared_ptr<const IndexMap> IndexSnapshot() const;

  /// The named index ("news" / "tweets") in the current snapshot, or
  /// nullptr. The pointer is valid until the next swap retires the
  /// snapshot; concurrent callers should hold IndexSnapshot() instead.
  const index::InvertedIndex* GetIndex(const std::string& name) const;

  /// The serving generation's number (0 = nothing published, or an empty
  /// index directory loaded).
  uint64_t generation() const { return ServingSnapshot()->generation; }

  /// Serving counters since construction (see EngineStatsSnapshot).
  EngineStatsSnapshot stats() const;

  /// Scores the current generation's model (never null). PredictInterest
  /// does not go through it; benches use it to time the model layer on
  /// its own.
  serve::InferenceServer* inference_server() const {
    return inference_.get();
  }

  /// Escape hatch to the supervisor for follower/promotion flows.
  core::PipelineSupervisor& supervisor() { return supervisor_; }

 private:
  /// One serving generation: everything a query or prediction reads,
  /// pinned together. One shared_ptr swap publishes all of it, so a query
  /// can never score generation-G docs with generation-G' features or
  /// model.
  struct ServingData {
    IndexMap indexes;
    /// Hashed features of the "tweets" index, row r = dense doc id r.
    la::Matrix tweet_features;
    /// The interest model trained on them; null only when the generation
    /// holds no tweets, where PredictInterest answers kNotFound first.
    std::unique_ptr<serve::ServingModel> model;
    uint64_t generation = 0;
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
    std::atomic<uint64_t> forward_passes{0};
    std::atomic<uint64_t> rows_scored{0};
  };

  FileIo& io() const;
  std::shared_ptr<const ServingData> ServingSnapshot() const;
  StatusOr<std::vector<QueryHit>> QueryOn(const ServingData& data,
                                          const std::string& index_name,
                                          const std::vector<std::string>& terms,
                                          size_t k,
                                          index::QueryStats* stats) const;
  /// The one publish path: derives the tweet features and the interest
  /// model from `indexes` and swaps all of it in as `generation`. Publishes
  /// nothing if training fails.
  Status Publish(IndexMap indexes, uint64_t generation);
  /// Scores `features` with `data`'s model and counts the forward pass.
  StatusOr<la::Matrix> Score(const ServingData& data,
                             const la::Matrix& features) const;
  /// Combines retrieval hits and per-candidate model probabilities into a
  /// prediction (weights normalised, neighbors reranked by model score).
  InterestPrediction CombineModelPrediction(std::vector<QueryHit> hits,
                                            const la::Matrix& probs,
                                            size_t first_row,
                                            uint64_t generation) const;

  EngineOptions options_;
  core::PipelineSupervisor supervisor_;
  /// Guards the snapshot pointer only; the pointee is immutable.
  mutable std::mutex index_mu_;
  std::shared_ptr<const ServingData> serving_;
  std::unique_ptr<serve::InferenceServer> inference_;
  mutable Counters counters_;
};

}  // namespace newsdiff

#endif  // NEWSDIFF_CORE_ENGINE_H_
