#ifndef NEWSDIFF_SERVE_INFERENCE_SERVER_H_
#define NEWSDIFF_SERVE_INFERENCE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>

#include "common/parallel.h"
#include "common/status.h"
#include "la/matrix.h"
#include "la/weight_cache.h"
#include "nn/model.h"
#include "serve/trainer.h"

namespace newsdiff::serve {

/// Relaxed-consistency counters: each field is exact on its own, but a
/// snapshot taken mid-call may pair a new `forward_passes` with old `rows`.
struct InferenceServerStats {
  uint64_t forward_passes = 0;  ///< Predict calls that ran the model.
  uint64_t rows = 0;            ///< Feature rows across those calls.
  uint64_t model_swaps = 0;     ///< LoadModel calls.
};

/// Serves the interest model: Predict runs the forward pass on the calling
/// thread, with the model's dense weights served from a cross-call packed
/// cache. Callers batch explicitly (Engine::PredictInterestBatch scores
/// every draft's candidates in one call); there is no queue, so a call
/// never waits for, or is shaped by, another caller's rows.
///
/// Model lifecycle mirrors Engine::IndexSnapshot(): LoadModel RCU-swaps a
/// shared_ptr<ModelEntry>; a call pins the generation it started on, and
/// the packed-weight cache swaps per-layer entries keyed on the version.
/// Determinism: every output row's arithmetic reads only its own input
/// row, so Predict(batch-of-N) row i is bitwise equal to Predict(row i).
class InferenceServer {
 public:
  using Result = StatusOr<la::Matrix>;

  /// `parallelism` is pushed into every loaded model's layers.
  explicit InferenceServer(const Parallelism& parallelism);

  InferenceServer(const InferenceServer&) = delete;
  InferenceServer& operator=(const InferenceServer&) = delete;

  /// Installs `model` as generation `version` (RCU swap; never blocks
  /// in-flight calls). Binds the model's dense weights to the packed
  /// cache and packs them before publishing, so no call pays the pack.
  void LoadModel(nn::Model model, uint64_t version);

  bool has_model() const;
  uint64_t model_version() const;

  /// Row-wise class probabilities (n x num_classes) for `features`
  /// (n x input_size), scored by one model generation. When `version` is
  /// non-null it receives that generation, so a caller can label the
  /// answer even if a LoadModel lands mid-call. Fails with
  /// kFailedPrecondition (no model) or kInvalidArgument (shape).
  Result Predict(const la::Matrix& features, uint64_t* version = nullptr);

  InferenceServerStats stats() const;
  la::WeightCacheStats cache_stats() const { return cache_.stats(); }

 private:
  /// A loaded model generation. `mu` serializes forward passes (layers
  /// keep no per-call scratch, but Forward is not reentrant by contract).
  struct ModelEntry {
    nn::Model model;
    uint64_t version = 0;
    std::mutex mu;
    explicit ModelEntry(nn::Model m, uint64_t v)
        : model(std::move(m)), version(v) {}
  };

  std::shared_ptr<ModelEntry> ModelSnapshot() const;

  Parallelism parallelism_;
  la::PackedWeightCache cache_;

  mutable std::mutex model_mu_;
  std::shared_ptr<ModelEntry> model_;  // null until first LoadModel

  std::atomic<uint64_t> forward_passes_{0};
  std::atomic<uint64_t> rows_{0};
  std::atomic<uint64_t> model_swaps_{0};
};

/// Engine-facing serving configuration: the interest model each
/// BuildIndex trains and installs in the InferenceServer.
struct ServingOptions {
  InterestModelOptions model;
};

}  // namespace newsdiff::serve

#endif  // NEWSDIFF_SERVE_INFERENCE_SERVER_H_
