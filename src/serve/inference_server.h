#ifndef NEWSDIFF_SERVE_INFERENCE_SERVER_H_
#define NEWSDIFF_SERVE_INFERENCE_SERVER_H_

#include <functional>
#include <memory>
#include <mutex>
#include <utility>

#include "common/status.h"
#include "la/matrix.h"
#include "nn/model.h"
#include "serve/trainer.h"

namespace newsdiff::serve {

/// One generation's interest model, frozen for serving: its dense weights
/// are packed once, here (nn::Model::Prepack), and Predict runs the
/// forward pass on the calling thread. Callers batch explicitly
/// (Engine::PredictInterestBatch scores every draft's candidates in one
/// call). Determinism: every output row's arithmetic reads only its own
/// input row, so Predict(batch-of-N) row i is bitwise equal to
/// Predict(row i), and both equal the unpacked model's PredictProba.
class ServingModel {
 public:
  explicit ServingModel(nn::Model model);

  /// Row-wise class probabilities (n x num_classes) for `features`
  /// (n x input_size). kInvalidArgument on a width mismatch.
  StatusOr<la::Matrix> Predict(const la::Matrix& features);

 private:
  /// Serialises forward passes: layers keep no per-call scratch, but
  /// Forward is not reentrant by contract.
  std::mutex mu_;
  nn::Model model_;
};

/// Scores the current generation's model on the calling thread. The
/// Engine scores with the generation each request pinned, not through
/// here; this handle lets benches time the model layer on its own.
class InferenceServer {
 public:
  using Result = StatusOr<la::Matrix>;
  /// Returns the current generation's model, or null when none is served.
  using ModelSource = std::function<std::shared_ptr<ServingModel>()>;

  explicit InferenceServer(ModelSource current)
      : current_(std::move(current)) {}

  /// ServingModel::Predict on the current model; kFailedPrecondition when
  /// there is none.
  Result Predict(const la::Matrix& features) const;

 private:
  ModelSource current_;
};

/// Engine-facing serving configuration: the interest model each serving
/// generation trains from its tweets index.
struct ServingOptions {
  InterestModelOptions model;
};

}  // namespace newsdiff::serve

#endif  // NEWSDIFF_SERVE_INFERENCE_SERVER_H_
