#ifndef NEWSDIFF_SERVE_TRAINER_H_
#define NEWSDIFF_SERVE_TRAINER_H_

#include <vector>

#include "common/parallel.h"
#include "common/status.h"
#include "la/matrix.h"
#include "nn/model.h"

namespace newsdiff::serve {

/// Configuration for the serving-side interest model: a small MLP over the
/// hashed features (serve/features.h), trained per serving generation. The
/// budget knobs (max_rows, epochs) keep a rebuild-with-retrain sub-second
/// even on the full datagen worlds — the rebuild happens while traffic is
/// being served, so training cost is serving stall.
struct InterestModelOptions {
  size_t feature_dim = 64;
  std::vector<size_t> hidden = {48, 24};
  size_t num_classes = 3;
  size_t epochs = 6;
  size_t batch_size = 256;
  /// Deterministic stride-subsample cap on the training set.
  size_t max_rows = 4000;
  uint64_t seed = 77;
  double learning_rate = 0.2;
  double momentum = 0.9;
  Parallelism parallelism;
};

/// Trains the interest MLP on (x, labels). Deterministic for a fixed
/// options struct: seeded init, seeded shuffle, fixed epoch count (early
/// stopping off), and the thread-invariant Fit contract.
StatusOr<nn::Model> TrainInterestModel(const la::Matrix& x,
                                       const std::vector<int>& labels,
                                       const InterestModelOptions& options);

}  // namespace newsdiff::serve

#endif  // NEWSDIFF_SERVE_TRAINER_H_
