#ifndef NEWSDIFF_CORE_PREDICTOR_H_
#define NEWSDIFF_CORE_PREDICTOR_H_

#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/status.h"
#include "la/matrix.h"
#include "nn/architectures.h"
#include "nn/model.h"

namespace newsdiff::core {

/// The four tuned network configurations of §5.6:
///   MLP 1: MLP + SGD, lr = 0.5      MLP 2: MLP + ADADELTA, lr = 2
///   CNN 1: CNN + SGD, lr = 0.5      CNN 2: CNN + ADADELTA, lr = 2
enum class NetworkKind { kMlp1, kMlp2, kCnn1, kCnn2 };

const char* NetworkKindName(NetworkKind k);
const std::vector<NetworkKind>& AllNetworkKinds();

struct PredictorOptions {
  /// Architecture sizes (scaled for a single-core reproduction; the paper's
  /// shapes, smaller widths).
  std::vector<size_t> mlp_hidden = {64, 32};
  size_t cnn_filters = 8;
  size_t cnn_kernel = 8;
  size_t cnn_pool = 4;
  size_t cnn_dense = 32;
  size_t num_classes = 3;
  /// Training regime.
  size_t max_epochs = 100;
  size_t batch_size = 128;
  nn::EarlyStoppingOptions early_stopping{true, 1e-4, 5};
  double test_fraction = 0.2;
  uint64_t seed = 99;
  /// Standardize each feature column (z-score, statistics from the training
  /// split only) before training. Keeps the metadata one-hots on the same
  /// footing as the embedding coordinates so the optimizer can exploit both.
  bool standardize = true;
  /// If a fit collapses to the majority class (accuracy within 0.02 of the
  /// majority share) and stopped early, restart with a fresh init seed up
  /// to this many times and keep the best outcome.
  size_t max_restarts = 2;
  /// Global gradient-norm clip passed to the trainer (0 disables; the
  /// paper's Keras setup does not clip).
  double clip_norm = 5.0;
  /// Optimizer settings (paper values).
  double sgd_learning_rate = 0.5;
  double sgd_momentum = 0.0;
  double adadelta_learning_rate = 2.0;
  /// Execution parallelism forwarded to nn::FitOptions (see the determinism
  /// notes there — trained weights do not depend on `threads`).
  Parallelism parallelism;
  /// Coarse-grain parallelism for CrossValidate: whole folds run as tasks
  /// on the shared pool. Folds are fully seed-isolated (each derives its
  /// own RNG from seed + fold * 977, trains a fresh model, and writes a
  /// disjoint result slot), and any intra-op ParallelFor issued from inside
  /// a fold executes inline, so fold results are bitwise identical to a
  /// serial run at ANY fold parallelism. Defaults to serial folds.
  Parallelism fold_parallelism;
};

/// Outcome of one train/evaluate run on a held-out split.
struct EvalOutcome {
  double accuracy = 0.0;          // plain categorical accuracy
  double average_accuracy = 0.0;  // the paper's Eq. 17
  size_t train_size = 0;
  size_t test_size = 0;
  nn::FitHistory history;
};

/// Builds the network for `kind`, splits (x, y) into train/validation with
/// a seeded shuffle, trains with the kind's optimizer, and evaluates on the
/// held-out part.
StatusOr<EvalOutcome> TrainAndEvaluate(const la::Matrix& x,
                                       const std::vector<int>& y,
                                       NetworkKind kind,
                                       const PredictorOptions& options);

/// Z-scores every column of `train` and `held_out` in place with the mean
/// and population standard deviation of `train`'s columns (a deviation
/// under 1e-9 counts as 1): the `standardize` step of TrainAndEvaluate and
/// of each CrossValidate fold.
void StandardizeColumns(la::Matrix& train, la::Matrix& held_out);

/// Builds just the model for `kind` with the given input width (benches use
/// this for timing runs).
nn::Model BuildNetwork(NetworkKind kind, size_t input_size,
                       const PredictorOptions& options);

/// Builds the optimizer for `kind`.
std::unique_ptr<nn::Optimizer> BuildOptimizer(NetworkKind kind,
                                              const PredictorOptions& options);

}  // namespace newsdiff::core

#endif  // NEWSDIFF_CORE_PREDICTOR_H_
