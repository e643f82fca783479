#ifndef NEWSDIFF_NN_MODEL_H_
#define NEWSDIFF_NN_MODEL_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/file_io.h"
#include "common/status.h"
#include "la/matrix.h"
#include "nn/layer.h"
#include "nn/metrics.h"
#include "nn/optimizer.h"

namespace newsdiff::nn {

/// Early-stopping configuration: stop when the training loss fails to
/// improve by at least `min_delta` for `patience` consecutive epochs —
/// the "no change in the loss function from one epoch to the next"
/// mechanism of §5.6.
struct EarlyStoppingOptions {
  bool enabled = true;
  double min_delta = 1e-4;
  size_t patience = 3;
};

/// Self-healing training (§4.9 spirit: the deployment resumes "from
/// checkpoints or from scratch"). When enabled, Fit snapshots the full
/// training state after every good epoch; an epoch that produces a
/// non-finite or exploding loss — or non-finite weights — is rolled back
/// and re-run with the learning rate multiplied by `lr_backoff`, instead
/// of training onward through NaNs. With a `checkpoint_path`, the snapshot
/// is also persisted (atomically, checksummed) so a killed process can
/// resume mid-run and reproduce the uninterrupted run's weights exactly.
struct RecoveryOptions {
  bool enabled = false;
  /// An epoch loss above explode_factor * (first good epoch's loss) counts
  /// as divergence even while still finite.
  double explode_factor = 1e3;
  /// Learning-rate multiplier applied on each rollback.
  double lr_backoff = 0.5;
  /// Rollbacks allowed across the whole run before Fit gives up with an
  /// error (a dataset full of NaNs cannot be healed by a smaller step).
  size_t max_rollbacks = 12;
  /// Training checkpoint file; empty keeps rollback in-memory only.
  std::string checkpoint_path;
  /// Persist every N good epochs (only with a checkpoint_path).
  size_t checkpoint_every = 1;
  /// Resume from checkpoint_path when it holds a valid checkpoint for this
  /// architecture. The caller passes the optimizer at its *original*
  /// learning rate; the checkpointed backoff is re-applied on load.
  bool resume = false;
  /// Filesystem seam for checkpoint IO (nullptr = real filesystem).
  FileIo* io = nullptr;
  /// Fault-injection seam for tests/benches: when set and returning true
  /// for an epoch, that epoch's weights are poisoned with NaN after the
  /// update step — a deterministic stand-in for a numeric blowup.
  std::function<bool(size_t epoch)> corrupt_epoch_hook;
};

/// Training configuration.
struct FitOptions {
  size_t epochs = 500;
  size_t batch_size = 5000;  // the paper's batch size (§5.7)
  EarlyStoppingOptions early_stopping;
  /// Shuffle the training set each epoch.
  bool shuffle = true;
  /// Clip the global gradient norm to this value before each optimizer
  /// step (0 disables). Keeps large-learning-rate configurations (the
  /// paper's SGD lr = 0.5) stable.
  double clip_norm = 5.0;
  uint64_t seed = 123;
  /// Optional held-out fraction evaluated (but not trained on) each epoch.
  double validation_split = 0.0;
  /// Log progress every N epochs (0 = silent).
  size_t verbose_every = 0;
  /// Divergence rollback + checkpoint/resume (off by default).
  RecoveryOptions recovery;
  /// Execution parallelism pushed to every layer at the top of Fit (and
  /// left in place for subsequent Predict/Evaluate calls). Dense and
  /// Conv1D forward/backward GEMMs are map-style, so trained weights are
  /// bitwise invariant to `threads`; Conv1D's backward weight gradient is
  /// deterministic per resolved shard count and reproduces the legacy sum
  /// when the resolved shard count is 1 (the default).
  Parallelism parallelism;
};

/// Per-run training history.
struct FitHistory {
  std::vector<double> train_loss;
  std::vector<double> train_accuracy;
  std::vector<double> val_loss;      // empty when validation_split == 0
  std::vector<double> val_accuracy;
  std::vector<double> epoch_millis;
  size_t epochs_run = 0;
  bool stopped_early = false;
  double total_seconds = 0.0;
  // Self-healing bookkeeping (all zero/identity when recovery is off).
  size_t rollbacks = 0;          // diverged epochs rolled back and re-run
  double final_lr_scale = 1.0;   // cumulative lr_backoff applied
  size_t resumed_from_epoch = 0; // first epoch run by this call
  size_t checkpoints_written = 0;
};

/// A sequential feed-forward classifier trained with softmax cross-entropy.
/// Owns its layers; not copyable.
class Model {
 public:
  /// `input_size` is the feature count of each example row.
  explicit Model(size_t input_size) : input_size_(input_size) {}

  Model(const Model&) = delete;
  Model& operator=(const Model&) = delete;
  Model(Model&&) = default;
  Model& operator=(Model&&) = default;

  /// Appends a layer; returns *this for chaining. The layer's expected
  /// input size must match the current output size (checked via
  /// OutputSize's assertions at add time).
  Model& Add(std::unique_ptr<Layer> layer);

  /// Current output feature count (input_size if no layers yet).
  size_t output_size() const { return output_size_; }
  size_t input_size() const { return input_size_; }
  size_t num_layers() const { return layers_.size(); }

  /// Total trainable scalar parameters.
  size_t ParameterCount();

  /// Forward pass producing logits (no softmax).
  la::Matrix Forward(const la::Matrix& x, bool training = false);

  /// Class probabilities (softmax of Forward).
  la::Matrix PredictProba(const la::Matrix& x);

  /// Hard class predictions.
  std::vector<int> Predict(const la::Matrix& x);

  /// Trains on (x, labels) with minibatch gradient descent.
  /// Returns the history, or an error for malformed inputs.
  StatusOr<FitHistory> Fit(const la::Matrix& x, const std::vector<int>& labels,
                           Optimizer& optimizer, const FitOptions& options);

  /// Mean loss + accuracy on a dataset without updating parameters.
  std::pair<double, double> Evaluate(const la::Matrix& x,
                                     const std::vector<int>& labels);

  /// One-line per layer architecture summary.
  std::string Summary();

  /// All trainable parameters in layer order (used by serialization and
  /// custom training loops).
  std::vector<Param> Parameters() { return AllParams(); }

  /// Packs every layer's inference-time GEMM weights once (Layer::Prepack)
  /// for a model whose weights are final. Outputs are bitwise unchanged;
  /// a later Fit drops the packs.
  void Prepack();

 private:
  std::vector<Param> AllParams();

  size_t input_size_;
  size_t output_size_ = 0;
  std::vector<std::unique_ptr<Layer>> layers_;
};

}  // namespace newsdiff::nn

#endif  // NEWSDIFF_NN_MODEL_H_
