#ifndef NEWSDIFF_NN_SERIALIZE_H_
#define NEWSDIFF_NN_SERIALIZE_H_

#include <string>
#include <vector>

#include "common/file_io.h"
#include "common/rng.h"
#include "common/status.h"
#include "la/matrix.h"
#include "nn/model.h"
#include "nn/optimizer.h"

namespace newsdiff::nn {

/// Model-weight checkpointing. The paper's deployment (§4.9) continues
/// training from checkpoints whenever new data arrives instead of starting
/// from scratch; these helpers persist and restore a model's parameters.
///
/// The format is a plain text file:
///   newsdiff-model 2
///   <num_params>
///   <name> <rows> <cols>
///   v v v ...          (rows*cols doubles, row-major)
///   ...
///   crc <8-hex-crc32>  (over every byte before this line)
/// Files are written via temp+rename, so a crash mid-save never clobbers
/// the previous weights, and the CRC trailer detects torn writes and bit
/// rot at load time.
/// Loading requires a model with the same architecture (identical parameter
/// names and shapes, in order); mismatches produce a FailedPrecondition.

/// Writes every trainable parameter of `model` to `path` atomically.
/// `io` is the filesystem seam (nullptr = real filesystem).
Status SaveWeights(Model& model, const std::string& path,
                   FileIo* io = nullptr);

/// Restores parameters previously written by SaveWeights into `model`,
/// verifying the checksum first.
Status LoadWeights(Model& model, const std::string& path,
                   FileIo* io = nullptr);

/// Everything beyond the weights that Model::Fit needs to continue a run
/// exactly where it stopped: epoch counter, early-stopping state, the
/// learning-rate backoff applied by divergence rollbacks, the shuffle RNG,
/// and the optimizer's per-parameter accumulators. Doubles that must
/// round-trip exactly travel as IEEE-754 bit patterns.
struct TrainingState {
  size_t epochs_done = 0;
  double best_loss = 0.0;
  bool have_best = false;
  size_t epochs_without_improvement = 0;
  double lr_scale = 1.0;  // cumulative backoff already applied
  size_t rollbacks = 0;
  Rng::State rng;
  std::vector<la::Matrix> optimizer_state;  // from Optimizer::ExportState
};

/// Atomically persists weights + `state` + `optimizer`'s state as one
/// checksummed checkpoint file (format "newsdiff-train 1").
Status SaveTrainingCheckpoint(Model& model, Optimizer& optimizer,
                              const TrainingState& state,
                              const std::string& path, FileIo* io = nullptr);

/// Restores a checkpoint written by SaveTrainingCheckpoint: weights into
/// `model`, accumulators into `optimizer`, and returns the loop state.
StatusOr<TrainingState> LoadTrainingCheckpoint(Model& model,
                                               Optimizer& optimizer,
                                               const std::string& path,
                                               FileIo* io = nullptr);

}  // namespace newsdiff::nn

#endif  // NEWSDIFF_NN_SERIALIZE_H_
