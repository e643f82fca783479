#ifndef NEWSDIFF_NN_LAYER_H_
#define NEWSDIFF_NN_LAYER_H_

#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "la/matrix.h"

namespace newsdiff::nn {

/// A trainable parameter: value and the gradient from the last backward
/// pass. Both live inside the owning layer; the optimizer mutates `value`.
struct Param {
  la::Matrix* value;
  la::Matrix* grad;
  std::string name;
};

/// Base class for network layers. Data flows as row-major batches:
/// each row of the activation matrix is one example. Layers cache whatever
/// they need between Forward and Backward (single-stream training).
class Layer {
 public:
  virtual ~Layer() = default;

  /// Computes the layer output for `input` (batch x in_features).
  virtual la::Matrix Forward(const la::Matrix& input, bool training) = 0;

  /// Given dLoss/dOutput, stores this batch's parameter gradients in the
  /// Params() grads and returns dLoss/dInput. Must be called after a
  /// training Forward on the same batch.
  virtual la::Matrix Backward(const la::Matrix& grad_output) = 0;

  /// Backward for a layer whose dLoss/dInput nobody reads (Model::Fit's
  /// first layer): stores the same parameter gradients as Backward,
  /// bitwise, and returns nothing. The default runs Backward and drops
  /// the input gradient; Dense overrides it to skip that GEMM.
  virtual void BackwardParams(const la::Matrix& grad_output) {
    Backward(grad_output);
  }

  /// Inference-only in-place variant: a layer whose output shape equals
  /// its input shape and whose transform is elementwise may mutate `*h`
  /// directly and return true, letting Model::Forward skip one
  /// alloc+copy per layer on the batched serving path. Same arithmetic,
  /// same element order as Forward — bitwise identical results. Records
  /// no backward state; callers must fall back to Forward when training.
  virtual bool ForwardInPlace(la::Matrix* /*h*/) { return false; }

  /// Trainable parameters (empty for activations/pooling).
  virtual std::vector<Param> Params() { return {}; }

  /// Output feature count for a given input feature count; layers with
  /// shape constraints validate here (called once at build time).
  virtual size_t OutputSize(size_t input_size) const = 0;

  /// Human-readable layer name for summaries.
  virtual std::string Name() const = 0;

  /// Execution parallelism for this layer's kernels. Model::Fit pushes the
  /// FitOptions value to every layer; the default is serial. The GEMM-bound
  /// layers (Dense, Conv1D forward) are map-style, so their outputs are
  /// bitwise invariant to this setting; Conv1D's backward weight gradient
  /// regroups its batch sum per shard (deterministic for a fixed shard
  /// count, and the legacy sum when the resolved shard count is 1).
  void set_parallelism(const Parallelism& par) { par_ = par; }
  const Parallelism& parallelism() const { return par_; }

  /// Packs the layer's inference-time GEMM weights once, so later
  /// inference forwards skip the per-call pack. Only layers whose forward
  /// pass is a weights-on-the-right GEMM (Dense) hold a pack; the default
  /// is a no-op. (Conv1D's forward is per-row DotN over call-resident
  /// filter taps — there is no per-call packing to hoist.)
  virtual void Prepack() {}

 protected:
  Parallelism par_;
};

}  // namespace newsdiff::nn

#endif  // NEWSDIFF_NN_LAYER_H_
