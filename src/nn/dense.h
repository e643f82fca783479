#ifndef NEWSDIFF_NN_DENSE_H_
#define NEWSDIFF_NN_DENSE_H_

#include <optional>
#include <string>

#include "la/kernels.h"
#include "nn/layer.h"

namespace newsdiff::nn {

/// Fully-connected layer: Y = X * W + b, the perceptron stack of §3.5.
class Dense : public Layer {
 public:
  /// Creates a layer mapping `in_features` -> `out_features`, with Glorot
  /// uniform weight initialisation from `rng`.
  Dense(size_t in_features, size_t out_features, Rng& rng);

  la::Matrix Forward(const la::Matrix& input, bool training) override;
  la::Matrix Backward(const la::Matrix& grad_output) override;
  /// dW and db only: no input-gradient GEMM.
  void BackwardParams(const la::Matrix& grad_output) override;
  std::vector<Param> Params() override;
  size_t OutputSize(size_t input_size) const override;
  std::string Name() const override { return "Dense"; }
  /// Packs `weights()` for the blocked GEMM. A training forward drops the
  /// pack; a by-hand write through Params() does not, so prepack after it.
  void Prepack() override;
  bool prepacked() const { return packed_.has_value(); }

  size_t in_features() const { return in_features_; }
  size_t out_features() const { return out_features_; }
  const la::Matrix& weights() const { return w_; }
  const la::Matrix& bias() const { return b_; }

 private:
  size_t in_features_;
  size_t out_features_;
  la::Matrix w_;       // in x out
  la::Matrix b_;       // 1 x out
  la::Matrix dw_;
  la::Matrix db_;
  la::Matrix input_;   // cached for backward
  /// `w_` packed by Prepack; empty keeps the per-call GEMM.
  std::optional<la::PackedB> packed_;
};

}  // namespace newsdiff::nn

#endif  // NEWSDIFF_NN_DENSE_H_
