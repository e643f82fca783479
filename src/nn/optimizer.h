#ifndef NEWSDIFF_NN_OPTIMIZER_H_
#define NEWSDIFF_NN_OPTIMIZER_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "la/matrix.h"
#include "nn/layer.h"

namespace newsdiff::nn {

/// Base class for gradient-descent optimizers (§3.5, Eq. 13-16). The
/// optimizer keeps per-parameter state keyed by the parameter's address
/// (parameters are stable for the lifetime of a model).
class Optimizer {
 public:
  virtual ~Optimizer() = default;

  /// Applies one update to every parameter from its current gradient.
  void Step(const std::vector<Param>& params);

  virtual std::string Name() const = 0;

  /// Multiplies the global learning rate by `factor`. Self-healing
  /// training (Model::Fit recovery) backs off by halving on divergence.
  virtual void ScaleLearningRate(double factor) = 0;

  /// Snapshot of the per-parameter state in `params` order (state slots
  /// concatenated per parameter), for training checkpoints and epoch
  /// rollback. Parameters never stepped yet export zero matrices.
  std::vector<la::Matrix> ExportState(const std::vector<Param>& params);

  /// Restores a snapshot taken by ExportState over the same architecture.
  Status ImportState(const std::vector<Param>& params,
                     const std::vector<la::Matrix>& state);

 protected:
  /// Updates a single parameter in place.
  virtual void UpdateOne(la::Matrix& value, const la::Matrix& grad,
                         std::vector<la::Matrix>& state) = 0;
  /// Number of state matrices required per parameter.
  virtual size_t StateSlots() const = 0;

 private:
  std::unordered_map<const la::Matrix*, std::vector<la::Matrix>> state_;
};

/// Stochastic gradient descent with exponential-decay momentum (Eq. 14):
///   dw_t = alpha * dw_{t-1} - eta * grad
struct SgdOptions {
  double learning_rate = 0.5;  // the paper's MLP1/CNN1 use lr = 0.5
  double momentum = 0.0;       // alpha in Eq. 14
};
class Sgd : public Optimizer {
 public:
  explicit Sgd(SgdOptions options) : options_(options) {}
  std::string Name() const override { return "SGD"; }
  void ScaleLearningRate(double factor) override {
    options_.learning_rate *= factor;
  }

 protected:
  void UpdateOne(la::Matrix& value, const la::Matrix& grad,
                 std::vector<la::Matrix>& state) override;
  size_t StateSlots() const override { return 1; }

 private:
  SgdOptions options_;
};

/// ADAGRAD (Eq. 15): per-dimension learning rate scaled by the l2 norm of
/// all past gradients.
struct AdagradOptions {
  double learning_rate = 0.01;
  double epsilon = 1e-8;
};
class Adagrad : public Optimizer {
 public:
  explicit Adagrad(AdagradOptions options) : options_(options) {}
  std::string Name() const override { return "ADAGRAD"; }
  void ScaleLearningRate(double factor) override {
    options_.learning_rate *= factor;
  }

 protected:
  void UpdateOne(la::Matrix& value, const la::Matrix& grad,
                 std::vector<la::Matrix>& state) override;
  size_t StateSlots() const override { return 1; }

 private:
  AdagradOptions options_;
};

/// ADADELTA (Eq. 16): dw_t = -(RMS[dw]_{t-1} / RMS[g]_t) * g_t, with
/// exponentially decayed accumulators for squared gradients and squared
/// updates. `learning_rate` is a global multiplier on the update (Keras
/// semantics; the paper's MLP2/CNN2 use lr = 2).
struct AdadeltaOptions {
  double learning_rate = 2.0;
  double rho = 0.95;
  double epsilon = 1e-6;
};
class Adadelta : public Optimizer {
 public:
  explicit Adadelta(AdadeltaOptions options) : options_(options) {}
  std::string Name() const override { return "ADADELTA"; }
  void ScaleLearningRate(double factor) override {
    options_.learning_rate *= factor;
  }

 protected:
  void UpdateOne(la::Matrix& value, const la::Matrix& grad,
                 std::vector<la::Matrix>& state) override;
  size_t StateSlots() const override { return 2; }

 private:
  AdadeltaOptions options_;
};

}  // namespace newsdiff::nn

#endif  // NEWSDIFF_NN_OPTIMIZER_H_
