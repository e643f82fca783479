#include "core/predictor.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/rng.h"
#include "nn/metrics.h"
#include "nn/optimizer.h"

namespace newsdiff::core {

const char* NetworkKindName(NetworkKind k) {
  switch (k) {
    case NetworkKind::kMlp1:
      return "MLP 1";
    case NetworkKind::kMlp2:
      return "MLP 2";
    case NetworkKind::kCnn1:
      return "CNN 1";
    case NetworkKind::kCnn2:
      return "CNN 2";
  }
  return "?";
}

const std::vector<NetworkKind>& AllNetworkKinds() {
  static const auto* kAll = new std::vector<NetworkKind>{
      NetworkKind::kMlp1, NetworkKind::kMlp2, NetworkKind::kCnn1,
      NetworkKind::kCnn2};
  return *kAll;
}

nn::Model BuildNetwork(NetworkKind kind, size_t input_size,
                       const PredictorOptions& options) {
  if (kind == NetworkKind::kMlp1 || kind == NetworkKind::kMlp2) {
    nn::MlpConfig cfg;
    cfg.input_size = input_size;
    cfg.hidden_sizes = options.mlp_hidden;
    cfg.num_classes = options.num_classes;
    cfg.seed = options.seed;
    return nn::BuildMlp(cfg);
  }
  nn::CnnConfig cfg;
  cfg.input_size = input_size;
  cfg.filters = options.cnn_filters;
  cfg.kernel_size = options.cnn_kernel;
  cfg.pool_size = options.cnn_pool;
  cfg.dense_size = options.cnn_dense;
  cfg.num_classes = options.num_classes;
  cfg.seed = options.seed;
  return nn::BuildCnn(cfg);
}

std::unique_ptr<nn::Optimizer> BuildOptimizer(
    NetworkKind kind, const PredictorOptions& options) {
  if (kind == NetworkKind::kMlp1 || kind == NetworkKind::kCnn1) {
    nn::SgdOptions sgd;
    sgd.learning_rate = options.sgd_learning_rate;
    sgd.momentum = options.sgd_momentum;
    return std::make_unique<nn::Sgd>(sgd);
  }
  nn::AdadeltaOptions ada;
  ada.learning_rate = options.adadelta_learning_rate;
  return std::make_unique<nn::Adadelta>(ada);
}

void StandardizeColumns(la::Matrix& train, la::Matrix& held_out) {
  const size_t n = train.rows(), cols = train.cols();
  std::vector<double> mean(cols, 0.0), stddev(cols, 0.0);
  for (size_t i = 0; i < n; ++i) {
    const double* row = train.RowPtr(i);
    for (size_t c = 0; c < cols; ++c) mean[c] += row[c];
  }
  for (size_t c = 0; c < cols; ++c) mean[c] /= static_cast<double>(n);
  for (size_t i = 0; i < n; ++i) {
    const double* row = train.RowPtr(i);
    for (size_t c = 0; c < cols; ++c) {
      double d = row[c] - mean[c];
      stddev[c] += d * d;
    }
  }
  for (size_t c = 0; c < cols; ++c) {
    stddev[c] = std::sqrt(stddev[c] / static_cast<double>(n));
    if (stddev[c] < 1e-9) stddev[c] = 1.0;
  }
  for (la::Matrix* m : {&train, &held_out}) {
    for (size_t i = 0; i < m->rows(); ++i) {
      double* row = m->RowPtr(i);
      for (size_t c = 0; c < cols; ++c) {
        row[c] = (row[c] - mean[c]) / stddev[c];
      }
    }
  }
}

StatusOr<EvalOutcome> TrainAndEvaluate(const la::Matrix& x,
                                       const std::vector<int>& y,
                                       NetworkKind kind,
                                       const PredictorOptions& options) {
  if (x.rows() != y.size()) {
    return Status::InvalidArgument("x rows != y size");
  }
  if (x.rows() < 10) {
    return Status::InvalidArgument("need at least 10 examples");
  }
  // Seeded shuffle split.
  Rng rng(options.seed);
  std::vector<size_t> order(x.rows());
  std::iota(order.begin(), order.end(), 0);
  rng.Shuffle(order);
  size_t n_test = static_cast<size_t>(options.test_fraction *
                                      static_cast<double>(x.rows()));
  n_test = std::clamp<size_t>(n_test, 1, x.rows() - 1);
  size_t n_train = x.rows() - n_test;

  la::Matrix train_x(n_train, x.cols());
  la::Matrix test_x(n_test, x.cols());
  std::vector<int> train_y(n_train), test_y(n_test);
  for (size_t i = 0; i < n_train; ++i) {
    std::copy(x.RowPtr(order[i]), x.RowPtr(order[i]) + x.cols(),
              train_x.RowPtr(i));
    train_y[i] = y[order[i]];
  }
  for (size_t i = 0; i < n_test; ++i) {
    size_t src = order[n_train + i];
    std::copy(x.RowPtr(src), x.RowPtr(src) + x.cols(), test_x.RowPtr(i));
    test_y[i] = y[src];
  }

  if (options.standardize) StandardizeColumns(train_x, test_x);

  // Majority-class share of the training labels; a fit that cannot beat it
  // has collapsed and deserves a restart with a different initialisation.
  std::vector<size_t> class_counts(options.num_classes, 0);
  for (int label : train_y) ++class_counts[static_cast<size_t>(label)];
  double majority =
      static_cast<double>(*std::max_element(class_counts.begin(),
                                            class_counts.end())) /
      static_cast<double>(n_train);

  EvalOutcome best;
  bool have_best = false;
  for (size_t attempt = 0; attempt <= options.max_restarts; ++attempt) {
    PredictorOptions attempt_options = options;
    attempt_options.seed = options.seed + attempt * 101;
    nn::Model model = BuildNetwork(kind, x.cols(), attempt_options);
    std::unique_ptr<nn::Optimizer> optimizer =
        BuildOptimizer(kind, attempt_options);

    nn::FitOptions fit;
    fit.epochs = options.max_epochs;
    fit.batch_size = options.batch_size;
    fit.early_stopping = options.early_stopping;
    fit.clip_norm = options.clip_norm;
    fit.seed = attempt_options.seed + 1;
    fit.parallelism = options.parallelism;
    StatusOr<nn::FitHistory> history =
        model.Fit(train_x, train_y, *optimizer, fit);
    if (!history.ok()) return history.status();

    EvalOutcome outcome;
    outcome.history = std::move(history).value();
    outcome.train_size = n_train;
    outcome.test_size = n_test;
    std::vector<int> pred = model.Predict(test_x);
    nn::ConfusionMatrix cm(test_y, pred, options.num_classes);
    outcome.accuracy = cm.Accuracy();
    outcome.average_accuracy = cm.AverageAccuracy();
    if (!have_best || outcome.accuracy > best.accuracy) {
      best = std::move(outcome);
      have_best = true;
    }
    if (best.accuracy > majority + 0.02) break;  // healthy fit
  }
  return best;
}

}  // namespace newsdiff::core
