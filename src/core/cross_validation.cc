#include "core/cross_validation.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/rng.h"
#include "nn/metrics.h"
#include "nn/optimizer.h"

namespace newsdiff::core {
namespace {

/// Trains and scores one fold. Self-contained by construction: the fold's
/// RNGs derive from options.seed + fold * 977, the model/optimizer/
/// standardization are all local, and the only shared inputs (x, y, order)
/// are read-only — which is what lets CrossValidate run folds as parallel
/// tasks without changing any result bit.
StatusOr<double> RunOneFold(const la::Matrix& x, const std::vector<int>& y,
                            const std::vector<size_t>& order,
                            NetworkKind kind, const PredictorOptions& options,
                            size_t fold, size_t folds) {
  const size_t n = x.rows();
  size_t lo = fold * n / folds;
  size_t hi = (fold + 1) * n / folds;
  size_t n_val = hi - lo;
  size_t n_train = n - n_val;

  la::Matrix train_x(n_train, x.cols());
  la::Matrix val_x(n_val, x.cols());
  std::vector<int> train_y(n_train), val_y(n_val);
  size_t ti = 0, vi = 0;
  for (size_t i = 0; i < n; ++i) {
    size_t src = order[i];
    if (i >= lo && i < hi) {
      std::copy(x.RowPtr(src), x.RowPtr(src) + x.cols(), val_x.RowPtr(vi));
      val_y[vi++] = y[src];
    } else {
      std::copy(x.RowPtr(src), x.RowPtr(src) + x.cols(),
                train_x.RowPtr(ti));
      train_y[ti++] = y[src];
    }
  }

  PredictorOptions fold_options = options;
  fold_options.seed = options.seed + fold * 977;
  nn::Model model = BuildNetwork(kind, x.cols(), fold_options);
  std::unique_ptr<nn::Optimizer> optimizer =
      BuildOptimizer(kind, fold_options);

  if (options.standardize) StandardizeColumns(train_x, val_x);

  nn::FitOptions fit;
  fit.epochs = options.max_epochs;
  fit.batch_size = options.batch_size;
  fit.early_stopping = options.early_stopping;
  fit.clip_norm = options.clip_norm;
  fit.seed = fold_options.seed + 1;
  fit.parallelism = options.parallelism;
  StatusOr<nn::FitHistory> history =
      model.Fit(train_x, train_y, *optimizer, fit);
  if (!history.ok()) return history.status();

  std::vector<int> pred = model.Predict(val_x);
  return nn::Accuracy(val_y, pred);
}

}  // namespace

StatusOr<CrossValidationResult> CrossValidate(
    const la::Matrix& x, const std::vector<int>& y, NetworkKind kind,
    const PredictorOptions& options, size_t folds) {
  if (folds < 2) return Status::InvalidArgument("need at least 2 folds");
  if (x.rows() != y.size()) {
    return Status::InvalidArgument("x rows != y size");
  }
  if (x.rows() < folds * 2) {
    return Status::InvalidArgument("too few examples for the fold count");
  }

  Rng rng(options.seed);
  std::vector<size_t> order(x.rows());
  std::iota(order.begin(), order.end(), 0);
  rng.Shuffle(order);

  CrossValidationResult result;
  result.folds = folds;
  result.fold_accuracies.assign(folds, 0.0);

  // Coarse grain: whole folds are the work items. Each fold writes its own
  // accuracy/status slot, and nested ParallelFor calls issued while a fold
  // trains run inline (single-region pool), so the numbers are bitwise
  // identical to the serial loop no matter how fold_parallelism is set.
  std::vector<Status> statuses(folds, Status::OK());
  ParallelFor(options.fold_parallelism, folds,
              [&](size_t, size_t begin, size_t end) {
    for (size_t fold = begin; fold < end; ++fold) {
      StatusOr<double> acc =
          RunOneFold(x, y, order, kind, options, fold, folds);
      if (acc.ok()) {
        result.fold_accuracies[fold] = acc.value();
      } else {
        statuses[fold] = acc.status();
      }
    }
  });
  // Deterministic error reporting: the lowest failing fold wins, exactly as
  // the serial loop would have reported it.
  for (const Status& s : statuses) {
    if (!s.ok()) return s;
  }

  double sum = 0.0;
  for (double a : result.fold_accuracies) sum += a;
  result.mean_accuracy = sum / static_cast<double>(folds);
  double var = 0.0;
  for (double a : result.fold_accuracies) {
    var += (a - result.mean_accuracy) * (a - result.mean_accuracy);
  }
  result.stddev_accuracy = std::sqrt(var / static_cast<double>(folds));
  return result;
}

}  // namespace newsdiff::core
