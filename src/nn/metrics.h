#ifndef NEWSDIFF_NN_METRICS_H_
#define NEWSDIFF_NN_METRICS_H_

#include <cstddef>
#include <vector>

#include "la/matrix.h"

namespace newsdiff::nn {

/// k x k confusion matrix: entry (true, predicted) counts examples.
class ConfusionMatrix {
 public:
  ConfusionMatrix(const std::vector<int>& truth,
                  const std::vector<int>& predicted, size_t num_classes);

  size_t num_classes() const { return k_; }
  size_t At(size_t truth, size_t predicted) const {
    return counts_[truth * k_ + predicted];
  }
  size_t total() const { return total_; }

  size_t TruePositives(size_t cls) const;
  size_t FalsePositives(size_t cls) const;
  size_t FalseNegatives(size_t cls) const;
  size_t TrueNegatives(size_t cls) const;

  /// Plain categorical accuracy: correct / total.
  double Accuracy() const;

  /// Average accuracy over classes (the paper's Eq. 17):
  ///   A = (1/k) * sum_i (TP_i + TN_i) / (TP_i + FN_i + FP_i + TN_i)
  double AverageAccuracy() const;

 private:
  size_t k_;
  size_t total_;
  std::vector<size_t> counts_;
};

/// Argmax class per row of a probability/logit matrix.
std::vector<int> ArgmaxRows(const la::Matrix& m);

/// Fraction of positions where the vectors agree.
double Accuracy(const std::vector<int>& truth,
                const std::vector<int>& predicted);

}  // namespace newsdiff::nn

#endif  // NEWSDIFF_NN_METRICS_H_
