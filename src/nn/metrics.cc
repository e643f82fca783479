#include "nn/metrics.h"

#include <cassert>

namespace newsdiff::nn {

ConfusionMatrix::ConfusionMatrix(const std::vector<int>& truth,
                                 const std::vector<int>& predicted,
                                 size_t num_classes)
    : k_(num_classes), total_(truth.size()), counts_(num_classes * num_classes, 0) {
  assert(truth.size() == predicted.size());
  for (size_t i = 0; i < truth.size(); ++i) {
    assert(truth[i] >= 0 && static_cast<size_t>(truth[i]) < k_);
    assert(predicted[i] >= 0 && static_cast<size_t>(predicted[i]) < k_);
    ++counts_[static_cast<size_t>(truth[i]) * k_ +
              static_cast<size_t>(predicted[i])];
  }
}

size_t ConfusionMatrix::TruePositives(size_t cls) const {
  return At(cls, cls);
}

size_t ConfusionMatrix::FalsePositives(size_t cls) const {
  size_t n = 0;
  for (size_t t = 0; t < k_; ++t) {
    if (t != cls) n += At(t, cls);
  }
  return n;
}

size_t ConfusionMatrix::FalseNegatives(size_t cls) const {
  size_t n = 0;
  for (size_t p = 0; p < k_; ++p) {
    if (p != cls) n += At(cls, p);
  }
  return n;
}

size_t ConfusionMatrix::TrueNegatives(size_t cls) const {
  return total_ - TruePositives(cls) - FalsePositives(cls) -
         FalseNegatives(cls);
}

double ConfusionMatrix::Accuracy() const {
  if (total_ == 0) return 0.0;
  size_t correct = 0;
  for (size_t c = 0; c < k_; ++c) correct += At(c, c);
  return static_cast<double>(correct) / static_cast<double>(total_);
}

double ConfusionMatrix::AverageAccuracy() const {
  if (total_ == 0 || k_ == 0) return 0.0;
  double sum = 0.0;
  for (size_t c = 0; c < k_; ++c) {
    double tp = static_cast<double>(TruePositives(c));
    double tn = static_cast<double>(TrueNegatives(c));
    sum += (tp + tn) / static_cast<double>(total_);
  }
  return sum / static_cast<double>(k_);
}

std::vector<int> ArgmaxRows(const la::Matrix& m) {
  std::vector<int> out(m.rows(), 0);
  for (size_t r = 0; r < m.rows(); ++r) {
    const double* row = m.RowPtr(r);
    int best = 0;
    for (size_t c = 1; c < m.cols(); ++c) {
      if (row[c] > row[best]) best = static_cast<int>(c);
    }
    out[r] = best;
  }
  return out;
}

double Accuracy(const std::vector<int>& truth,
                const std::vector<int>& predicted) {
  assert(truth.size() == predicted.size());
  if (truth.empty()) return 0.0;
  size_t correct = 0;
  for (size_t i = 0; i < truth.size(); ++i) {
    if (truth[i] == predicted[i]) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(truth.size());
}

}  // namespace newsdiff::nn
