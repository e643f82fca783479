#include "nn/loss.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "nn/activations.h"

namespace newsdiff::nn {

LossResult SoftmaxCrossEntropy(const la::Matrix& logits,
                               const std::vector<int>& labels) {
  assert(logits.rows() == labels.size());
  const size_t batch = logits.rows();
  LossResult result;
  result.grad = Softmax(logits);
  double total = 0.0;
  const double inv_batch = 1.0 / static_cast<double>(batch);
  for (size_t r = 0; r < batch; ++r) {
    double* row = result.grad.RowPtr(r);
    int label = labels[r];
    assert(label >= 0 && static_cast<size_t>(label) < logits.cols());
    total -= std::log(std::max(row[label], 1e-15));
    // dL/dlogits = (softmax - onehot) / batch.
    row[label] -= 1.0;
    for (size_t c = 0; c < logits.cols(); ++c) row[c] *= inv_batch;
  }
  result.loss = total * inv_batch;
  return result;
}

LossResult BinaryCrossEntropy(const la::Matrix& probs,
                              const std::vector<int>& labels) {
  assert(probs.cols() == 1 && probs.rows() == labels.size());
  const size_t batch = probs.rows();
  LossResult result;
  result.grad = la::Matrix(batch, 1);
  double total = 0.0;
  const double inv_batch = 1.0 / static_cast<double>(batch);
  for (size_t r = 0; r < batch; ++r) {
    double p = std::clamp(probs(r, 0), 1e-12, 1.0 - 1e-12);
    double y = static_cast<double>(labels[r]);
    total -= y * std::log(p) + (1.0 - y) * std::log(1.0 - p);
    // dL/dp for Eq. (12).
    result.grad(r, 0) = inv_batch * (p - y) / (p * (1.0 - p));
  }
  result.loss = total * inv_batch;
  return result;
}

}  // namespace newsdiff::nn
