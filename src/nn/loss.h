#ifndef NEWSDIFF_NN_LOSS_H_
#define NEWSDIFF_NN_LOSS_H_

#include <cstdint>
#include <vector>

#include "la/matrix.h"

namespace newsdiff::nn {

/// Result of a loss evaluation: the mean loss over the batch and the
/// gradient with respect to the network's final (pre-loss) output.
struct LossResult {
  double loss = 0.0;
  la::Matrix grad;  // batch x outputs
};

/// Softmax + categorical cross-entropy, fused for numerical stability
/// (the standard treatment of the paper's Eq. 12 generalised to k classes).
/// `logits` is batch x classes; `labels` holds class indices.
LossResult SoftmaxCrossEntropy(const la::Matrix& logits,
                               const std::vector<int>& labels);

/// Binary cross-entropy of Eq. (12) for sigmoid outputs in (0, 1);
/// `probs` is batch x 1 and `labels` holds 0/1.
LossResult BinaryCrossEntropy(const la::Matrix& probs,
                              const std::vector<int>& labels);

}  // namespace newsdiff::nn

#endif  // NEWSDIFF_NN_LOSS_H_
