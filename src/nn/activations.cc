#include "nn/activations.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

namespace newsdiff::nn {
namespace {

/// `v` where `keep`, else +0.0, without a branch: the comparison becomes
/// an all-ones or all-zeros mask over the value's bits. A compare and
/// jump mispredicts on about half of a batch of mixed-sign activations.
inline double KeepOrZero(bool keep, double v) {
  return std::bit_cast<double>(std::bit_cast<uint64_t>(v) &
                               -static_cast<uint64_t>(keep));
}

/// ReluScalar, bit for bit, over every element: z > 0 keeps z, anything
/// else (-0.0 and NaN included) becomes +0.0.
void ReluInPlace(la::Matrix* m) {
  for (double& v : m->data()) v = KeepOrZero(v > 0.0, v);
}

}  // namespace

double ReluScalar(double z) { return z > 0.0 ? z : 0.0; }

double SigmoidScalar(double z) { return 1.0 / (1.0 + std::exp(-z)); }

double TanhScalar(double z) { return std::tanh(z); }

la::Matrix Activation::Forward(const la::Matrix& input, bool training) {
  la::Matrix out = input;
  switch (kind_) {
    case ActivationKind::kRelu:
      ReluInPlace(&out);
      break;
    case ActivationKind::kSigmoid:
      for (double& v : out.data()) v = SigmoidScalar(v);
      break;
    case ActivationKind::kTanh:
      for (double& v : out.data()) v = TanhScalar(v);
      break;
  }
  if (training) output_ = out;
  return out;
}

bool Activation::ForwardInPlace(la::Matrix* h) {
  switch (kind_) {
    case ActivationKind::kRelu:
      ReluInPlace(h);
      break;
    case ActivationKind::kSigmoid:
      for (double& v : h->data()) v = SigmoidScalar(v);
      break;
    case ActivationKind::kTanh:
      for (double& v : h->data()) v = TanhScalar(v);
      break;
  }
  return true;
}

la::Matrix Activation::Backward(const la::Matrix& grad_output) {
  la::Matrix grad = grad_output;
  const auto& y = output_.data();
  auto& g = grad.data();
  switch (kind_) {
    case ActivationKind::kRelu:
      // +0.0 wherever y <= 0; a NaN y (never a ReLU output) keeps g.
      for (size_t i = 0; i < g.size(); ++i) {
        g[i] = KeepOrZero(!(y[i] <= 0.0), g[i]);
      }
      break;
    case ActivationKind::kSigmoid:
      for (size_t i = 0; i < g.size(); ++i) g[i] *= y[i] * (1.0 - y[i]);
      break;
    case ActivationKind::kTanh:
      for (size_t i = 0; i < g.size(); ++i) g[i] *= 1.0 - y[i] * y[i];
      break;
  }
  return grad;
}

std::string Activation::Name() const {
  switch (kind_) {
    case ActivationKind::kRelu:
      return "ReLU";
    case ActivationKind::kSigmoid:
      return "Sigmoid";
    case ActivationKind::kTanh:
      return "Tanh";
  }
  return "Activation";
}

void SoftmaxInPlace(la::Matrix* m) {
  for (size_t r = 0; r < m->rows(); ++r) {
    double* row = m->RowPtr(r);
    double mx = row[0];
    for (size_t c = 1; c < m->cols(); ++c) mx = std::max(mx, row[c]);
    double sum = 0.0;
    for (size_t c = 0; c < m->cols(); ++c) {
      row[c] = std::exp(row[c] - mx);
      sum += row[c];
    }
    double inv = 1.0 / sum;
    for (size_t c = 0; c < m->cols(); ++c) row[c] *= inv;
  }
}

la::Matrix Softmax(const la::Matrix& logits) {
  la::Matrix out = logits;
  SoftmaxInPlace(&out);
  return out;
}

}  // namespace newsdiff::nn
