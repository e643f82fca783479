#include "nn/optimizer.h"

#include <cmath>

namespace newsdiff::nn {

void Optimizer::Step(const std::vector<Param>& params) {
  for (const Param& p : params) {
    std::vector<la::Matrix>& state = state_[p.value];
    if (state.size() != StateSlots()) {
      state.assign(StateSlots(),
                   la::Matrix(p.value->rows(), p.value->cols()));
    }
    UpdateOne(*p.value, *p.grad, state);
  }
}

std::vector<la::Matrix> Optimizer::ExportState(
    const std::vector<Param>& params) {
  std::vector<la::Matrix> out;
  out.reserve(params.size() * StateSlots());
  for (const Param& p : params) {
    auto it = state_.find(p.value);
    if (it != state_.end() && it->second.size() == StateSlots()) {
      for (const la::Matrix& m : it->second) out.push_back(m);
    } else {
      for (size_t i = 0; i < StateSlots(); ++i) {
        out.emplace_back(p.value->rows(), p.value->cols());
      }
    }
  }
  return out;
}

Status Optimizer::ImportState(const std::vector<Param>& params,
                              const std::vector<la::Matrix>& state) {
  if (state.size() != params.size() * StateSlots()) {
    return Status::FailedPrecondition(
        "optimizer state mismatch: have " + std::to_string(state.size()) +
        " matrices, need " + std::to_string(params.size() * StateSlots()));
  }
  size_t i = 0;
  for (const Param& p : params) {
    std::vector<la::Matrix> slots;
    slots.reserve(StateSlots());
    for (size_t s = 0; s < StateSlots(); ++s, ++i) {
      if (state[i].rows() != p.value->rows() ||
          state[i].cols() != p.value->cols()) {
        return Status::FailedPrecondition("optimizer state shape mismatch for " +
                                          p.name);
      }
      slots.push_back(state[i]);
    }
    state_[p.value] = std::move(slots);
  }
  return Status::OK();
}

void Sgd::UpdateOne(la::Matrix& value, const la::Matrix& grad,
                    std::vector<la::Matrix>& state) {
  la::Matrix& velocity = state[0];
  auto& v = velocity.data();
  auto& w = value.data();
  const auto& g = grad.data();
  for (size_t i = 0; i < w.size(); ++i) {
    v[i] = options_.momentum * v[i] - options_.learning_rate * g[i];
    w[i] += v[i];
  }
}

void Adagrad::UpdateOne(la::Matrix& value, const la::Matrix& grad,
                        std::vector<la::Matrix>& state) {
  la::Matrix& accum = state[0];
  auto& acc = accum.data();
  auto& w = value.data();
  const auto& g = grad.data();
  for (size_t i = 0; i < w.size(); ++i) {
    acc[i] += g[i] * g[i];
    w[i] -= options_.learning_rate * g[i] /
            (std::sqrt(acc[i]) + options_.epsilon);
  }
}

void Adadelta::UpdateOne(la::Matrix& value, const la::Matrix& grad,
                         std::vector<la::Matrix>& state) {
  la::Matrix& eg2 = state[0];   // E[g^2]
  la::Matrix& edw2 = state[1];  // E[dw^2]
  auto& g2 = eg2.data();
  auto& d2 = edw2.data();
  auto& w = value.data();
  const auto& g = grad.data();
  const double rho = options_.rho;
  const double eps = options_.epsilon;
  for (size_t i = 0; i < w.size(); ++i) {
    g2[i] = rho * g2[i] + (1.0 - rho) * g[i] * g[i];
    double dw = -std::sqrt((d2[i] + eps) / (g2[i] + eps)) * g[i];
    d2[i] = rho * d2[i] + (1.0 - rho) * dw * dw;
    w[i] += options_.learning_rate * dw;
  }
}

}  // namespace newsdiff::nn
