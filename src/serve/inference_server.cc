#include "serve/inference_server.h"

#include <utility>

namespace newsdiff::serve {

InferenceServer::InferenceServer(const Parallelism& parallelism)
    : parallelism_(parallelism) {}

void InferenceServer::LoadModel(nn::Model model, uint64_t version) {
  model.SetParallelism(parallelism_);
  model.BindInferenceCache(&cache_, version);
  auto entry = std::make_shared<ModelEntry>(std::move(model), version);
  {
    // Warm the packed-weight cache before publishing: one throwaway
    // forward packs every dense layer's weights for this generation, so
    // no serving request pays it.
    std::lock_guard<std::mutex> lock(entry->mu);
    la::Matrix warm(1, entry->model.input_size());
    entry->model.PredictProba(warm);
  }
  {
    std::lock_guard<std::mutex> lock(model_mu_);
    model_ = std::move(entry);
  }
  model_swaps_.fetch_add(1, std::memory_order_relaxed);
}

bool InferenceServer::has_model() const { return ModelSnapshot() != nullptr; }

uint64_t InferenceServer::model_version() const {
  auto entry = ModelSnapshot();
  return entry == nullptr ? 0 : entry->version;
}

std::shared_ptr<InferenceServer::ModelEntry> InferenceServer::ModelSnapshot()
    const {
  std::lock_guard<std::mutex> lock(model_mu_);
  return model_;
}

InferenceServer::Result InferenceServer::Predict(const la::Matrix& features,
                                                 uint64_t* version) {
  auto entry = ModelSnapshot();
  if (entry == nullptr) {
    return Status::FailedPrecondition("inference server has no model");
  }
  if (features.cols() != entry->model.input_size()) {
    return Status::InvalidArgument("feature width does not match the model");
  }
  la::Matrix probs;
  {
    std::lock_guard<std::mutex> lock(entry->mu);
    probs = entry->model.PredictProba(features);
  }
  forward_passes_.fetch_add(1, std::memory_order_relaxed);
  rows_.fetch_add(features.rows(), std::memory_order_relaxed);
  if (version != nullptr) *version = entry->version;
  return probs;
}

InferenceServerStats InferenceServer::stats() const {
  InferenceServerStats s;
  s.forward_passes = forward_passes_.load(std::memory_order_relaxed);
  s.rows = rows_.load(std::memory_order_relaxed);
  s.model_swaps = model_swaps_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace newsdiff::serve
