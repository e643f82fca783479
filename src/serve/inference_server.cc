#include "serve/inference_server.h"

#include <utility>

namespace newsdiff::serve {

ServingModel::ServingModel(nn::Model model) : model_(std::move(model)) {
  model_.Prepack();
}

StatusOr<la::Matrix> ServingModel::Predict(const la::Matrix& features) {
  if (features.cols() != model_.input_size()) {
    return Status::InvalidArgument("feature width does not match the model");
  }
  std::lock_guard<std::mutex> lock(mu_);
  return model_.PredictProba(features);
}

InferenceServer::Result InferenceServer::Predict(
    const la::Matrix& features) const {
  std::shared_ptr<ServingModel> model = current_();
  if (model == nullptr) {
    return Status::FailedPrecondition("inference server has no model");
  }
  return model->Predict(features);
}

}  // namespace newsdiff::serve
