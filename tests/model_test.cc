#include "nn/model.h"

#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "nn/activations.h"
#include "nn/architectures.h"
#include "nn/dense.h"

namespace newsdiff::nn {
namespace {

/// Two well-separated Gaussian blobs per class -> any sane classifier
/// should reach near-perfect accuracy.
void MakeBlobs(size_t per_class, size_t classes, size_t dim, uint64_t seed,
               la::Matrix* x, std::vector<int>* y) {
  Rng rng(seed);
  x->Resize(per_class * classes, dim);
  y->assign(per_class * classes, 0);
  size_t row = 0;
  for (size_t c = 0; c < classes; ++c) {
    for (size_t i = 0; i < per_class; ++i) {
      double* out = x->RowPtr(row);
      for (size_t d = 0; d < dim; ++d) {
        double center = (d % classes == c) ? 3.0 : 0.0;
        out[d] = rng.Gaussian(center, 0.5);
      }
      (*y)[row] = static_cast<int>(c);
      ++row;
    }
  }
}

TEST(ModelTest, AddTracksOutputSize) {
  Rng rng(1);
  Model model(10);
  EXPECT_EQ(model.input_size(), 10u);
  model.Add(std::make_unique<Dense>(10, 6, rng));
  EXPECT_EQ(model.output_size(), 6u);
  model.Add(std::make_unique<Activation>(ActivationKind::kRelu));
  EXPECT_EQ(model.output_size(), 6u);
  model.Add(std::make_unique<Dense>(6, 3, rng));
  EXPECT_EQ(model.output_size(), 3u);
  EXPECT_EQ(model.num_layers(), 3u);
  EXPECT_EQ(model.ParameterCount(), 10u * 6 + 6 + 6 * 3 + 3);
}

TEST(ModelTest, FitValidatesInputs) {
  MlpConfig cfg;
  cfg.input_size = 4;
  cfg.hidden_sizes = {4};
  Model model = BuildMlp(cfg);
  Sgd sgd({0.1, 0.0});
  FitOptions fit;
  la::Matrix x(3, 4);
  EXPECT_FALSE(model.Fit(x, {0, 1}, sgd, fit).ok());       // size mismatch
  EXPECT_FALSE(model.Fit(x, {0, 1, 9}, sgd, fit).ok());    // label range
  EXPECT_FALSE(model.Fit(la::Matrix(0, 4), {}, sgd, fit).ok());
  la::Matrix wrong(3, 5);
  EXPECT_FALSE(model.Fit(wrong, {0, 1, 2}, sgd, fit).ok());
  Model empty(4);
  EXPECT_FALSE(empty.Fit(x, {0, 1, 2}, sgd, fit).ok());
}

TEST(ModelTest, LearnsSeparableBlobs) {
  la::Matrix x;
  std::vector<int> y;
  MakeBlobs(40, 3, 6, 7, &x, &y);
  MlpConfig cfg;
  cfg.input_size = 6;
  cfg.hidden_sizes = {16};
  Model model = BuildMlp(cfg);
  Sgd sgd({0.2, 0.0});
  FitOptions fit;
  fit.epochs = 60;
  fit.batch_size = 16;
  fit.early_stopping.enabled = false;
  auto history = model.Fit(x, y, sgd, fit);
  ASSERT_TRUE(history.ok());
  auto [loss, acc] = model.Evaluate(x, y);
  EXPECT_GT(acc, 0.95);
  EXPECT_LT(loss, 0.3);
}

TEST(ModelTest, LossDecreasesOverTraining) {
  la::Matrix x;
  std::vector<int> y;
  MakeBlobs(30, 2, 4, 8, &x, &y);
  MlpConfig cfg;
  cfg.input_size = 4;
  cfg.hidden_sizes = {8};
  Model model = BuildMlp(cfg);
  Sgd sgd({0.1, 0.0});
  FitOptions fit;
  fit.epochs = 30;
  fit.batch_size = 8;
  fit.early_stopping.enabled = false;
  auto history = model.Fit(x, y, sgd, fit);
  ASSERT_TRUE(history.ok());
  EXPECT_LT(history->train_loss.back(), history->train_loss.front());
  EXPECT_GT(history->train_accuracy.back(), history->train_accuracy.front());
}

TEST(ModelTest, EarlyStoppingTriggers) {
  la::Matrix x;
  std::vector<int> y;
  MakeBlobs(30, 2, 4, 9, &x, &y);
  MlpConfig cfg;
  cfg.input_size = 4;
  cfg.hidden_sizes = {8};
  Model model = BuildMlp(cfg);
  Sgd sgd({0.3, 0.0});
  FitOptions fit;
  fit.epochs = 500;
  fit.batch_size = 60;
  fit.early_stopping = {true, 1e-3, 2};
  auto history = model.Fit(x, y, sgd, fit);
  ASSERT_TRUE(history.ok());
  EXPECT_TRUE(history->stopped_early);
  EXPECT_LT(history->epochs_run, 500u);
}

TEST(ModelTest, ValidationSplitTracked) {
  la::Matrix x;
  std::vector<int> y;
  MakeBlobs(40, 2, 4, 10, &x, &y);
  MlpConfig cfg;
  cfg.input_size = 4;
  cfg.hidden_sizes = {8};
  Model model = BuildMlp(cfg);
  Sgd sgd({0.1, 0.0});
  FitOptions fit;
  fit.epochs = 5;
  fit.batch_size = 16;
  fit.validation_split = 0.25;
  fit.early_stopping.enabled = false;
  auto history = model.Fit(x, y, sgd, fit);
  ASSERT_TRUE(history.ok());
  EXPECT_EQ(history->val_loss.size(), 5u);
  EXPECT_EQ(history->val_accuracy.size(), 5u);
}

TEST(ModelTest, PredictProbaRowsSumToOne) {
  MlpConfig cfg;
  cfg.input_size = 4;
  cfg.hidden_sizes = {8};
  cfg.num_classes = 3;
  Model model = BuildMlp(cfg);
  Rng rng(11);
  la::Matrix x = la::Matrix::Random(5, 4, -1.0, 1.0, rng);
  la::Matrix p = model.PredictProba(x);
  for (size_t r = 0; r < p.rows(); ++r) {
    double sum = 0.0;
    for (size_t c = 0; c < p.cols(); ++c) sum += p(r, c);
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
  EXPECT_EQ(model.Predict(x).size(), 5u);
}

TEST(ModelTest, DeterministicTraining) {
  la::Matrix x;
  std::vector<int> y;
  MakeBlobs(20, 2, 4, 12, &x, &y);
  auto run = [&]() {
    MlpConfig cfg;
    cfg.input_size = 4;
    cfg.hidden_sizes = {8};
    cfg.seed = 5;
    Model model = BuildMlp(cfg);
    Sgd sgd({0.1, 0.0});
    FitOptions fit;
    fit.epochs = 10;
    fit.batch_size = 8;
    fit.seed = 77;
    fit.early_stopping.enabled = false;
    auto history = model.Fit(x, y, sgd, fit);
    return history->train_loss.back();
  };
  EXPECT_DOUBLE_EQ(run(), run());
}

TEST(ModelTest, SummaryListsLayers) {
  MlpConfig cfg;
  cfg.input_size = 4;
  cfg.hidden_sizes = {8, 6};
  Model model = BuildMlp(cfg);
  std::string summary = model.Summary();
  EXPECT_NE(summary.find("Dense"), std::string::npos);
  EXPECT_NE(summary.find("ReLU"), std::string::npos);
}

TEST(ArchitecturesTest, CnnShapesAndTraining) {
  CnnConfig cfg;
  cfg.input_size = 24;
  cfg.filters = 4;
  cfg.kernel_size = 5;
  cfg.pool_size = 2;
  cfg.dense_size = 8;
  Model model = BuildCnn(cfg);
  EXPECT_EQ(model.output_size(), 3u);

  la::Matrix x;
  std::vector<int> y;
  MakeBlobs(30, 3, 24, 13, &x, &y);
  Sgd sgd({0.1, 0.0});
  FitOptions fit;
  fit.epochs = 40;
  fit.batch_size = 16;
  fit.early_stopping.enabled = false;
  auto history = model.Fit(x, y, sgd, fit);
  ASSERT_TRUE(history.ok());
  auto [loss, acc] = model.Evaluate(x, y);
  EXPECT_GT(acc, 0.9);
}

TEST(ModelTest, ClippingKeepsHugeLearningRateFinite) {
  la::Matrix x;
  std::vector<int> y;
  MakeBlobs(30, 2, 4, 15, &x, &y);
  MlpConfig cfg;
  cfg.input_size = 4;
  cfg.hidden_sizes = {8};
  Model model = BuildMlp(cfg);
  Sgd sgd({25.0, 0.0});  // absurd learning rate
  FitOptions fit;
  fit.epochs = 15;
  fit.batch_size = 15;
  fit.clip_norm = 1.0;
  fit.early_stopping.enabled = false;
  auto history = model.Fit(x, y, sgd, fit);
  ASSERT_TRUE(history.ok());
  for (double loss : history->train_loss) {
    EXPECT_TRUE(std::isfinite(loss));
  }
}

/// Property sweep: the MLP learns blobs with every optimizer used in the
/// paper's configurations.
class ModelOptimizerSweep : public ::testing::TestWithParam<int> {};

TEST_P(ModelOptimizerSweep, LearnsWithEachOptimizer) {
  la::Matrix x;
  std::vector<int> y;
  MakeBlobs(30, 2, 6, 14, &x, &y);
  MlpConfig cfg;
  cfg.input_size = 6;
  cfg.hidden_sizes = {12};
  cfg.num_classes = 2;
  Model model = BuildMlp(cfg);
  std::unique_ptr<Optimizer> opt;
  switch (GetParam()) {
    case 0:
      opt = std::make_unique<Sgd>(SgdOptions{0.5, 0.0});
      break;
    case 1:
      opt = std::make_unique<Adagrad>(AdagradOptions{0.1, 1e-8});
      break;
    default:
      opt = std::make_unique<Adadelta>(AdadeltaOptions{2.0, 0.95, 1e-6});
  }
  FitOptions fit;
  fit.epochs = 80;
  fit.batch_size = 15;
  fit.early_stopping.enabled = false;
  auto history = model.Fit(x, y, *opt, fit);
  ASSERT_TRUE(history.ok());
  auto [loss, acc] = model.Evaluate(x, y);
  EXPECT_GT(acc, 0.9) << "optimizer " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Optimizers, ModelOptimizerSweep,
                         ::testing::Values(0, 1, 2));

}  // namespace
}  // namespace newsdiff::nn
