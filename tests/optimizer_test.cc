#include "nn/optimizer.h"

#include <cmath>
#include <memory>

#include <gtest/gtest.h>

namespace newsdiff::nn {
namespace {

/// Minimizes f(w) = 0.5 * ||w - target||^2 with the given optimizer and
/// returns the final distance to the optimum.
double MinimizeQuadratic(Optimizer& opt, int steps) {
  la::Matrix w(1, 4);
  la::Matrix grad(1, 4);
  la::Matrix target = la::Matrix::FromRows({{1.0, -2.0, 0.5, 3.0}});
  std::vector<Param> params = {{&w, &grad, "w"}};
  for (int s = 0; s < steps; ++s) {
    for (size_t i = 0; i < 4; ++i) grad(0, i) = w(0, i) - target(0, i);
    opt.Step(params);
  }
  la::Matrix diff = w;
  diff.Sub(target);
  return diff.FrobeniusNorm();
}

TEST(SgdTest, ConvergesOnQuadratic) {
  Sgd sgd({0.1, 0.0});
  EXPECT_LT(MinimizeQuadratic(sgd, 200), 1e-6);
}

TEST(SgdTest, MomentumAcceleratesEarlyProgress) {
  Sgd plain({0.05, 0.0});
  Sgd momentum({0.05, 0.9});
  double plain_dist = MinimizeQuadratic(plain, 20);
  double momentum_dist = MinimizeQuadratic(momentum, 20);
  EXPECT_LT(momentum_dist, plain_dist);
}

TEST(AdagradTest, ConvergesOnQuadratic) {
  Adagrad ada({0.5, 1e-8});
  EXPECT_LT(MinimizeQuadratic(ada, 500), 1e-2);
}

TEST(AdagradTest, EffectiveStepShrinks) {
  // With constant gradient 1, step t is lr / sqrt(t): strictly decreasing.
  Adagrad ada({1.0, 1e-8});
  la::Matrix w(1, 1);
  la::Matrix grad(1, 1);
  std::vector<Param> params = {{&w, &grad, "w"}};
  double prev_step = 1e9;
  double prev_w = 0.0;
  for (int s = 0; s < 5; ++s) {
    grad(0, 0) = 1.0;
    ada.Step(params);
    double step = prev_w - w(0, 0);
    EXPECT_LT(step, prev_step);
    prev_step = step;
    prev_w = w(0, 0);
  }
}

TEST(AdadeltaTest, ConvergesOnQuadratic) {
  Adadelta ada({2.0, 0.95, 1e-6});
  EXPECT_LT(MinimizeQuadratic(ada, 800), 1e-2);
}

TEST(AdadeltaTest, NoManualLearningRateNeeded) {
  // Even with learning_rate 1 (the canonical parameter-free setting),
  // ADADELTA makes progress.
  Adadelta ada({1.0, 0.95, 1e-6});
  double start;
  {
    la::Matrix w(1, 4);
    la::Matrix target = la::Matrix::FromRows({{1.0, -2.0, 0.5, 3.0}});
    la::Matrix diff = w;
    diff.Sub(target);
    start = diff.FrobeniusNorm();
  }
  EXPECT_LT(MinimizeQuadratic(ada, 300), start * 0.5);
}

TEST(OptimizerTest, StatePerParameterIsIndependent) {
  Sgd sgd({0.1, 0.9});
  la::Matrix w1(1, 1), g1(1, 1), w2(1, 1), g2(1, 1);
  std::vector<Param> params = {{&w1, &g1, "w1"}, {&w2, &g2, "w2"}};
  g1(0, 0) = 1.0;
  g2(0, 0) = 0.0;
  sgd.Step(params);
  EXPECT_LT(w1(0, 0), 0.0);
  EXPECT_EQ(w2(0, 0), 0.0);  // zero grad, no momentum yet -> no movement
}

TEST(OptimizerTest, Names) {
  EXPECT_EQ(Sgd({}).Name(), "SGD");
  EXPECT_EQ(Adagrad({}).Name(), "ADAGRAD");
  EXPECT_EQ(Adadelta({}).Name(), "ADADELTA");
}

/// Property sweep: every optimizer reduces the quadratic objective.
class OptimizerConvergenceSweep : public ::testing::TestWithParam<int> {};

TEST_P(OptimizerConvergenceSweep, ReducesObjective) {
  std::unique_ptr<Optimizer> opt;
  switch (GetParam()) {
    case 0:
      opt = std::make_unique<Sgd>(SgdOptions{0.1, 0.0});
      break;
    case 1:
      opt = std::make_unique<Sgd>(SgdOptions{0.05, 0.9});
      break;
    case 2:
      opt = std::make_unique<Adagrad>(AdagradOptions{0.5, 1e-8});
      break;
    default:
      opt = std::make_unique<Adadelta>(AdadeltaOptions{2.0, 0.95, 1e-6});
  }
  double initial = std::sqrt(1.0 + 4.0 + 0.25 + 9.0);  // ||0 - target||
  // ADADELTA warms its accumulators up slowly on a cold start, so give
  // every optimizer the same generous step budget.
  EXPECT_LT(MinimizeQuadratic(*opt, 1200), initial * 0.2);
}

INSTANTIATE_TEST_SUITE_P(Optimizers, OptimizerConvergenceSweep,
                         ::testing::Values(0, 1, 2, 3));

}  // namespace
}  // namespace newsdiff::nn
