#include "nn/metrics.h"

#include <gtest/gtest.h>

namespace newsdiff::nn {
namespace {

TEST(ConfusionMatrixTest, CountsCells) {
  //            predicted
  // truth 0: [2, 1, 0]
  // truth 1: [0, 1, 1]
  // truth 2: [0, 0, 2]
  std::vector<int> truth = {0, 0, 0, 1, 1, 2, 2};
  std::vector<int> pred = {0, 0, 1, 1, 2, 2, 2};
  ConfusionMatrix cm(truth, pred, 3);
  EXPECT_EQ(cm.total(), 7u);
  EXPECT_EQ(cm.At(0, 0), 2u);
  EXPECT_EQ(cm.At(0, 1), 1u);
  EXPECT_EQ(cm.At(1, 2), 1u);
  EXPECT_EQ(cm.At(2, 2), 2u);
  EXPECT_EQ(cm.At(2, 0), 0u);
}

TEST(ConfusionMatrixTest, PerClassCounts) {
  std::vector<int> truth = {0, 0, 0, 1, 1, 2, 2};
  std::vector<int> pred = {0, 0, 1, 1, 2, 2, 2};
  ConfusionMatrix cm(truth, pred, 3);
  EXPECT_EQ(cm.TruePositives(0), 2u);
  EXPECT_EQ(cm.FalseNegatives(0), 1u);
  EXPECT_EQ(cm.FalsePositives(0), 0u);
  EXPECT_EQ(cm.TrueNegatives(0), 4u);
  EXPECT_EQ(cm.TruePositives(2), 2u);
  EXPECT_EQ(cm.FalsePositives(2), 1u);
}

TEST(ConfusionMatrixTest, AccuracyAndEquation17) {
  std::vector<int> truth = {0, 0, 0, 1, 1, 2, 2};
  std::vector<int> pred = {0, 0, 1, 1, 2, 2, 2};
  ConfusionMatrix cm(truth, pred, 3);
  EXPECT_NEAR(cm.Accuracy(), 5.0 / 7.0, 1e-12);
  // Eq. 17: mean over classes of (TP + TN) / total.
  double expected = ((2 + 4) / 7.0 + (1 + 4) / 7.0 + (2 + 4) / 7.0) / 3.0;
  EXPECT_NEAR(cm.AverageAccuracy(), expected, 1e-12);
}

TEST(ConfusionMatrixTest, PerfectPrediction) {
  std::vector<int> y = {0, 1, 2, 1, 0};
  ConfusionMatrix cm(y, y, 3);
  EXPECT_DOUBLE_EQ(cm.Accuracy(), 1.0);
  EXPECT_DOUBLE_EQ(cm.AverageAccuracy(), 1.0);
}

TEST(ConfusionMatrixTest, EmptyInput) {
  ConfusionMatrix cm({}, {}, 3);
  EXPECT_DOUBLE_EQ(cm.Accuracy(), 0.0);
  EXPECT_DOUBLE_EQ(cm.AverageAccuracy(), 0.0);
}

TEST(ConfusionMatrixTest, AverageAccuracyAtLeastAccuracyFor3Classes) {
  // Eq. 17 counts true negatives, so it is >= plain accuracy for k >= 2.
  std::vector<int> truth = {0, 1, 2, 0, 1, 2, 0, 1};
  std::vector<int> pred = {1, 1, 0, 0, 2, 2, 0, 0};
  ConfusionMatrix cm(truth, pred, 3);
  EXPECT_GE(cm.AverageAccuracy(), cm.Accuracy());
}

TEST(ArgmaxRowsTest, PicksLargest) {
  la::Matrix m = la::Matrix::FromRows({{0.1, 0.7, 0.2}, {5, 1, 2}});
  EXPECT_EQ(ArgmaxRows(m), (std::vector<int>{1, 0}));
}

TEST(ArgmaxRowsTest, TieGoesToFirst) {
  la::Matrix m = la::Matrix::FromRows({{1.0, 1.0}});
  EXPECT_EQ(ArgmaxRows(m), (std::vector<int>{0}));
}

TEST(AccuracyTest, Fraction) {
  EXPECT_DOUBLE_EQ(Accuracy({1, 2, 3}, {1, 0, 3}), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(Accuracy({}, {}), 0.0);
}

}  // namespace
}  // namespace newsdiff::nn
