#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "nn/activations.h"
#include "nn/conv1d.h"
#include "nn/dense.h"
#include "nn/loss.h"

namespace newsdiff::nn {
namespace {

/// The bit patterns of `m`'s elements: equal vectors mean bitwise-equal
/// matrices, -0.0 and NaN included.
std::vector<uint64_t> Bits(const la::Matrix& m) {
  std::vector<uint64_t> bits;
  for (double v : m.data()) bits.push_back(std::bit_cast<uint64_t>(v));
  return bits;
}

/// Finite-difference gradient check: perturbs each input (and parameter)
/// coordinate and compares against the analytic backward pass, using the
/// scalar objective L = sum(output .* seed_weights).
void CheckGradients(Layer& layer, const la::Matrix& input, double tol) {
  Rng rng(12345);
  la::Matrix out = layer.Forward(input, /*training=*/true);
  la::Matrix seed = la::Matrix::Random(out.rows(), out.cols(), -1.0, 1.0, rng);
  la::Matrix grad_in = layer.Backward(seed);

  auto objective = [&](const la::Matrix& x) {
    la::Matrix y = layer.Forward(x, /*training=*/false);
    double s = 0.0;
    for (size_t i = 0; i < y.size(); ++i) {
      s += y.data()[i] * seed.data()[i];
    }
    return s;
  };

  const double eps = 1e-6;
  // Input gradients.
  la::Matrix x = input;
  for (size_t i = 0; i < x.size(); i += std::max<size_t>(1, x.size() / 50)) {
    double orig = x.data()[i];
    x.data()[i] = orig + eps;
    double up = objective(x);
    x.data()[i] = orig - eps;
    double down = objective(x);
    x.data()[i] = orig;
    double numeric = (up - down) / (2 * eps);
    EXPECT_NEAR(grad_in.data()[i], numeric, tol) << "input coord " << i;
  }

  // Parameter gradients (analytic grads were stored by the Backward above).
  for (Param& p : layer.Params()) {
    la::Matrix& value = *p.value;
    const la::Matrix& analytic = *p.grad;
    for (size_t i = 0; i < value.size();
         i += std::max<size_t>(1, value.size() / 40)) {
      double orig = value.data()[i];
      value.data()[i] = orig + eps;
      double up = objective(input);
      value.data()[i] = orig - eps;
      double down = objective(input);
      value.data()[i] = orig;
      double numeric = (up - down) / (2 * eps);
      EXPECT_NEAR(analytic.data()[i], numeric, tol)
          << p.name << " coord " << i;
    }
  }
}

TEST(ActivationScalarsTest, Table1Values) {
  EXPECT_DOUBLE_EQ(ReluScalar(-2.0), 0.0);
  EXPECT_DOUBLE_EQ(ReluScalar(3.0), 3.0);
  EXPECT_DOUBLE_EQ(SigmoidScalar(0.0), 0.5);
  EXPECT_NEAR(SigmoidScalar(100.0), 1.0, 1e-12);
  EXPECT_NEAR(SigmoidScalar(-100.0), 0.0, 1e-12);
  EXPECT_DOUBLE_EQ(TanhScalar(0.0), 0.0);
  EXPECT_NEAR(TanhScalar(1.0), std::tanh(1.0), 1e-15);
}

TEST(SoftmaxTest, RowsSumToOne) {
  la::Matrix logits = la::Matrix::FromRows({{1, 2, 3}, {-5, 0, 5}});
  la::Matrix p = Softmax(logits);
  for (size_t r = 0; r < p.rows(); ++r) {
    double sum = 0.0;
    for (size_t c = 0; c < p.cols(); ++c) {
      EXPECT_GT(p(r, c), 0.0);
      sum += p(r, c);
    }
    EXPECT_NEAR(sum, 1.0, 1e-12);
  }
  // Ordering preserved.
  EXPECT_GT(p(0, 2), p(0, 1));
}

TEST(SoftmaxTest, NumericallyStableForHugeLogits) {
  la::Matrix logits = la::Matrix::FromRows({{1000.0, 1001.0}});
  la::Matrix p = Softmax(logits);
  EXPECT_TRUE(std::isfinite(p(0, 0)));
  EXPECT_NEAR(p(0, 0) + p(0, 1), 1.0, 1e-12);
}

TEST(DenseTest, ForwardKnownValues) {
  Rng rng(1);
  Dense dense(2, 2, rng);
  // Overwrite with known weights via Params().
  auto params = dense.Params();
  la::Matrix& w = *params[0].value;
  la::Matrix& b = *params[1].value;
  w = la::Matrix::FromRows({{1, 2}, {3, 4}});
  b = la::Matrix::FromRows({{10, 20}});
  la::Matrix x = la::Matrix::FromRows({{1, 1}});
  la::Matrix y = dense.Forward(x, false);
  EXPECT_DOUBLE_EQ(y(0, 0), 14.0);  // 1+3+10
  EXPECT_DOUBLE_EQ(y(0, 1), 26.0);  // 2+4+20
}

TEST(DenseTest, GradientCheck) {
  Rng rng(2);
  Dense dense(5, 4, rng);
  la::Matrix x = la::Matrix::Random(3, 5, -1.0, 1.0, rng);
  CheckGradients(dense, x, 1e-4);
}

// Prepacking changes who packs the weights, never the product: for a layer
// inside one panel and a 300 -> 140 layer that spans two depth panels and
// two column panels, each with a ragged tail.
TEST(DenseTest, PrepackedForwardMatchesUnpackedBitwise) {
  for (const auto& [in, out] :
       {std::pair<size_t, size_t>{40, 24}, {300, 140}}) {
    Rng rng_a(7), rng_b(7), rng(8);
    Dense packed(in, out, rng_a), plain(in, out, rng_b);
    packed.Prepack();
    for (size_t rows : {1, 3, 10, 64}) {
      la::Matrix x = la::Matrix::Random(rows, in, -1.0, 1.0, rng);
      EXPECT_EQ(packed.Forward(x, false).data(), plain.Forward(x, false).data())
          << rows << " rows, " << in << " -> " << out;
    }
    EXPECT_TRUE(packed.prepacked());  // inference forwards keep the pack
  }
}

// Model::Fit asks its first layer for parameter gradients only, so Dense
// skips the input-gradient GEMM there. dW and db must come out bitwise as
// the full Backward leaves them, at the served model's hidden-layer shapes
// for a full minibatch and for the ragged last one.
TEST(DenseTest, BackwardParamsLeavesTheSameGradientsBitwise) {
  for (const auto& [in, out] :
       {std::pair<size_t, size_t>{64, 48}, {48, 24}}) {
    for (size_t rows : {256, 172}) {
      Rng rng_a(10), rng_b(10), rng(11);
      Dense full(in, out, rng_a), params_only(in, out, rng_b);
      la::Matrix x = la::Matrix::Random(rows, in, -1.0, 1.0, rng);
      la::Matrix g = la::Matrix::Random(rows, out, -1.0, 1.0, rng);
      full.Forward(x, /*training=*/true);
      params_only.Forward(x, /*training=*/true);
      full.Backward(g);
      params_only.BackwardParams(g);
      const std::vector<Param> want = full.Params();
      const std::vector<Param> got = params_only.Params();
      ASSERT_EQ(got.size(), want.size());
      for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(Bits(*got[i].grad), Bits(*want[i].grad))
            << want[i].name << ", " << in << " -> " << out << ", " << rows
            << " rows";
      }
    }
  }
}

// The pack is dropped by what could make it stale: a training forward (the
// optimizer step after it moves the weights).
TEST(DenseTest, TrainingForwardDropsThePack) {
  Rng rng(9);
  Dense dense(8, 4, rng);
  la::Matrix x = la::Matrix::Random(2, 8, -1.0, 1.0, rng);
  dense.Prepack();
  dense.Forward(x, /*training=*/true);
  EXPECT_FALSE(dense.prepacked());
}

TEST(ActivationTest, GradientCheckRelu) {
  Rng rng(3);
  Activation act(ActivationKind::kRelu);
  // Keep inputs away from the kink at 0.
  la::Matrix x = la::Matrix::Random(4, 6, 0.1, 1.0, rng);
  for (size_t i = 0; i < x.size(); i += 2) x.data()[i] *= -1.0;
  CheckGradients(act, x, 1e-4);
}

// The branch-free ReLU keeps ReluScalar's semantics on every edge input:
// z > 0 keeps z, and -0.0 and NaN become +0.0 in the training and
// inference forwards and in place; the gradient is +0.0 wherever y <= 0
// and the upstream gradient's exact bits (-0.0 included) elsewhere.
TEST(ActivationTest, ReluEdgeCasesAreBitwiseExact) {
  using Limits = std::numeric_limits<double>;
  const double nan = Limits::quiet_NaN();
  const double inf = Limits::infinity();
  const double tiny = Limits::denorm_min();
  la::Matrix z = la::Matrix::FromRows({{-0.0, 0.0, nan, -nan, inf, -inf},
                                       {tiny, -tiny, 1.0, -1.0, 0.0, 0.0}});
  la::Matrix upstream =
      la::Matrix::FromRows({{-1.5, 2.5, -3.5, 4.5, -0.0, -5.5},
                            {-0.0, 6.5, -7.5, -8.5, 9.5, -0.0}});
  Activation act(ActivationKind::kRelu);
  la::Matrix inference = act.Forward(z, /*training=*/false);
  la::Matrix in_place = z;
  ASSERT_TRUE(act.ForwardInPlace(&in_place));
  la::Matrix y = act.Forward(z, /*training=*/true);
  la::Matrix grad = act.Backward(upstream);

  la::Matrix want_y(z.rows(), z.cols());
  la::Matrix want_grad(z.rows(), z.cols());
  for (size_t i = 0; i < z.size(); ++i) {
    want_y.data()[i] = ReluScalar(z.data()[i]);
    want_grad.data()[i] =
        want_y.data()[i] <= 0.0 ? 0.0 : upstream.data()[i];
  }
  EXPECT_EQ(Bits(inference), Bits(want_y));
  EXPECT_EQ(Bits(in_place), Bits(want_y));
  EXPECT_EQ(Bits(y), Bits(want_y));
  EXPECT_EQ(Bits(grad), Bits(want_grad));
  // The reference itself: -0.0 and NaN go to +0.0, not to themselves.
  EXPECT_EQ(std::bit_cast<uint64_t>(ReluScalar(-0.0)), 0u);
  EXPECT_EQ(std::bit_cast<uint64_t>(ReluScalar(nan)), 0u);
  EXPECT_EQ(std::bit_cast<uint64_t>(ReluScalar(-tiny)), 0u);
}

TEST(ActivationTest, GradientCheckSigmoidTanh) {
  Rng rng(4);
  Activation sigmoid(ActivationKind::kSigmoid);
  la::Matrix x = la::Matrix::Random(3, 5, -2.0, 2.0, rng);
  CheckGradients(sigmoid, x, 1e-4);
  Activation tanh_act(ActivationKind::kTanh);
  CheckGradients(tanh_act, x, 1e-4);
}

TEST(ActivationTest, Names) {
  EXPECT_EQ(Activation(ActivationKind::kRelu).Name(), "ReLU");
  EXPECT_EQ(Activation(ActivationKind::kSigmoid).Name(), "Sigmoid");
  EXPECT_EQ(Activation(ActivationKind::kTanh).Name(), "Tanh");
}

TEST(Conv1DTest, OutputShape) {
  Rng rng(5);
  Conv1D conv(10, 1, 3, 4, rng);
  EXPECT_EQ(conv.output_length(), 7u);
  la::Matrix x = la::Matrix::Random(2, 10, -1.0, 1.0, rng);
  la::Matrix y = conv.Forward(x, false);
  EXPECT_EQ(y.rows(), 2u);
  EXPECT_EQ(y.cols(), 7u * 3u);
}

TEST(Conv1DTest, KnownConvolution) {
  Rng rng(6);
  Conv1D conv(4, 1, 1, 2, rng);
  auto params = conv.Params();
  *params[0].value = la::Matrix::FromRows({{1.0, -1.0}});  // difference kernel
  params[1].value->Fill(0.0);
  la::Matrix x = la::Matrix::FromRows({{1, 3, 6, 10}});
  la::Matrix y = conv.Forward(x, false);
  EXPECT_DOUBLE_EQ(y(0, 0), -2.0);
  EXPECT_DOUBLE_EQ(y(0, 1), -3.0);
  EXPECT_DOUBLE_EQ(y(0, 2), -4.0);
}

TEST(Conv1DTest, GradientCheck) {
  Rng rng(7);
  Conv1D conv(8, 2, 3, 3, rng);
  la::Matrix x = la::Matrix::Random(2, 16, -1.0, 1.0, rng);
  CheckGradients(conv, x, 1e-4);
}

TEST(MaxPoolTest, ForwardSelectsMaxima) {
  MaxPool1D pool(4, 1, 2);
  la::Matrix x = la::Matrix::FromRows({{1, 5, 3, 2}});
  la::Matrix y = pool.Forward(x, true);
  ASSERT_EQ(y.cols(), 2u);
  EXPECT_DOUBLE_EQ(y(0, 0), 5.0);
  EXPECT_DOUBLE_EQ(y(0, 1), 3.0);
}

TEST(MaxPoolTest, BackwardRoutesToArgmax) {
  MaxPool1D pool(4, 1, 2);
  la::Matrix x = la::Matrix::FromRows({{1, 5, 3, 2}});
  pool.Forward(x, true);
  la::Matrix grad = la::Matrix::FromRows({{10.0, 20.0}});
  la::Matrix gx = pool.Backward(grad);
  EXPECT_DOUBLE_EQ(gx(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(gx(0, 1), 10.0);
  EXPECT_DOUBLE_EQ(gx(0, 2), 20.0);
  EXPECT_DOUBLE_EQ(gx(0, 3), 0.0);
}

TEST(MaxPoolTest, MultiChannelLayout) {
  // 4 positions, 2 channels, pool 2: channels pooled independently.
  MaxPool1D pool(4, 2, 2);
  la::Matrix x(1, 8);
  // position-major, channel-minor: (p0c0,p0c1, p1c0,p1c1, ...)
  double vals[] = {1, 10, 2, 9, 3, 30, 4, 20};
  for (int i = 0; i < 8; ++i) x(0, i) = vals[i];
  la::Matrix y = pool.Forward(x, false);
  ASSERT_EQ(y.cols(), 4u);
  EXPECT_DOUBLE_EQ(y(0, 0), 2.0);   // max(p0c0, p1c0)
  EXPECT_DOUBLE_EQ(y(0, 1), 10.0);  // max(p0c1, p1c1)
  EXPECT_DOUBLE_EQ(y(0, 2), 4.0);
  EXPECT_DOUBLE_EQ(y(0, 3), 30.0);
}

TEST(MaxPoolTest, TruncatesTrailingPositions) {
  MaxPool1D pool(5, 1, 2);
  EXPECT_EQ(pool.output_length(), 2u);
  la::Matrix x = la::Matrix::FromRows({{1, 2, 3, 4, 99}});
  la::Matrix y = pool.Forward(x, false);
  EXPECT_EQ(y.cols(), 2u);
  EXPECT_DOUBLE_EQ(y(0, 1), 4.0);  // the 99 is dropped
}

TEST(LossTest, SoftmaxCrossEntropyKnownValue) {
  la::Matrix logits = la::Matrix::FromRows({{0.0, 0.0, 0.0}});
  LossResult lr = SoftmaxCrossEntropy(logits, {1});
  EXPECT_NEAR(lr.loss, std::log(3.0), 1e-12);
  // Gradient: softmax - onehot = 1/3 everywhere except label 1/3-1.
  EXPECT_NEAR(lr.grad(0, 0), 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(lr.grad(0, 1), 1.0 / 3.0 - 1.0, 1e-12);
}

TEST(LossTest, SoftmaxCrossEntropyGradientCheck) {
  Rng rng(8);
  la::Matrix logits = la::Matrix::Random(3, 4, -1.0, 1.0, rng);
  std::vector<int> labels = {0, 3, 2};
  LossResult lr = SoftmaxCrossEntropy(logits, labels);
  const double eps = 1e-6;
  for (size_t i = 0; i < logits.size(); ++i) {
    la::Matrix up = logits, down = logits;
    up.data()[i] += eps;
    down.data()[i] -= eps;
    double numeric = (SoftmaxCrossEntropy(up, labels).loss -
                      SoftmaxCrossEntropy(down, labels).loss) /
                     (2 * eps);
    EXPECT_NEAR(lr.grad.data()[i], numeric, 1e-5);
  }
}

TEST(LossTest, BinaryCrossEntropyMatchesEquation12) {
  la::Matrix probs = la::Matrix::FromRows({{0.8}, {0.3}});
  LossResult lr = BinaryCrossEntropy(probs, {1, 0});
  double expected = -(std::log(0.8) + std::log(0.7)) / 2.0;
  EXPECT_NEAR(lr.loss, expected, 1e-12);
}

}  // namespace
}  // namespace newsdiff::nn
