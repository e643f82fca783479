#include "la/matrix.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/bitwise.h"
#include "common/rng.h"

namespace newsdiff::la {
namespace {

Matrix Make(const std::vector<std::vector<double>>& rows) {
  return Matrix::FromRows(rows);
}

TEST(MatrixTest, ConstructionAndAccess) {
  Matrix m(2, 3);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.size(), 6u);
  EXPECT_EQ(m(1, 2), 0.0);
  m(1, 2) = 5.0;
  EXPECT_EQ(m(1, 2), 5.0);
}

TEST(MatrixTest, FilledConstruction) {
  Matrix m(2, 2, 3.5);
  EXPECT_EQ(m.Sum(), 14.0);
}

TEST(MatrixTest, FromRows) {
  Matrix m = Make({{1, 2}, {3, 4}});
  EXPECT_EQ(m(0, 1), 2.0);
  EXPECT_EQ(m(1, 0), 3.0);
}

TEST(MatrixTest, IdentityAndTranspose) {
  Matrix id = Matrix::Identity(3);
  Matrix t = id.Transposed();
  for (size_t r = 0; r < 3; ++r) {
    for (size_t c = 0; c < 3; ++c) {
      EXPECT_EQ(id(r, c), t(r, c));
    }
  }
  Matrix m = Make({{1, 2, 3}, {4, 5, 6}});
  Matrix mt = m.Transposed();
  EXPECT_EQ(mt.rows(), 3u);
  EXPECT_EQ(mt.cols(), 2u);
  EXPECT_EQ(mt(2, 1), 6.0);
}

TEST(MatrixTest, AddSubScale) {
  Matrix a = Make({{1, 2}, {3, 4}});
  Matrix b = Make({{10, 20}, {30, 40}});
  a.Add(b);
  EXPECT_EQ(a(1, 1), 44.0);
  a.Sub(b);
  EXPECT_EQ(a(1, 1), 4.0);
  a.Scale(2.0);
  EXPECT_EQ(a(0, 0), 2.0);
}

// The multiply and divide halves of the fused multiplicative update.
TEST(MatrixTest, HadamardAndDivide) {
  Matrix a = Make({{2, 4}});
  a.MultiplicativeUpdate(Make({{3, 5}}), Make({{1, 1}}), 0.0, 0.0);
  EXPECT_EQ(a(0, 0), 6.0);
  EXPECT_EQ(a(0, 1), 20.0);
  a.MultiplicativeUpdate(Make({{1, 1}}), Make({{3, 5}}), 0.0, 0.0);
  EXPECT_EQ(a(0, 0), 2.0);
  EXPECT_EQ(a(0, 1), 4.0);
  a.MultiplicativeUpdate(Make({{3, 5}}), Make({{3, 5}}), 0.0, 0.0);
  EXPECT_EQ(a(0, 0), 2.0);
  EXPECT_EQ(a(0, 1), 4.0);
}

TEST(MatrixTest, DivideEpsilonAvoidsInf) {
  Matrix a = Make({{1.0}});
  Matrix zero = Make({{0.0}});
  a.MultiplicativeUpdate(Make({{1.0}}), zero, 1e-9, 0.0);
  EXPECT_TRUE(std::isfinite(a(0, 0)));
  EXPECT_EQ(a(0, 0), 1.0 / 1e-9);
  // eps is added to the denominator before dividing, not to the quotient.
  Matrix b = Make({{3.0}});
  b.MultiplicativeUpdate(Make({{1.0}}), Make({{1.0}}), 0.5, 0.0);
  EXPECT_EQ(b(0, 0), 3.0 / 1.5);
}

// The floor of the fused multiplicative update: values below it rise to
// it, a NaN stays NaN (it never compares below the floor), -0.0 rises to a
// positive floor and stays -0.0 at a zero floor, +inf stays.
TEST(MatrixTest, ClampMin) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const Matrix ones = Make({{1, 1, 1, 1, 1}});
  Matrix a = Make({{-1, 0.5, nan, -0.0, inf}});
  a.MultiplicativeUpdate(ones, ones, 0.0, 0.0);
  EXPECT_EQ(a(0, 0), 0.0);
  EXPECT_FALSE(std::signbit(a(0, 0)));
  EXPECT_EQ(a(0, 1), 0.5);
  EXPECT_TRUE(std::isnan(a(0, 2)));
  EXPECT_EQ(a(0, 3), 0.0);
  EXPECT_TRUE(std::signbit(a(0, 3)));
  EXPECT_EQ(a(0, 4), inf);
  a.MultiplicativeUpdate(ones, ones, 0.0, 1e-10);
  EXPECT_EQ(a(0, 0), 1e-10);
  EXPECT_EQ(a(0, 1), 0.5);
  EXPECT_TRUE(std::isnan(a(0, 2)));
  EXPECT_EQ(a(0, 3), 1e-10);
  EXPECT_EQ(a(0, 4), inf);
}

// The exactness gates' comparator: +0.0 and -0.0 differ, which double
// == lets pass; any two NaNs match whatever their payloads; matrices must
// also agree in shape.
TEST(BitwiseTest, SignedZerosDifferAndNaNsMatch) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double other_nan = std::bit_cast<double>(0xfff0000000000001ull);
  ASSERT_TRUE(std::isnan(other_nan));
  EXPECT_FALSE(SameBits(0.0, -0.0));
  EXPECT_TRUE(SameBits(-0.0, -0.0));
  EXPECT_TRUE(SameBits(nan, other_nan));
  EXPECT_FALSE(SameBits(nan, 0.0));
  EXPECT_TRUE(SameBits(1.5, 1.5));

  Matrix a(2, 3), b(2, 3);
  b(1, 2) = -0.0;
  ASSERT_TRUE(a.data() == b.data());
  EXPECT_FALSE(BitwiseEqual(a, b));
  b(1, 2) = 0.0;
  EXPECT_TRUE(BitwiseEqual(a, b));
  EXPECT_FALSE(BitwiseEqual(a, Matrix(3, 2)));
  const std::vector<double> x = {nan, 0.0}, y = {other_nan, -0.0};
  EXPECT_FALSE(BitwiseEqual(x, y));
  EXPECT_TRUE(BitwiseEqual(x, std::vector<double>{other_nan, 0.0}));
  EXPECT_FALSE(BitwiseEqual(x, std::vector<double>{nan}));
}

// The fused update against the three passes it replaced (multiply, then
// divide by den + eps, then clamp to the floor), kept here as the
// reference, over random values mixed with 0, -0.0, +-inf and NaN.
TEST(MatrixTest, MultiplicativeUpdateBitwiseEqualsThreePasses) {
  const double specials[] = {0.0, -0.0, std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::quiet_NaN(),
                             1e-300, -1e-12};
  Rng rng(31);
  auto random = [&] {
    Matrix m(9, 37);
    for (double& v : m.data()) {
      v = rng.NextBelow(6) == 0 ? specials[rng.NextBelow(7)]
                                : rng.Uniform(-1.0, 4.0);
    }
    return m;
  };
  const Matrix x = random(), num = random(), den = random();
  for (double eps : {0.0, 1e-12}) {
    for (double floor : {0.0, 1e-10}) {
      Matrix want = x;
      for (size_t i = 0; i < want.size(); ++i) want.data()[i] *= num.data()[i];
      for (size_t i = 0; i < want.size(); ++i) {
        want.data()[i] /= (den.data()[i] + eps);
      }
      for (double& v : want.data()) {
        if (v < floor) v = floor;
      }
      Matrix got = x;
      got.MultiplicativeUpdate(num, den, eps, floor);
      for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_PRED2(SameBits, got.data()[i], want.data()[i])
            << "flat index " << i << " eps " << eps << " floor " << floor;
      }
    }
  }
}

TEST(MatrixTest, Norms) {
  Matrix a = Make({{3, 4}});
  EXPECT_DOUBLE_EQ(a.FrobeniusNorm(), 5.0);
  EXPECT_DOUBLE_EQ(a.RowNorm(0), 5.0);
  EXPECT_DOUBLE_EQ(a.MaxAbs(), 4.0);
}

TEST(MatrixTest, RowGetSet) {
  Matrix a(2, 3);
  a.SetRow(1, {7, 8, 9});
  EXPECT_EQ(a.Row(1), (std::vector<double>{7, 8, 9}));
  EXPECT_EQ(a.Row(0), (std::vector<double>{0, 0, 0}));
}

TEST(MatrixTest, ResizeZeroes) {
  Matrix a = Make({{1, 2}});
  a.Resize(3, 2);
  EXPECT_EQ(a.rows(), 3u);
  EXPECT_EQ(a.Sum(), 0.0);
}

TEST(MatMulTest, KnownProduct) {
  Matrix a = Make({{1, 2}, {3, 4}});
  Matrix b = Make({{5, 6}, {7, 8}});
  Matrix c = MatMul(a, b);
  EXPECT_EQ(c(0, 0), 19.0);
  EXPECT_EQ(c(0, 1), 22.0);
  EXPECT_EQ(c(1, 0), 43.0);
  EXPECT_EQ(c(1, 1), 50.0);
}

TEST(MatMulTest, IdentityIsNeutral) {
  Rng rng(5);
  Matrix a = Matrix::Random(4, 4, -1.0, 1.0, rng);
  Matrix c = MatMul(a, Matrix::Identity(4));
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(c.data()[i], a.data()[i]);
  }
}

TEST(MatMulTest, TransAVariantsAgreeWithExplicitTranspose) {
  Rng rng(6);
  Matrix a = Matrix::Random(5, 3, -1.0, 1.0, rng);
  Matrix b = Matrix::Random(5, 4, -1.0, 1.0, rng);
  Matrix expected = MatMul(a.Transposed(), b);
  Matrix got = MatMulTransA(a, b);
  ASSERT_EQ(got.rows(), expected.rows());
  ASSERT_EQ(got.cols(), expected.cols());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got.data()[i], expected.data()[i], 1e-12);
  }
}

TEST(MatMulTest, TransBVariantsAgreeWithExplicitTranspose) {
  Rng rng(8);
  Matrix a = Matrix::Random(4, 3, -1.0, 1.0, rng);
  Matrix b = Matrix::Random(6, 3, -1.0, 1.0, rng);
  Matrix expected = MatMul(a, b.Transposed());
  Matrix got = MatMulTransB(a, b);
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got.data()[i], expected.data()[i], 1e-12);
  }
}

TEST(VectorOpsTest, DotAndNorm) {
  EXPECT_DOUBLE_EQ(Dot({1, 2, 3}, {4, 5, 6}), 32.0);
  EXPECT_DOUBLE_EQ(Norm2({3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(Norm2({}), 0.0);
}

TEST(CosineTest, Bounds) {
  EXPECT_DOUBLE_EQ(CosineSimilarity({1, 0}, {1, 0}), 1.0);
  EXPECT_DOUBLE_EQ(CosineSimilarity({1, 0}, {-1, 0}), -1.0);
  EXPECT_DOUBLE_EQ(CosineSimilarity({1, 0}, {0, 1}), 0.0);
}

TEST(CosineTest, ZeroVectorYieldsZero) {
  EXPECT_DOUBLE_EQ(CosineSimilarity({0, 0}, {1, 2}), 0.0);
  EXPECT_DOUBLE_EQ(CosineSimilarity({0, 0}, {0, 0}), 0.0);
}

TEST(CosineTest, ScaleInvariant) {
  std::vector<double> a = {1, 2, 3};
  std::vector<double> b = {4, -1, 2};
  std::vector<double> b10 = {40, -10, 20};
  EXPECT_NEAR(CosineSimilarity(a, b), CosineSimilarity(a, b10), 1e-12);
}

TEST(AxpyTest, Accumulates) {
  std::vector<double> a = {1, 2};
  AxpyInPlace(a, {10, 20}, 0.5);
  EXPECT_EQ(a, (std::vector<double>{6, 12}));
}

/// Property sweep: algebraic identities over random shapes.
struct Shape {
  size_t n, k, m;
};
class MatMulPropertySweep : public ::testing::TestWithParam<Shape> {};

TEST_P(MatMulPropertySweep, ProductTransposeIdentity) {
  // (A B)^T == B^T A^T
  Rng rng(101 + GetParam().n);
  Matrix a = Matrix::Random(GetParam().n, GetParam().k, -2.0, 2.0, rng);
  Matrix b = Matrix::Random(GetParam().k, GetParam().m, -2.0, 2.0, rng);
  Matrix lhs = MatMul(a, b).Transposed();
  Matrix rhs = MatMul(b.Transposed(), a.Transposed());
  ASSERT_EQ(lhs.rows(), rhs.rows());
  for (size_t i = 0; i < lhs.size(); ++i) {
    EXPECT_NEAR(lhs.data()[i], rhs.data()[i], 1e-10);
  }
}

TEST_P(MatMulPropertySweep, DistributesOverAddition) {
  // A (B + C) == A B + A C
  Rng rng(202 + GetParam().m);
  Matrix a = Matrix::Random(GetParam().n, GetParam().k, -1.0, 1.0, rng);
  Matrix b = Matrix::Random(GetParam().k, GetParam().m, -1.0, 1.0, rng);
  Matrix c = Matrix::Random(GetParam().k, GetParam().m, -1.0, 1.0, rng);
  Matrix bc = b;
  bc.Add(c);
  Matrix lhs = MatMul(a, bc);
  Matrix rhs = MatMul(a, b);
  rhs.Add(MatMul(a, c));
  for (size_t i = 0; i < lhs.size(); ++i) {
    EXPECT_NEAR(lhs.data()[i], rhs.data()[i], 1e-10);
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, MatMulPropertySweep,
                         ::testing::Values(Shape{1, 1, 1}, Shape{2, 3, 4},
                                           Shape{5, 1, 5}, Shape{7, 8, 3},
                                           Shape{16, 16, 16}));

}  // namespace
}  // namespace newsdiff::la
