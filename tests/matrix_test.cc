#include <gtest/gtest.h>

#include <cmath>

#include "linalg/matrix.h"
#include "util/rng.h"

namespace aneci {
namespace {

Matrix Naive(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  for (int i = 0; i < a.rows(); ++i)
    for (int j = 0; j < b.cols(); ++j)
      for (int k = 0; k < a.cols(); ++k) c(i, j) += a(i, k) * b(k, j);
  return c;
}

void ExpectNear(const Matrix& a, const Matrix& b, double tol = 1e-10) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (int i = 0; i < a.rows(); ++i)
    for (int j = 0; j < a.cols(); ++j)
      EXPECT_NEAR(a(i, j), b(i, j), tol) << "at (" << i << "," << j << ")";
}

TEST(Matrix, ConstructionAndAccess) {
  Matrix m(3, 4, 2.5);
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.cols(), 4);
  EXPECT_EQ(m.size(), 12);
  EXPECT_DOUBLE_EQ(m(2, 3), 2.5);
  m(1, 2) = -7.0;
  EXPECT_DOUBLE_EQ(m(1, 2), -7.0);
}

TEST(Matrix, FromRowsAndIdentity) {
  Matrix m = Matrix::FromRows({{1, 2}, {3, 4}, {5, 6}});
  EXPECT_EQ(m.rows(), 3);
  EXPECT_DOUBLE_EQ(m(2, 1), 6);
  Matrix id = Matrix::Identity(3);
  EXPECT_DOUBLE_EQ(id(1, 1), 1.0);
  EXPECT_DOUBLE_EQ(id(0, 1), 0.0);
}

TEST(Matrix, ArithmeticInPlace) {
  Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  Matrix b = Matrix::FromRows({{10, 20}, {30, 40}});
  a += b;
  EXPECT_DOUBLE_EQ(a(1, 1), 44);
  a -= b;
  EXPECT_DOUBLE_EQ(a(1, 1), 4);
  a *= 2.0;
  EXPECT_DOUBLE_EQ(a(0, 0), 2);
  a.Axpy(0.5, b);
  EXPECT_DOUBLE_EQ(a(0, 1), 4 + 10);
}

TEST(Matrix, HadamardAndApply) {
  Matrix a = Matrix::FromRows({{1, -2}, {3, -4}});
  Matrix b = Matrix::FromRows({{2, 2}, {2, 2}});
  Matrix h = Hadamard(a, b);
  EXPECT_DOUBLE_EQ(h(0, 1), -4);
  a.Apply([](double v) { return std::abs(v); });
  EXPECT_DOUBLE_EQ(a(1, 1), 4);
}

class MatMulSizes : public testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(MatMulSizes, MatchesNaive) {
  auto [m, k, n] = GetParam();
  Rng rng(m * 100 + k * 10 + n);
  Matrix a = Matrix::RandomNormal(m, k, 1.0, rng);
  Matrix b = Matrix::RandomNormal(k, n, 1.0, rng);
  ExpectNear(MatMul(a, b), Naive(a, b));
  ExpectNear(MatMulTransA(Transpose(a), b), Naive(a, b));
  ExpectNear(MatMulTransB(a, Transpose(b)), Naive(a, b));
}

INSTANTIATE_TEST_SUITE_P(Shapes, MatMulSizes,
                         testing::Values(std::make_tuple(1, 1, 1),
                                         std::make_tuple(2, 3, 4),
                                         std::make_tuple(5, 1, 7),
                                         std::make_tuple(8, 8, 8),
                                         std::make_tuple(13, 7, 3),
                                         std::make_tuple(1, 16, 1)));

TEST(Matrix, TransposeInvolution) {
  Rng rng(3);
  Matrix a = Matrix::RandomNormal(4, 7, 1.0, rng);
  ExpectNear(Transpose(Transpose(a)), a);
}

TEST(Matrix, RowSoftmaxRowsSumToOne) {
  Rng rng(5);
  Matrix a = Matrix::RandomNormal(10, 6, 3.0, rng);
  Matrix s = RowSoftmax(a);
  for (int i = 0; i < s.rows(); ++i) {
    double sum = 0.0;
    for (int j = 0; j < s.cols(); ++j) {
      EXPECT_GT(s(i, j), 0.0);
      sum += s(i, j);
    }
    EXPECT_NEAR(sum, 1.0, 1e-12);
  }
}

TEST(Matrix, RowSoftmaxStableWithLargeValues) {
  Matrix a = Matrix::FromRows({{1000.0, 1001.0}});
  Matrix s = RowSoftmax(a);
  EXPECT_NEAR(s(0, 0) + s(0, 1), 1.0, 1e-12);
  EXPECT_GT(s(0, 1), s(0, 0));
  EXPECT_FALSE(std::isnan(s(0, 0)));
}

TEST(Matrix, RowNormalizeL1) {
  Matrix a = Matrix::FromRows({{1, 3}, {0, 0}, {-2, 2}});
  Matrix n = RowNormalizeL1(a);
  EXPECT_DOUBLE_EQ(n(0, 0), 0.25);
  EXPECT_DOUBLE_EQ(n(0, 1), 0.75);
  EXPECT_DOUBLE_EQ(n(1, 0), 0.0);  // Zero row untouched.
  EXPECT_DOUBLE_EQ(std::abs(n(2, 0)) + std::abs(n(2, 1)), 1.0);
}

TEST(Matrix, RowNormalizeL2) {
  Matrix a = Matrix::FromRows({{3, 4}, {0, 0}});
  Matrix n = RowNormalizeL2(a);
  EXPECT_NEAR(n(0, 0), 0.6, 1e-12);
  EXPECT_NEAR(n(0, 1), 0.8, 1e-12);
  EXPECT_DOUBLE_EQ(n(1, 0), 0.0);
}

TEST(Matrix, SelectRows) {
  Matrix a = Matrix::FromRows({{1, 2}, {3, 4}, {5, 6}});
  Matrix s = a.SelectRows({2, 0});
  EXPECT_EQ(s.rows(), 2);
  EXPECT_DOUBLE_EQ(s(0, 0), 5);
  EXPECT_DOUBLE_EQ(s(1, 1), 2);
}

TEST(Matrix, ConcatColumns) {
  const Matrix left = Matrix::FromRows({{1, 2}, {3, 4}});
  const Matrix right = Matrix::FromRows({{5}, {6}});
  const Matrix c = Matrix::ConcatColumns(left, right);
  ASSERT_EQ(c.rows(), 2);
  ASSERT_EQ(c.cols(), 3);
  EXPECT_DOUBLE_EQ(c(0, 1), 2);
  EXPECT_DOUBLE_EQ(c(0, 2), 5);
  EXPECT_DOUBLE_EQ(c(1, 0), 3);
  EXPECT_DOUBLE_EQ(c(1, 2), 6);
}

TEST(Matrix, Reductions) {
  Matrix a = Matrix::FromRows({{1, -2}, {3, 4}});
  EXPECT_DOUBLE_EQ(a.Sum(), 6);
  EXPECT_DOUBLE_EQ(a.Max(), 4);
  EXPECT_DOUBLE_EQ(a.Min(), -2);
  EXPECT_NEAR(a.FrobeniusNorm(), std::sqrt(1 + 4 + 9 + 16), 1e-12);
  auto rs = RowSums(a);
  EXPECT_DOUBLE_EQ(rs[0], -1);
  EXPECT_DOUBLE_EQ(rs[1], 7);
  auto cm = ColMeans(a);
  EXPECT_DOUBLE_EQ(cm[0], 2);
  EXPECT_DOUBLE_EQ(cm[1], 1);
}

TEST(Matrix, GlorotUniformWithinLimit) {
  Rng rng(21);
  Matrix w = Matrix::GlorotUniform(30, 50, rng);
  const double limit = std::sqrt(6.0 / 80.0);
  EXPECT_LE(w.Max(), limit);
  EXPECT_GE(w.Min(), -limit);
  // Not all-zero and roughly centred.
  EXPECT_GT(w.FrobeniusNorm(), 0.0);
  EXPECT_NEAR(w.Sum() / w.size(), 0.0, limit / 10.0);
}

TEST(Matrix, GlorotUniformOrientationAndLimitRegression) {
  // Regression pin: GlorotUniform(fan_in, fan_out) returns a
  // (fan_in rows x fan_out cols) matrix — the orientation every call site
  // assumes when computing X * W with X (n x fan_in) — with entries in
  // (-L, L), L = sqrt(6 / (fan_in + fan_out)).
  Rng rng(99);
  const int fan_in = 37, fan_out = 120;
  Matrix w = Matrix::GlorotUniform(fan_in, fan_out, rng);
  EXPECT_EQ(w.rows(), fan_in);
  EXPECT_EQ(w.cols(), fan_out);
  const double limit = std::sqrt(6.0 / (fan_in + fan_out));
  EXPECT_LT(w.Max(), limit);
  EXPECT_GT(w.Min(), -limit);
  // With 4440 samples the extremes should approach the limit; this fails if
  // the limit formula drifts (e.g. sqrt(6/fan_in) or swapped arguments
  // changing the sample count).
  EXPECT_GT(w.Max(), 0.9 * limit);
  EXPECT_LT(w.Min(), -0.9 * limit);
  // Asymmetric fan-in/out: swapping the arguments must swap the shape.
  Matrix wt = Matrix::GlorotUniform(fan_out, fan_in, rng);
  EXPECT_EQ(wt.rows(), fan_out);
  EXPECT_EQ(wt.cols(), fan_in);
}

TEST(Matrix, CosineSimilarity) {
  std::vector<double> a = {1, 0}, b = {0, 1}, c = {2, 0};
  EXPECT_NEAR(CosineSimilarity(a.data(), b.data(), 2), 0.0, 1e-12);
  EXPECT_NEAR(CosineSimilarity(a.data(), c.data(), 2), 1.0, 1e-12);
  std::vector<double> zero = {0, 0};
  EXPECT_DOUBLE_EQ(CosineSimilarity(a.data(), zero.data(), 2), 0.0);
}

TEST(Matrix, DotChecksSizes) {
  EXPECT_DOUBLE_EQ(Dot({1, 2, 3}, {4, 5, 6}), 32);
}

}  // namespace
}  // namespace aneci
