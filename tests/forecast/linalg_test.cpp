#include "forecast/arima/linalg.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"

namespace fdqos::forecast {
namespace {

TEST(MatrixTest, ConstructionAndAccess) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m.at(1, 2), 1.5);
  m.at(0, 1) = -2.0;
  EXPECT_DOUBLE_EQ(m.at(0, 1), -2.0);
}

TEST(CholeskySolveTest, SolvesSpdSystem) {
  // A = [[4,2],[2,3]], b = [6,5] -> x = [1,1].
  Matrix a(2, 2);
  a.at(0, 0) = 4.0;
  a.at(0, 1) = 2.0;
  a.at(1, 0) = 2.0;
  a.at(1, 1) = 3.0;
  std::vector<double> x;
  ASSERT_TRUE(cholesky_solve(a, std::vector<double>{6.0, 5.0}, x));
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 1.0, 1e-12);
}

TEST(CholeskySolveTest, RejectsIndefiniteMatrix) {
  Matrix a(2, 2);
  a.at(0, 0) = 1.0;
  a.at(0, 1) = 2.0;
  a.at(1, 0) = 2.0;
  a.at(1, 1) = 1.0;  // eigenvalues 3 and -1
  std::vector<double> x;
  EXPECT_FALSE(cholesky_solve(a, std::vector<double>{1.0, 1.0}, x));
}

TEST(CholeskySolveTest, RandomSpdRoundTrip) {
  Rng rng(3);
  const std::size_t n = 6;
  // A = B·Bᵀ + I is SPD.
  Matrix b(n, n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) b.at(r, c) = rng.normal();
  Matrix a(n, n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c)
      for (std::size_t k = 0; k < n; ++k) a.at(r, c) += b.at(r, k) * b.at(c, k);
  for (std::size_t i = 0; i < n; ++i) a.at(i, i) += 1.0;
  std::vector<double> truth(n);
  for (auto& v : truth) v = rng.uniform(-2.0, 2.0);
  std::vector<double> rhs(n, 0.0);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) rhs[r] += a.at(r, c) * truth[c];
  std::vector<double> x;
  ASSERT_TRUE(cholesky_solve(a, rhs, x));
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], truth[i], 1e-9);
}

// OLS through solve_normal_equations, with XᵀX (upper triangle) and Xᵀy
// accumulated from the design's rows.
bool least_squares(const Matrix& x, std::span<const double> y,
                   std::vector<double>& beta) {
  Matrix xtx(x.cols(), x.cols());
  std::vector<double> xty(x.cols(), 0.0);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    for (std::size_t i = 0; i < x.cols(); ++i) {
      xty[i] += x.at(r, i) * y[r];
      for (std::size_t j = i; j < x.cols(); ++j) {
        xtx.at(i, j) += x.at(r, i) * x.at(r, j);
      }
    }
  }
  return solve_normal_equations(xtx, xty, beta);
}

TEST(LeastSquaresTest, ExactFitWhenConsistent) {
  // y = 2 + 3x fit from noiseless data.
  const int n = 20;
  Matrix design(n, 2);
  std::vector<double> y(n);
  for (int i = 0; i < n; ++i) {
    design.at(i, 0) = 1.0;
    design.at(i, 1) = i;
    y[static_cast<std::size_t>(i)] = 2.0 + 3.0 * i;
  }
  std::vector<double> beta;
  ASSERT_TRUE(least_squares(design, y, beta));
  EXPECT_NEAR(beta[0], 2.0, 1e-6);
  EXPECT_NEAR(beta[1], 3.0, 1e-6);
}

TEST(LeastSquaresTest, RecoversCoefficientsUnderNoise) {
  Rng rng(4);
  const int n = 5000;
  Matrix design(n, 3);
  std::vector<double> y(n);
  for (int i = 0; i < n; ++i) {
    const double x1 = rng.normal();
    const double x2 = rng.normal();
    design.at(i, 0) = 1.0;
    design.at(i, 1) = x1;
    design.at(i, 2) = x2;
    y[static_cast<std::size_t>(i)] =
        1.0 - 2.0 * x1 + 0.5 * x2 + rng.normal(0.0, 0.1);
  }
  std::vector<double> beta;
  ASSERT_TRUE(least_squares(design, y, beta));
  EXPECT_NEAR(beta[0], 1.0, 0.02);
  EXPECT_NEAR(beta[1], -2.0, 0.02);
  EXPECT_NEAR(beta[2], 0.5, 0.02);
}

TEST(LeastSquaresTest, SurvivesCollinearRegressors) {
  // Two identical columns: the ridge keeps the normal equations solvable.
  const int n = 50;
  Matrix design(n, 2);
  std::vector<double> y(n);
  for (int i = 0; i < n; ++i) {
    design.at(i, 0) = i;
    design.at(i, 1) = i;
    y[static_cast<std::size_t>(i)] = 2.0 * i;
  }
  std::vector<double> beta;
  ASSERT_TRUE(least_squares(design, y, beta));
  EXPECT_NEAR(beta[0] + beta[1], 2.0, 1e-3);
}

}  // namespace
}  // namespace fdqos::forecast
