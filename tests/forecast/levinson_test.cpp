#include "forecast/arima/levinson.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.hpp"
#include "forecast/arima/acf.hpp"

namespace fdqos::forecast {
namespace {

std::vector<double> simulate_ar(std::span<const double> phi, std::size_t n,
                                std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> xs(n, 0.0);
  for (std::size_t t = 0; t < n; ++t) {
    double v = rng.normal();
    for (std::size_t i = 0; i < phi.size() && i < t; ++i) {
      v += phi[i] * xs[t - 1 - i];
    }
    xs[t] = v;
  }
  return xs;
}

TEST(LevinsonTest, OrderZero) {
  const std::vector<double> rho{1.0};
  const ArFit fit = levinson_durbin(rho, 0);
  EXPECT_TRUE(fit.phi.empty());
  EXPECT_DOUBLE_EQ(fit.noise_variance, 1.0);
}

TEST(LevinsonTest, Ar1ClosedForm) {
  // For AR(1): phi_1 = rho_1, noise variance = 1 - rho_1².
  const std::vector<double> rho{1.0, 0.6};
  const ArFit fit = levinson_durbin(rho, 1);
  ASSERT_EQ(fit.phi.size(), 1u);
  EXPECT_NEAR(fit.phi[0], 0.6, 1e-12);
  EXPECT_NEAR(fit.noise_variance, 1.0 - 0.36, 1e-12);
}

TEST(LevinsonTest, Ar2ClosedForm) {
  // Yule–Walker for AR(2) has the closed form
  //   phi1 = rho1(1-rho2)/(1-rho1²), phi2 = (rho2-rho1²)/(1-rho1²).
  const double rho1 = 0.5;
  const double rho2 = 0.4;
  const std::vector<double> rho{1.0, rho1, rho2};
  const ArFit fit = levinson_durbin(rho, 2);
  const double denom = 1.0 - rho1 * rho1;
  EXPECT_NEAR(fit.phi[0], rho1 * (1.0 - rho2) / denom, 1e-12);
  EXPECT_NEAR(fit.phi[1], (rho2 - rho1 * rho1) / denom, 1e-12);
}

TEST(LevinsonTest, ReflectionCoefficientsArePacf) {
  // For an AR(1) process the PACF cuts off after lag 1.
  const auto xs = simulate_ar(std::vector<double>{0.7}, 40000, 7);
  const auto pacf = sample_pacf(xs, 5);
  EXPECT_NEAR(pacf[0], 0.7, 0.03);
  for (std::size_t k = 1; k < 5; ++k) {
    EXPECT_NEAR(pacf[k], 0.0, 0.03) << "lag " << k + 1;
  }
}

TEST(LevinsonTest, RecoversAr2FromSimulation) {
  const std::vector<double> truth{0.5, 0.3};
  const auto xs = simulate_ar(truth, 60000, 8);
  const ArFit fit = fit_ar_yule_walker(xs, 2);
  EXPECT_NEAR(fit.phi[0], truth[0], 0.03);
  EXPECT_NEAR(fit.phi[1], truth[1], 0.03);
}

TEST(LevinsonTest, NoiseVarianceDecreasesWithOrderOnArProcess) {
  const auto xs = simulate_ar(std::vector<double>{0.6, 0.2}, 30000, 9);
  const ArFit fit1 = fit_ar_yule_walker(xs, 1);
  const ArFit fit2 = fit_ar_yule_walker(xs, 2);
  EXPECT_LE(fit2.noise_variance, fit1.noise_variance + 1e-9);
}

TEST(LevinsonTest, ConstantSeriesDegeneratesGracefully) {
  const std::vector<double> xs(100, 3.0);
  const ArFit fit = fit_ar_yule_walker(xs, 3);
  ASSERT_EQ(fit.phi.size(), 3u);
  for (double p : fit.phi) EXPECT_TRUE(std::isfinite(p));
}

TEST(LevinsonTest, WhiteNoiseGivesNearZeroCoefficients) {
  Rng rng(10);
  std::vector<double> xs;
  for (int i = 0; i < 50000; ++i) xs.push_back(rng.normal());
  const ArFit fit = fit_ar_yule_walker(xs, 4);
  for (double p : fit.phi) EXPECT_NEAR(p, 0.0, 0.03);
  EXPECT_NEAR(fit.noise_variance, 1.0, 0.05);
}

TEST(StationarityTest, MatchesTheAr1AndAr2Regions) {
  EXPECT_TRUE(is_stationary(std::vector<double>{}));
  EXPECT_TRUE(is_stationary(std::vector<double>{0.9}));
  EXPECT_TRUE(is_stationary(std::vector<double>{-0.9}));
  EXPECT_FALSE(is_stationary(std::vector<double>{1.0}));    // unit root
  EXPECT_FALSE(is_stationary(std::vector<double>{-1.05}));
  // AR(2) triangle: φ1 + φ2 < 1, φ2 − φ1 < 1, |φ2| < 1.
  EXPECT_TRUE(is_stationary(std::vector<double>{0.5, 0.3}));
  EXPECT_TRUE(is_stationary(std::vector<double>{1.6, -0.8}));  // complex
  EXPECT_FALSE(is_stationary(std::vector<double>{0.7, 0.4}));  // sum > 1
  EXPECT_FALSE(is_stationary(std::vector<double>{-0.7, 0.4}));
  EXPECT_FALSE(is_stationary(std::vector<double>{0.2, -1.1}));
  EXPECT_FALSE(is_stationary(std::vector<double>{NAN}));
}

TEST(StationarityTest, AgreesWithRootsOfAFactoredAr3) {
  // (1 − 0.5z)(1 − 0.8z)(1 + 0.9z): roots 2, 1.25, −1.11 — stationary.
  // Swap 0.8 for 1.2 and one root (0.83) moves inside the unit circle.
  auto expand = [](double a, double b, double c) {
    // 1 − (a+b+c)z + (ab+ac+bc)z² − abc·z³ in the 1 − Σ c_i z^i form.
    return std::vector<double>{a + b + c, -(a * b + a * c + b * c),
                               a * b * c};
  };
  EXPECT_TRUE(is_stationary(expand(0.5, 0.8, -0.9)));
  EXPECT_FALSE(is_stationary(expand(0.5, 1.2, -0.9)));
}

}  // namespace
}  // namespace fdqos::forecast
