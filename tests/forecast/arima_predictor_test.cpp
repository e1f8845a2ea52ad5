#include "forecast/arima/arima_predictor.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.hpp"
#include "forecast/basic_predictors.hpp"
#include "forecast/msqerr.hpp"

namespace fdqos::forecast {
namespace {

ArimaPredictorConfig fast_config() {
  ArimaPredictorConfig config;
  config.refit_every = 200;
  config.min_fit = 64;
  config.max_history = 2048;
  return config;
}

TEST(ArimaPredictorTest, NameCarriesOrder) {
  ArimaPredictor p(ArimaOrder{2, 1, 1});
  EXPECT_EQ(p.name(), "ARIMA(2,1,1)");
}

TEST(ArimaPredictorTest, FallsBackToMeanBeforeFirstFit) {
  ArimaPredictor p(ArimaOrder{2, 1, 1}, fast_config());
  p.observe(10.0);
  p.observe(20.0);
  EXPECT_FALSE(p.has_model());
  EXPECT_DOUBLE_EQ(p.predict(), 15.0);
}

TEST(ArimaPredictorTest, FitsAfterMinObservations) {
  Rng rng(30);
  ArimaPredictor p(ArimaOrder{1, 0, 0}, fast_config());
  double x = 0.0;
  for (int i = 0; i < 100; ++i) {
    x = 0.7 * x + rng.normal();
    p.observe(x + 50.0);
  }
  EXPECT_TRUE(p.has_model());
  EXPECT_GE(p.refit_count(), 1u);
}

TEST(ArimaPredictorTest, TracksRegimeShiftViaRefit) {
  // Mean jumps mid-stream; after the next refit, predictions must follow.
  Rng rng(31);
  ArimaPredictor p(ArimaOrder{0, 1, 0}, fast_config());
  for (int i = 0; i < 500; ++i) p.observe(rng.normal(100.0, 1.0));
  for (int i = 0; i < 500; ++i) p.observe(rng.normal(200.0, 1.0));
  EXPECT_NEAR(p.predict(), 200.0, 10.0);
}

TEST(ArimaPredictorTest, BeatsMeanOnAutocorrelatedSeries) {
  Rng rng(32);
  std::vector<double> series;
  double x = 0.0;
  for (int i = 0; i < 8000; ++i) {
    x = 0.9 * x + rng.normal();
    series.push_back(x + 200.0);
  }
  ArimaPredictor arima(ArimaOrder{1, 0, 0}, fast_config());
  MeanPredictor mean;
  const double arima_err = evaluate_accuracy(arima, series).msqerr;
  MeanPredictor mean_fresh;
  const double mean_err = evaluate_accuracy(mean_fresh, series).msqerr;
  (void)mean;
  EXPECT_LT(arima_err, mean_err);
}

TEST(ArimaPredictorTest, RejectsDegenerateFitsAndKeepsWorking) {
  // A constant series gives a singular fit; the predictor must keep
  // predicting (mean fallback) and must not produce NaN.
  ArimaPredictor p(ArimaOrder{2, 1, 1}, fast_config());
  for (int i = 0; i < 1000; ++i) {
    p.observe(42.0);
    const double f = p.predict();
    EXPECT_TRUE(std::isfinite(f));
    EXPECT_NEAR(f, 42.0, 1.0);
  }
}

TEST(ArimaPredictorTest, MakeFreshProducesColdPredictor) {
  ArimaPredictor p(ArimaOrder{2, 1, 1}, fast_config());
  for (int i = 0; i < 300; ++i) p.observe(static_cast<double>(i % 7));
  auto fresh = p.make_fresh();
  EXPECT_EQ(fresh->observation_count(), 0u);
  EXPECT_EQ(fresh->name(), p.name());
  EXPECT_DOUBLE_EQ(fresh->predict(), 0.0);
}

TEST(ArimaPredictorTest, HistoryBoundDoesNotBreakPrediction) {
  ArimaPredictorConfig config = fast_config();
  config.max_history = 256;  // force several compactions
  ArimaPredictor p(ArimaOrder{1, 0, 0}, config);
  Rng rng(33);
  double x = 0.0;
  for (int i = 0; i < 5000; ++i) {
    x = 0.5 * x + rng.normal();
    p.observe(x + 10.0);
    EXPECT_TRUE(std::isfinite(p.predict()));
  }
  EXPECT_EQ(p.observation_count(), 5000u);
}

TEST(ArimaPredictorTest, RejectsNonStationaryFit) {
  // An explosive AR(1) path: least squares fits φ ≈ 1.05, which replays
  // the window well but would forecast a diverging series. The predictor
  // must refuse it and keep the MEAN fallback.
  ArimaPredictor p(ArimaOrder{1, 0, 0}, fast_config());
  Rng rng(34);
  double x = 1.0;
  for (int i = 0; i < 64; ++i) {
    x = 1.05 * x + 0.01 * rng.normal();
    p.observe(x);
  }
  EXPECT_EQ(p.refit_count(), 1u);
  EXPECT_EQ(p.refit_rejections(), 1u);
  EXPECT_FALSE(p.has_model());
}

TEST(CoefficientsAdmissibleTest, ChecksArStationarityAndMaInvertibility) {
  ArimaCoefficients c;
  c.ar = {0.5, 0.3};
  c.ma = {0.4};
  EXPECT_TRUE(coefficients_admissible(c));
  c.ar = {0.7, 0.4};  // AR part has a root inside the unit circle
  EXPECT_FALSE(coefficients_admissible(c));
  c.ar = {0.5};
  c.ma = {-1.2};  // θ_1 = 1.2: residual feedback diverges
  EXPECT_FALSE(coefficients_admissible(c));
  // ma_j = −θ_j: 1 + 0.5z + 0.6z² has roots of modulus 1.29 (invertible),
  // while 1 − 0.5z − 0.6z² has one at 0.94 (not invertible).
  c.ma = {0.5, 0.6};
  EXPECT_TRUE(coefficients_admissible(c));
  c.ma = {-0.5, -0.6};
  EXPECT_FALSE(coefficients_admissible(c));
}

TEST(ReplayMsqerrTest, ZeroOnSelfConsistentModel) {
  // An AR(1) model replayed over its own noiseless trajectory has zero
  // one-step error.
  ArimaCoefficients coeffs;
  coeffs.ar = {0.5};
  std::vector<double> series{16.0};
  for (int i = 0; i < 20; ++i) series.push_back(series.back() * 0.5);
  const double msq =
      replay_msqerr(ArimaModel(ArimaOrder{1, 0, 0}, coeffs), series, 1);
  EXPECT_NEAR(msq, 0.0, 1e-18);
}

TEST(ReplayMsqerrTest, InfiniteWhenNothingScored) {
  ArimaModel model(ArimaOrder{0, 0, 0}, ArimaCoefficients{});
  const double msq = replay_msqerr(model, std::vector<double>{1.0}, 5);
  EXPECT_TRUE(std::isinf(msq));
}

}  // namespace
}  // namespace fdqos::forecast
