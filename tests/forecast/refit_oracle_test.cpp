// Bit-for-bit oracle for the ARIMA refit kernels.
//
// The library's refit path (stats::acf, the Hannan–Rissanen stages, the
// matrix-free normal equations, ArimaModel's replay loop, order selection)
// runs its sums in blocks and in place, but every floating-point sum must
// keep the operand order of the plain loops below. Those loops are the
// straightforward versions the kernels replaced — one lag at a time, one
// residual row at a time, least squares on a materialised design matrix,
// replay through a modulo-indexed ring — and every comparison is on bit
// patterns (memcmp), not within a tolerance.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "exp/accuracy_experiment.hpp"
#include "forecast/arima/arima_predictor.hpp"
#include "forecast/arima/difference.hpp"
#include "forecast/arima/hannan_rissanen.hpp"
#include "forecast/arima/levinson.hpp"
#include "forecast/arima/linalg.hpp"
#include "forecast/arima/order_selection.hpp"
#include "stats/autocorrelation.hpp"

namespace fdqos::forecast {
namespace {

// ---------------------------------------------------------------------------
// Reference implementations.

namespace ref {

std::vector<double> acf(std::span<const double> xs, std::size_t max_lag) {
  std::vector<double> out(max_lag + 1);
  const double m = stats::mean(xs);
  double g0 = 0.0;
  for (double x : xs) g0 += (x - m) * (x - m);
  g0 /= static_cast<double>(xs.size());
  out[0] = 1.0;
  if (g0 == 0.0) {
    for (std::size_t k = 1; k <= max_lag; ++k) out[k] = 0.0;
    return out;
  }
  for (std::size_t k = 1; k <= max_lag; ++k) {
    double sum = 0.0;
    for (std::size_t t = k; t < xs.size(); ++t) {
      sum += (xs[t] - m) * (xs[t - k] - m);
    }
    out[k] = sum / static_cast<double>(xs.size()) / g0;
  }
  return out;
}

std::vector<double> difference(std::span<const double> series, std::size_t d) {
  std::vector<double> out(series.begin(), series.end());
  for (std::size_t round = 0; round < d; ++round) {
    for (std::size_t i = out.size(); i > 1; --i) {
      out[i - 1] -= out[i - 2];
    }
    out.erase(out.begin());
  }
  return out;
}

std::vector<double> mat_vec(const Matrix& a, std::span<const double> v) {
  std::vector<double> out(a.rows(), 0.0);
  for (std::size_t r = 0; r < a.rows(); ++r) {
    double sum = 0.0;
    for (std::size_t c = 0; c < a.cols(); ++c) sum += a.at(r, c) * v[c];
    out[r] = sum;
  }
  return out;
}

bool least_squares(const Matrix& x, std::span<const double> y,
                   std::vector<double>& beta) {
  const std::size_t n = x.rows();
  const std::size_t k = x.cols();
  if (n < k) return false;
  Matrix xtx(k, k);
  std::vector<double> xty(k, 0.0);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t i = 0; i < k; ++i) {
      const double xi = x.at(r, i);
      if (xi == 0.0) continue;
      xty[i] += xi * y[r];
      for (std::size_t j = i; j < k; ++j) xtx.at(i, j) += xi * x.at(r, j);
    }
  }
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t j = 0; j < i; ++j) xtx.at(i, j) = xtx.at(j, i);
  }
  double trace = 0.0;
  for (std::size_t i = 0; i < k; ++i) trace += xtx.at(i, i);
  const double ridge = trace > 0.0 ? 1e-10 * trace / static_cast<double>(k) : 1e-10;
  for (std::size_t i = 0; i < k; ++i) xtx.at(i, i) += ridge;
  return cholesky_solve(xtx, xty, beta);
}

ArmaFitResult fit_arma_hannan_rissanen(std::span<const double> w,
                                       std::size_t p, std::size_t q) {
  ArmaFitResult result;
  if (p == 0 && q == 0) {
    result.ok = !w.empty();
    if (!result.ok) result.error = "empty series";
    result.coeffs.intercept = stats::mean(w);
    result.residual_variance = stats::variance(w);
    result.rows = w.size();
    return result;
  }
  const std::size_t n = w.size();
  const std::size_t want_m = std::max<std::size_t>(20, p + q + 10);
  result.error = "series too short for long-AR stage";
  if (n < 4 * (p + q + 1) || n / 4 == 0) return result;
  const std::size_t m = std::min(want_m, n / 4);
  if (m == 0 || n <= m + q + p + 2) return result;

  const double mu = stats::mean(w);
  std::vector<double> x(w.begin(), w.end());
  for (auto& v : x) v -= mu;
  const ArFit long_ar = levinson_durbin(ref::acf(x, m), m);

  std::vector<double> a(n, 0.0);
  for (std::size_t t = m; t < n; ++t) {
    double pred = 0.0;
    for (std::size_t i = 1; i <= m; ++i) pred += long_ar.phi[i - 1] * x[t - i];
    a[t] = x[t] - pred;
  }

  const std::size_t start = std::max(m + q, p);
  result.error = "too few stage-2 regression rows";
  if (n <= start) return result;
  const std::size_t rows = n - start;
  const std::size_t k = 1 + p + q;
  if (rows < k + 2) return result;

  Matrix design(rows, k);
  std::vector<double> y(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    const std::size_t t = start + r;
    y[r] = w[t];
    design.at(r, 0) = 1.0;
    for (std::size_t i = 1; i <= p; ++i) design.at(r, i) = w[t - i];
    for (std::size_t j = 1; j <= q; ++j) design.at(r, p + j) = a[t - j];
  }

  std::vector<double> beta;
  result.error = "singular least-squares system";
  if (!ref::least_squares(design, y, beta)) return result;

  result.coeffs.intercept = beta[0];
  result.coeffs.ar.assign(beta.begin() + 1, beta.begin() + 1 + p);
  result.coeffs.ma.assign(beta.begin() + 1 + p, beta.end());
  result.error = "non-finite coefficients";
  for (double b : beta) {
    if (!std::isfinite(b)) return result;
  }

  double ss = 0.0;
  const std::vector<double> fitted = mat_vec(design, beta);
  for (std::size_t r = 0; r < rows; ++r) {
    const double e = y[r] - fitted[r];
    ss += e * e;
  }
  result.residual_variance = ss / static_cast<double>(rows);
  result.rows = rows;
  result.ok = true;
  result.error = nullptr;
  return result;
}

ArmaFitResult fit_arima(std::span<const double> z, const ArimaOrder& order) {
  if (z.size() <= order.d) {
    ArmaFitResult result;
    result.error = "series shorter than differencing order";
    return result;
  }
  const std::vector<double> w = ref::difference(z, order.d);
  return ref::fit_arma_hannan_rissanen(w, order.p, order.q);
}

class Differencer {
 public:
  explicit Differencer(std::size_t d) : last_(d + 1, 0.0) {}
  std::size_t order() const { return last_.size() - 1; }
  bool ready() const { return n_ > order(); }
  double push(double z) {
    double value = z;
    for (std::size_t k = 0; k < last_.size(); ++k) {
      const double prev = last_[k];
      last_[k] = value;
      if (k + 1 == last_.size()) break;
      if (n_ <= k) break;
      value = value - prev;
    }
    ++n_;
    return ready() ? last_[order()] : 0.0;
  }
  double integrate_forecast(double w_hat) const {
    double value = w_hat;
    for (std::size_t k = order(); k > 0; --k) value += last_[k - 1];
    return value;
  }

 private:
  std::vector<double> last_;
  std::size_t n_ = 0;
};

class Model {
 public:
  Model(ArimaOrder order, ArimaCoefficients coeffs)
      : order_(order),
        coeffs_(std::move(coeffs)),
        diff_(order.d),
        recent_w_(order.p > 0 ? order.p : 1, 0.0),
        recent_a_(order.q > 0 ? order.q : 1, 0.0) {}

  void observe(double z) {
    last_z_ = z;
    const double w = diff_.push(z);
    if (!diff_.ready()) return;
    const double a = has_pending_forecast_ ? w - pending_w_forecast_
                                           : w - coeffs_.intercept;
    if (order_.p > 0) recent_w_[w_count_ % recent_w_.size()] = w;
    ++w_count_;
    if (order_.q > 0) recent_a_[a_count_ % recent_a_.size()] = a;
    ++a_count_;
    pending_w_forecast_ = forecast_differenced();
    has_pending_forecast_ = true;
  }

  double forecast() const {
    if (!diff_.ready() || !has_pending_forecast_) return last_z_;
    const double z_hat = diff_.integrate_forecast(pending_w_forecast_);
    if (!std::isfinite(z_hat)) return last_z_;
    return z_hat;
  }

 private:
  double forecast_differenced() const {
    double w_hat = coeffs_.intercept;
    for (std::size_t i = 1; i <= order_.p; ++i) {
      if (i > w_count_) break;
      w_hat += coeffs_.ar[i - 1] * recent_w_[(w_count_ - i) % recent_w_.size()];
    }
    for (std::size_t j = 1; j <= order_.q; ++j) {
      if (j > a_count_) break;
      w_hat += coeffs_.ma[j - 1] * recent_a_[(a_count_ - j) % recent_a_.size()];
    }
    return w_hat;
  }

  ArimaOrder order_;
  ArimaCoefficients coeffs_;
  Differencer diff_;
  std::vector<double> recent_w_;
  std::vector<double> recent_a_;
  std::size_t w_count_ = 0;
  std::size_t a_count_ = 0;
  double pending_w_forecast_ = 0.0;
  bool has_pending_forecast_ = false;
  double last_z_ = 0.0;
};

double replay_msqerr(Model model, std::span<const double> series,
                     std::size_t warmup) {
  double ss = 0.0;
  std::size_t scored = 0;
  for (std::size_t i = 0; i < series.size(); ++i) {
    if (i >= warmup) {
      const double err = series[i] - model.forecast();
      ss += err * err;
      ++scored;
    }
    model.observe(series[i]);
  }
  if (scored == 0) return std::numeric_limits<double>::infinity();
  const double msq = ss / static_cast<double>(scored);
  return std::isfinite(msq) ? msq : std::numeric_limits<double>::infinity();
}

OrderSelectionResult select_arima_order(std::span<const double> series,
                                        const OrderSelectionConfig& config) {
  const auto split = static_cast<std::size_t>(
      static_cast<double>(series.size()) * config.train_fraction);
  const std::span<const double> train = series.subspan(0, split);
  const std::span<const double> test = series.subspan(split);
  OrderSelectionResult result;
  result.best_msqerr = std::numeric_limits<double>::infinity();
  for (std::size_t p = 0; p <= config.max_order.p; ++p) {
    for (std::size_t d = 0; d <= config.max_order.d; ++d) {
      for (std::size_t q = 0; q <= config.max_order.q; ++q) {
        OrderCandidate cand;
        cand.order = ArimaOrder{p, d, q};
        const ArmaFitResult fit = ref::fit_arima(train, cand.order);
        if (fit.ok) {
          cand.fitted = true;
          Model model(cand.order, fit.coeffs);
          for (double z : train) model.observe(z);
          double ss = 0.0;
          for (double z : test) {
            const double err = z - model.forecast();
            ss += err * err;
            model.observe(z);
          }
          const double msq = ss / static_cast<double>(test.size());
          cand.holdout_msqerr =
              std::isfinite(msq) ? msq : std::numeric_limits<double>::infinity();
          if (cand.holdout_msqerr < result.best_msqerr) {
            result.best_msqerr = cand.holdout_msqerr;
            result.best = cand.order;
          }
        } else {
          cand.fail_reason = fit.error;
        }
        result.candidates.push_back(cand);
      }
    }
  }
  return result;
}

}  // namespace ref

// ---------------------------------------------------------------------------
// Bitwise comparison helpers.

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof a[0]) == 0);
}

std::string describe(const std::vector<double>& v) {
  std::string s = "[";
  char buf[32];
  for (double x : v) {
    std::snprintf(buf, sizeof buf, "%s%.17g", s.size() > 1 ? ", " : "", x);
    s += buf;
  }
  return s + "]";
}

std::string error_text(const char* e) { return e == nullptr ? "(none)" : e; }

void expect_same_fit(const ArmaFitResult& got, const ArmaFitResult& want) {
  EXPECT_EQ(got.ok, want.ok);
  EXPECT_EQ(error_text(got.error), error_text(want.error));
  EXPECT_EQ(got.rows, want.rows);
  EXPECT_TRUE(same_bits(got.coeffs.intercept, want.coeffs.intercept))
      << got.coeffs.intercept << " vs " << want.coeffs.intercept;
  EXPECT_TRUE(same_bits(got.coeffs.ar, want.coeffs.ar))
      << describe(got.coeffs.ar) << " vs " << describe(want.coeffs.ar);
  EXPECT_TRUE(same_bits(got.coeffs.ma, want.coeffs.ma))
      << describe(got.coeffs.ma) << " vs " << describe(want.coeffs.ma);
  EXPECT_TRUE(same_bits(got.residual_variance, want.residual_variance))
      << got.residual_variance << " vs " << want.residual_variance;
}

// ---------------------------------------------------------------------------
// Windows: Italy→Japan delays as simulated, a constant series, and the same
// delays rounded to whole milliseconds (so differencing yields exact zeros
// and stage 2 meets zero regressors).

constexpr std::size_t kMaxWindow = 8192;

const std::vector<double>& italy_japan() {
  static const std::vector<double> series = [] {
    exp::AccuracyExperimentConfig config;
    config.n_oneway = kMaxWindow * 2;
    std::vector<double> delays = exp::generate_delay_series(config);
    delays.resize(kMaxWindow);
    return delays;
  }();
  return series;
}

struct Window {
  const char* name;
  std::vector<double> values;
};

const std::vector<Window>& windows() {
  static const std::vector<Window> all = [] {
    std::vector<double> quantised = italy_japan();
    for (double& v : quantised) v = std::round(v);
    return std::vector<Window>{{"italy_japan", italy_japan()},
                               {"constant", std::vector<double>(kMaxWindow, 250.0)},
                               {"millisecond_quantised", quantised}};
  }();
  return all;
}

std::vector<ArimaOrder> orders() {
  std::vector<ArimaOrder> out;
  for (std::size_t p = 0; p <= 3; ++p) {
    for (std::size_t d = 0; d <= 2; ++d) {
      for (std::size_t q = 0; q <= 3; ++q) out.push_back(ArimaOrder{p, d, q});
    }
  }
  out.push_back(ArimaOrder{10, 1, 10});
  return out;
}

// Window lengths around every size threshold of fit_arima for `order`.
std::vector<std::size_t> lengths(const ArimaOrder& order) {
  const std::size_t edge = 4 * (order.p + order.q + 1);
  std::vector<std::size_t> out{order.d + 1, edge - 1,          edge,
                               order.d + edge - 1, order.d + edge, 64,
                               65,         1000,     4097,
                               kMaxWindow};
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

// ---------------------------------------------------------------------------

TEST(RefitOracleTest, AcfMatchesPerLagLoop) {
  for (const Window& window : windows()) {
    for (std::size_t n : {1, 2, 3, 9, 17, 64, 65, 1000, 4097, 8192}) {
      const std::span<const double> xs(window.values.data(), n);
      for (std::size_t max_lag : {0, 1, 3, 4, 7, 8, 9, 12, 20, 21, 30, 40}) {
        if (max_lag >= n) continue;
        SCOPED_TRACE(std::string(window.name) + " n=" + std::to_string(n) +
                     " max_lag=" + std::to_string(max_lag));
        const std::vector<double> got = stats::acf(xs, max_lag);
        const std::vector<double> want = ref::acf(xs, max_lag);
        EXPECT_TRUE(same_bits(got, want)) << describe(got) << " vs " << describe(want);
      }
    }
  }
}

TEST(RefitOracleTest, DifferenceMatchesShiftingLoop) {
  for (const Window& window : windows()) {
    for (std::size_t n : {0, 1, 2, 3, 65, 1000}) {
      const std::span<const double> xs(window.values.data(), n);
      for (std::size_t d = 0; d <= std::min<std::size_t>(n, 4); ++d) {
        SCOPED_TRACE(std::string(window.name) + " n=" + std::to_string(n) +
                     " d=" + std::to_string(d));
        EXPECT_TRUE(same_bits(difference(xs, d), ref::difference(xs, d)));
      }
    }
  }
}

TEST(RefitOracleTest, FitAndReplayMatchDenseReference) {
  std::size_t fitted = 0;
  for (const Window& window : windows()) {
    for (const ArimaOrder& order : orders()) {
      for (std::size_t n : lengths(order)) {
        SCOPED_TRACE(std::string(window.name) + " " + order.to_string() +
                     " n=" + std::to_string(n));
        const std::span<const double> z(window.values.data(), n);
        const ArmaFitResult got = fit_arima(z, order);
        const ArmaFitResult want = ref::fit_arima(z, order);
        expect_same_fit(got, want);
        if (!want.ok) continue;
        ++fitted;
        for (std::size_t warmup : {std::size_t{0}, std::size_t{10}, n / 2, n}) {
          const double got_msq = replay_msqerr(ArimaModel(order, want.coeffs), z, warmup);
          const double want_msq =
              ref::replay_msqerr(ref::Model(order, want.coeffs), z, warmup);
          EXPECT_TRUE(same_bits(got_msq, want_msq))
              << "warmup=" << warmup << ": " << got_msq << " vs " << want_msq;
        }
      }
    }
  }
  // Most (window, order, length) cases must reach the stage-2 solve.
  EXPECT_GE(fitted, 900u);
}

TEST(RefitOracleTest, PrimedModelObservesLikeReference) {
  // The live path: prime on a window, then one observe()/forecast() per
  // heartbeat — including a divergent model, whose forecasts fall back to
  // the last observation once they stop being finite.
  const std::vector<double>& series = italy_japan();
  const std::span<const double> history(series.data(), 4000);
  const std::span<const double> live(series.data() + 4000, 500);
  for (const ArimaOrder& order : orders()) {
    SCOPED_TRACE(order.to_string());
    const ArmaFitResult fit = ref::fit_arima(history, order);
    ASSERT_TRUE(fit.ok);
    std::vector<ArimaCoefficients> variants{fit.coeffs};
    if (order.p > 0) {
      ArimaCoefficients divergent = fit.coeffs;
      divergent.ar[0] = 1.5;
      variants.push_back(divergent);
    }
    for (const ArimaCoefficients& coeffs : variants) {
      ArimaModel model(order, coeffs);
      ref::Model want(order, coeffs);
      model.prime(history);
      for (double z : history) want.observe(z);
      EXPECT_TRUE(same_bits(model.forecast(), want.forecast()));
      for (double z : live) {
        model.observe(z);
        want.observe(z);
        ASSERT_TRUE(same_bits(model.forecast(), want.forecast()))
            << model.forecast() << " vs " << want.forecast();
      }
    }
  }
}

TEST(RefitOracleTest, OrderSelectionMatchesSerialReference) {
  const std::span<const double> series(italy_japan().data(), 900);
  OrderSelectionConfig config;
  config.jobs = 1;
  const OrderSelectionResult got = select_arima_order(series, config);
  const OrderSelectionResult want = ref::select_arima_order(series, config);
  EXPECT_EQ(got.best, want.best);
  EXPECT_TRUE(same_bits(got.best_msqerr, want.best_msqerr));
  ASSERT_EQ(got.candidates.size(), want.candidates.size());
  for (std::size_t i = 0; i < got.candidates.size(); ++i) {
    SCOPED_TRACE(want.candidates[i].order.to_string());
    EXPECT_EQ(got.candidates[i].order, want.candidates[i].order);
    EXPECT_EQ(got.candidates[i].fitted, want.candidates[i].fitted);
    EXPECT_EQ(error_text(got.candidates[i].fail_reason),
              error_text(want.candidates[i].fail_reason));
    EXPECT_TRUE(same_bits(got.candidates[i].holdout_msqerr,
                          want.candidates[i].holdout_msqerr));
  }
}

}  // namespace
}  // namespace fdqos::forecast
