#include "forecast/arima/arima_model.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "common/assert.hpp"

namespace fdqos::forecast {

std::string ArimaOrder::to_string() const {
  char buf[48];
  std::snprintf(buf, sizeof buf, "ARIMA(%zu,%zu,%zu)", p, d, q);
  return buf;
}

namespace {

// The forecast() of a model in this state.
double forecast_from(const DifferenceState& diff, double pending_w_forecast,
                     double last_z) {
  // Not enough history to difference: fall back to persistence.
  if (!diff.ready()) return last_z;
  const double z_hat = diff.integrate_forecast(pending_w_forecast);
  return std::isfinite(z_hat) ? z_hat : last_z;
}

}  // namespace

ArimaModel::ArimaModel(ArimaOrder order, ArimaCoefficients coeffs)
    : order_(order),
      coeffs_(std::move(coeffs)),
      diff_(order.d),
      recent_w_(2 * order.p, 0.0),
      recent_a_(2 * order.q, 0.0) {
  FDQOS_REQUIRE(coeffs_.ar.size() == order_.p);
  FDQOS_REQUIRE(coeffs_.ma.size() == order_.q);
}

void ArimaModel::reset() {
  diff_.reset();
  slot_w_ = 0;
  slot_a_ = 0;
  w_count_ = 0;
  pending_w_forecast_ = 0.0;
  last_z_ = 0.0;
}

void ArimaModel::prime(std::span<const double> history) {
  reset();
  advance(history, history.size());
}

double ArimaModel::prime_and_score(std::span<const double> series,
                                   std::size_t warmup) {
  reset();
  const Score score = advance(series, warmup);
  if (score.scored == 0) return std::numeric_limits<double>::infinity();
  const double msq = score.ss / static_cast<double>(score.scored);
  return std::isfinite(msq) ? msq : std::numeric_limits<double>::infinity();
}

void ArimaModel::observe(double z) { advance({&z, 1}, 1); }

ArimaModel::Score ArimaModel::advance(std::span<const double> zs,
                                      std::size_t warmup) {
  // The model lives in locals for the loop and is stored back at the end.
  DifferenceState diff = std::move(diff_);
  const std::size_t p = order_.p;
  const std::size_t q = order_.q;
  const double intercept = coeffs_.intercept;
  const double* ar = coeffs_.ar.data();
  const double* ma = coeffs_.ma.data();
  double* recent_w = recent_w_.data();
  double* recent_a = recent_a_.data();
  std::size_t slot_w = slot_w_;
  std::size_t slot_a = slot_a_;
  std::size_t count = w_count_;
  double pending = pending_w_forecast_;
  double last_z = last_z_;
  Score score;

  // One observation. kSteady: the differencing is ready and both rings are
  // full (count >= max(p, q)), so no lag is missing; the steady loop below
  // then runs without the warmup tests, computing exactly the same values.
  const auto step = [&]<bool kScore, bool kSteady>(double z) {
    if constexpr (kScore) {
      const double err = z - forecast_from(diff, pending, last_z);
      score.ss += err * err;
      ++score.scored;
    }

    last_z = z;
    const double w = diff.push(z);
    if (!kSteady && !diff.ready()) return;

    // Residual of the forecast issued for this W. For the very first
    // differenced point no forecast was outstanding; the unconditional
    // forecast (the intercept — empty AR/MA history) plays that role, as in
    // conditional maximum likelihood.
    const double a = w - (kSteady || count > 0 ? pending : intercept);
    if (p > 0) {
      slot_w = (slot_w == 0 ? p : slot_w) - 1;
      recent_w[slot_w] = w;
      recent_w[slot_w + p] = w;
    }
    if (q > 0) {
      slot_a = (slot_a == 0 ? q : slot_a) - 1;
      recent_a[slot_a] = a;
      recent_a[slot_a + q] = a;
    }
    ++count;

    // ŵ for the next W. Lag i is the i-th most recent W (or â); lags not
    // seen yet (warmup) contribute 0, the unconditional mean of a
    // differenced series, by being skipped. Lag 1 is the w or a just
    // computed, read from its register rather than back from the ring.
    double w_hat = intercept;
    if (p > 0) {
      w_hat += ar[0] * w;
      const std::size_t lags = kSteady ? p : std::min(p, count);
      for (std::size_t l = 1; l < lags; ++l) w_hat += ar[l] * recent_w[slot_w + l];
    }
    if (q > 0) {
      w_hat += ma[0] * a;
      const std::size_t lags = kSteady ? q : std::min(q, count);
      for (std::size_t l = 1; l < lags; ++l) w_hat += ma[l] * recent_a[slot_a + l];
    }
    pending = w_hat;
  };

  const std::size_t n = zs.size();
  const std::size_t full = std::max<std::size_t>({p, q, 1});
  std::size_t i = 0;
  for (; i < n && (!diff.ready() || count < full); ++i) {
    if (i >= warmup) {
      step.operator()<true, false>(zs[i]);
    } else {
      step.operator()<false, false>(zs[i]);
    }
  }
  for (; i < std::min(warmup, n); ++i) step.operator()<false, true>(zs[i]);
  for (; i < n; ++i) step.operator()<true, true>(zs[i]);

  diff_ = std::move(diff);
  slot_w_ = slot_w;
  slot_a_ = slot_a;
  w_count_ = count;
  pending_w_forecast_ = pending;
  last_z_ = last_z;
  return score;
}

double ArimaModel::forecast() const {
  return forecast_from(diff_, pending_w_forecast_, last_z_);
}

}  // namespace fdqos::forecast
