#include "forecast/arima/arima_predictor.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/log.hpp"
#include "forecast/arima/levinson.hpp"
#include "obs/instruments.hpp"
#include "obs/trace.hpp"
#include "stats/autocorrelation.hpp"

namespace fdqos::forecast {
namespace {

// Points at the front of the window that a candidate's replay does not
// score (the same default as replay_msqerr).
constexpr std::size_t kRefitScoreWarmup = 10;

}  // namespace

double replay_msqerr(ArimaModel model, std::span<const double> series,
                     std::size_t warmup) {
  return model.prime_and_score(series, warmup);
}

bool coefficients_admissible(const ArimaCoefficients& coeffs) {
  // The MA polynomial in Box–Jenkins form is 1 − Σ θ_j·z^j with
  // θ_j = −ma_j (arima_model.hpp), so test the negated coefficients.
  std::vector<double> theta(coeffs.ma.size());
  std::transform(coeffs.ma.begin(), coeffs.ma.end(), theta.begin(),
                 [](double ma) { return -ma; });
  return is_stationary(coeffs.ar) && is_stationary(theta);
}

ArimaPredictor::ArimaPredictor(ArimaOrder order, ArimaPredictorConfig config)
    : name_(order.to_string()), order_(order), config_(config) {
  FDQOS_REQUIRE(config_.refit_every > 0);
  FDQOS_REQUIRE(config_.min_fit > order.d + 2);
  history_.reserve(config_.max_history * 2);
}

std::span<const double> ArimaPredictor::fit_window() const {
  const std::size_t take = std::min(history_.size(), config_.max_history);
  return {history_.data() + (history_.size() - take), take};
}

void ArimaPredictor::observe(double obs) {
  ++n_;
  mean_ += (obs - mean_) / static_cast<double>(n_);
  history_.push_back(obs);
  // Keep the buffer bounded: drop the stale front half once it doubles.
  if (history_.size() > config_.max_history * 2) {
    history_.erase(history_.begin(),
                   history_.begin() + static_cast<std::ptrdiff_t>(
                                          history_.size() - config_.max_history));
  }
  if (model_) model_->observe(obs);
  maybe_refit();
}

void ArimaPredictor::maybe_refit() {
  if (n_ < config_.min_fit) return;
  if (n_ % config_.refit_every != 0 && !(n_ == config_.min_fit && !model_)) {
    return;
  }
  const std::span<const double> window = fit_window();

  // Refits are the runtime's known CPU hog (N_Arima-periodic, O(window));
  // time every one so perf work has numbers to start from.
  obs::ObsSpan span("arima_refit",
                    obs::enabled()
                        ? &obs::instruments().arima_refit_duration_us
                        : nullptr);
  const ArmaFitResult fit = fit_arima(window, order_);
  ++refits_;
  if (!fit.ok || !coefficients_admissible(fit.coeffs)) {
    ++rejections_;
    if (obs::enabled()) obs::instruments().arima_refits_rejected.inc();
    return;
  }
  // Scoring replays the window through the candidate itself, which leaves
  // it primed on the window, ready to forecast if accepted.
  ArimaModel candidate(order_, fit.coeffs);
  const double candidate_msq =
      candidate.prime_and_score(window, kRefitScoreWarmup);

  // Benchmark: the MEAN predictor's error on this window is its variance
  // around the running mean — approximate with the window variance.
  const double naive_msq = std::max(stats::variance(window), 1e-12);
  if (candidate_msq > config_.acceptance_factor * naive_msq) {
    ++rejections_;
    if (obs::enabled()) obs::instruments().arima_refits_rejected.inc();
    FDQOS_LOG_DEBUG("%s refit rejected: msqerr %.4g vs naive %.4g",
                    name_.c_str(), candidate_msq, naive_msq);
    return;
  }

  model_ = std::move(candidate);
  if (obs::enabled()) obs::instruments().arima_refits_accepted.inc();
  FDQOS_LOG_TRACE("%s refit accepted at n=%zu: msqerr %.4g (naive %.4g)",
                  name_.c_str(), n_, candidate_msq, naive_msq);
}

double ArimaPredictor::predict() const {
  if (model_) return model_->forecast();
  return n_ > 0 ? mean_ : 0.0;
}

std::unique_ptr<Predictor> ArimaPredictor::make_fresh() const {
  return std::make_unique<ArimaPredictor>(order_, config_);
}

}  // namespace fdqos::forecast
