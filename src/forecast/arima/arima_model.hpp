// ARIMA(p,d,q) model with incremental one-step-ahead forecasting.
//
// Convention (regression form — signs folded into the coefficients):
//   W_t = c + Σ_{i=1..p} ar_i·W_{t−i} + Σ_{j=1..q} ma_j·â_{t−j} + a_t
// where W = ∇^d Z is the d-times differenced series and â are the one-step
// prediction residuals (innovation estimates). In Box–Jenkins notation
// ar_i = φ_i, ma_j = −θ_j, c = θ_0.
//
// The model carries its own state (recent W values, recent residuals,
// differencing chain) so that after priming on a history window it forecasts
// each next observation in O(p+q).
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "forecast/arima/difference.hpp"

namespace fdqos::forecast {

struct ArimaOrder {
  std::size_t p = 0;
  std::size_t d = 0;
  std::size_t q = 0;

  bool operator==(const ArimaOrder&) const = default;
  std::string to_string() const;  // "ARIMA(p,d,q)"
};

struct ArimaCoefficients {
  std::vector<double> ar;   // ar_1..ar_p
  std::vector<double> ma;   // ma_1..ma_q
  double intercept = 0.0;   // c
};

class ArimaModel {
 public:
  ArimaModel(ArimaOrder order, ArimaCoefficients coeffs);

  const ArimaOrder& order() const { return order_; }
  const ArimaCoefficients& coefficients() const { return coeffs_; }

  // Clear state and replay `history` (oldest first) so that subsequent
  // forecasts continue from its end.
  void prime(std::span<const double> history);

  // prime(series), scoring on the way: each point from index `warmup` on
  // is compared with the one-step forecast made just before observing it.
  // Returns the mean squared error of those forecasts, or +infinity when
  // none was scored or the mean is not finite.
  double prime_and_score(std::span<const double> series, std::size_t warmup);

  // Feed the next raw observation; updates residual state and the cached
  // one-step forecast.
  void observe(double z);

  // One-step-ahead forecast of the next raw observation. Before enough
  // observations exist to difference d times, returns the last observation
  // (a LAST fallback — only relevant during the first d+1 points).
  double forecast() const;

  std::size_t observation_count() const { return diff_.count(); }

 private:
  struct Score {
    double ss = 0.0;
    std::size_t scored = 0;
  };

  void reset();
  // The one observe/forecast loop behind observe(), prime() and
  // prime_and_score(): feeds `zs` in order, scoring the forecast of each
  // point from index `warmup` on before observing it.
  Score advance(std::span<const double> zs, std::size_t warmup);

  ArimaOrder order_;
  ArimaCoefficients coeffs_;
  DifferenceState diff_;
  // Lag rings of the differenced series W and the residuals â, each p
  // (resp. q) values stored twice: the newest sits at recent_w_[slot_w_]
  // and lag i at recent_w_[slot_w_ + i − 1], with no wrap-around to test.
  std::vector<double> recent_w_;
  std::vector<double> recent_a_;
  std::size_t slot_w_ = 0;
  std::size_t slot_a_ = 0;
  std::size_t w_count_ = 0;          // differenced points seen (W and â alike)
  double pending_w_forecast_ = 0.0;  // ŵ for the not-yet-seen next W
  double last_z_ = 0.0;
};

}  // namespace fdqos::forecast
