// Differencing operators for the "I" in ARIMA.
//
// ∇Z_t = Z_t − Z_{t−1}; ∇^d applies d times. Forecasts of the differenced
// series are mapped back to the original scale by integrating against the
// most recent values at each differencing level (see DifferenceState).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/assert.hpp"

namespace fdqos::forecast {

// Returns ∇^d(series); the result has series.size() - d elements.
std::vector<double> difference(std::span<const double> series, std::size_t d);

// Incremental differencing / integration state.
//
// Maintains the latest value at each differencing level 0..d. Pushing a new
// raw observation yields the new d-th difference; integrating a forecast of
// the d-th difference yields a forecast on the original scale.
class DifferenceState {
 public:
  explicit DifferenceState(std::size_t d);

  std::size_t order() const { return last_.size() - 1; }
  // Number of raw observations pushed so far.
  std::size_t count() const { return n_; }
  // True once enough observations have been pushed to form a d-th
  // difference (count() > d).
  bool ready() const { return n_ > order(); }

  // Push a raw observation; returns the new d-th difference when ready()
  // becomes/is true, otherwise 0 (callers must check ready()). Inline, as
  // are integrate_forecast() and ready(): ArimaModel's replay loop runs
  // them once per observation.
  double push(double z) {
    // Walk down the levels: new ∇^k value = new ∇^(k-1) value − previous
    // ∇^(k-1) value; update `last_` as we go.
    double value = z;
    for (std::size_t k = 0; k < last_.size(); ++k) {
      const double prev = last_[k];
      last_[k] = value;
      if (k + 1 == last_.size()) break;
      if (n_ <= k) {
        // Not enough history to form level k+1 yet.
        break;
      }
      value = value - prev;
    }
    ++n_;
    return ready() ? last_[order()] : 0.0;
  }

  // Map a one-step forecast of the d-th difference back to the original
  // scale: ẑ = ŵ + last_[d−1] + ... + last_[0] chain.
  double integrate_forecast(double w_hat) const {
    FDQOS_REQUIRE(ready() || order() == 0);
    // Integrate one level at a time: forecast at level k = forecast at
    // level k+1 + last_[k].
    double value = w_hat;
    for (std::size_t k = order(); k > 0; --k) {
      value += last_[k - 1];
    }
    return value;
  }

  void reset();

 private:
  std::vector<double> last_;  // last_[k] = latest value of ∇^k Z
  std::size_t n_ = 0;
};

}  // namespace fdqos::forecast
