// ARIMA order selection by out-of-sample one-step accuracy.
//
// The paper searched (p,d,q) over [0,0,0]..[10,10,10] with the RPS toolkit
// and kept the order minimizing msqerr; ARIMA(2,1,1) won on their trace.
// This module reproduces that search: fit each candidate on a training
// prefix, replay it over the holdout suffix, rank by msqerr.
#pragma once

#include <span>
#include <vector>

#include "forecast/arima/arima_model.hpp"

namespace fdqos::forecast {

struct OrderCandidate {
  ArimaOrder order;
  double holdout_msqerr = 0.0;
  bool fitted = false;  // false when the fit failed (too short / singular)
  // Why the fit failed (static string, e.g. "singular least-squares
  // system"); nullptr when fitted.
  const char* fail_reason = nullptr;
};

struct OrderSelectionResult {
  ArimaOrder best;
  double best_msqerr = 0.0;
  std::vector<OrderCandidate> candidates;  // every order tried, in scan order
};

struct OrderSelectionConfig {
  ArimaOrder max_order{3, 2, 3};  // inclusive upper corner of the grid
  double train_fraction = 2.0 / 3.0;
  // Worker threads for the candidate grid: each (p,d,q) fits and scores
  // independently into its scan-order slot, and the argmin scan after the
  // join breaks msqerr ties toward the lowest (p,d,q) exactly like the
  // serial loop — `best` is jobs-independent. 0 = exec::default_jobs(),
  // 1 = serial.
  std::size_t jobs = 0;
};

// Shortest series select_arima_order accepts.
inline constexpr std::size_t kMinOrderSelectionSamples = 32;

OrderSelectionResult select_arima_order(std::span<const double> series,
                                        const OrderSelectionConfig& config = {});

}  // namespace fdqos::forecast
