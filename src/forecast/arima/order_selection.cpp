#include "forecast/arima/order_selection.hpp"

#include <limits>

#include "common/assert.hpp"
#include "exec/thread_pool.hpp"
#include "forecast/arima/hannan_rissanen.hpp"

namespace fdqos::forecast {
OrderSelectionResult select_arima_order(std::span<const double> series,
                                        const OrderSelectionConfig& config) {
  FDQOS_REQUIRE(series.size() >= kMinOrderSelectionSamples);
  FDQOS_REQUIRE(config.train_fraction > 0.0 && config.train_fraction < 1.0);

  const auto split = static_cast<std::size_t>(
      static_cast<double>(series.size()) * config.train_fraction);
  const std::span<const double> train = series.subspan(0, split);

  OrderSelectionResult result;
  result.best_msqerr = std::numeric_limits<double>::infinity();

  // The grid is flat-indexed in (p, d, q) scan order so every candidate —
  // including failed fits — owns one pre-reserved slot and workers never
  // contend: idx = (p·(d_max+1) + d)·(q_max+1) + q.
  const std::size_t d_span = config.max_order.d + 1;
  const std::size_t q_span = config.max_order.q + 1;
  const std::size_t grid = (config.max_order.p + 1) * d_span * q_span;
  result.candidates.resize(grid);

  exec::parallel_for(
      grid,
      [&](std::size_t idx) {
        OrderCandidate& cand = result.candidates[idx];
        cand.order = ArimaOrder{idx / (d_span * q_span),
                                (idx / q_span) % d_span, idx % q_span};
        const ArmaFitResult fit = fit_arima(train, cand.order);
        if (fit.ok) {
          cand.fitted = true;
          // One-step msqerr on the holdout: primed on train, each
          // holdout point scored before it is observed.
          ArimaModel model(cand.order, fit.coeffs);
          cand.holdout_msqerr = model.prime_and_score(series, split);
        } else {
          cand.fail_reason = fit.error;
        }
      },
      config.jobs);

  // Deterministic argmin after the join: the strict `<` over scan order
  // makes the lowest (p, d, q) win msqerr ties, matching the serial loop
  // at every jobs value.
  for (const OrderCandidate& cand : result.candidates) {
    if (cand.fitted && cand.holdout_msqerr < result.best_msqerr) {
      result.best_msqerr = cand.holdout_msqerr;
      result.best = cand.order;
    }
  }
  return result;
}

}  // namespace fdqos::forecast
