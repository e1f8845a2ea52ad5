// Table 2 — predictor parameters, including the ARIMA order selection that
// produced ARIMA(2,1,1) in the paper (grid search over (p,d,q) minimizing
// out-of-sample msqerr on the link's delay series).
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "exp/accuracy_experiment.hpp"
#include "forecast/arima/order_selection.hpp"
#include "stats/table_writer.hpp"

int main() {
  using namespace fdqos;
  const fd::PaperParams params;

  stats::TableWriter table("Table 2 — Predictor Parameters");
  table.set_columns({"Predictor", "Parameters"});
  table.add_row({"ARIMA", params.arima_order.to_string() +
                              ", refit every " + std::to_string(params.n_arima)});
  table.add_row({"LPF", "beta = " + stats::format_double(params.lpf_beta, 3) +
                            " (1/8)"});
  table.add_row({"WINMEAN", "N = " + std::to_string(params.winmean_window)});
  std::printf("%s\n", table.to_ascii().c_str());

  // Re-run the order selection exactly as the paper did: the full grid
  // [0,0,0]..[10,10,10] (RPS toolkit there; Hannan–Rissanen + holdout
  // msqerr here), on a delay series from the calibrated link.
  exp::AccuracyExperimentConfig acc;
  acc.n_oneway =
      static_cast<std::size_t>(bench::env_u64("FDQOS_NONEWAY", 100000, 1)) / 5;
  acc.seed = bench::env_u64("FDQOS_SEED", 42, 0);
  const auto series = exp::generate_delay_series(acc);

  forecast::OrderSelectionConfig selection;
  selection.max_order = forecast::ArimaOrder{10, 10, 10};
  const auto result = forecast::select_arima_order(series, selection);

  // 1331 candidates: print the best ten plus the paper's pick.
  std::vector<forecast::OrderCandidate> fitted;
  for (const auto& cand : result.candidates) {
    if (cand.fitted) fitted.push_back(cand);
  }
  std::sort(fitted.begin(), fitted.end(),
            [](const auto& a, const auto& b) {
              return a.holdout_msqerr < b.holdout_msqerr;
            });
  stats::TableWriter grid(
      "ARIMA order selection over [0,0,0]..[10,10,10] — best 10 of " +
      std::to_string(fitted.size()) + " fitted candidates");
  grid.set_columns({"order", "holdout msqerr (ms^2)", "note"});
  for (std::size_t i = 0; i < fitted.size(); ++i) {
    const bool paper_pick = fitted[i].order == forecast::ArimaOrder{2, 1, 1};
    if (i >= 10 && !paper_pick) continue;
    grid.add_row({fitted[i].order.to_string(),
                  stats::format_double(fitted[i].holdout_msqerr, 3),
                  fitted[i].order == result.best
                      ? "<- selected"
                      : (paper_pick ? "<- paper's choice" : "")});
  }
  std::printf("%s", grid.to_ascii().c_str());
  std::printf(
      "Selected %s on the synthetic link (the paper's trace selected "
      "ARIMA(2,1,1); the suite keeps (2,1,1) for fidelity — it remains the "
      "most accurate of the five paper predictors, see Table 3)\n",
      result.best.to_string().c_str());
  return 0;
}
