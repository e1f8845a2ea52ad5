// Ablation — LPF smoothing-gain sweep: accuracy of LPF(β) as a function of
// β, motivating the paper's β = 1/8 (Table 2). Small β averages jitter but
// lags the drifting level; large β tracks the level but passes jitter
// through. Includes Holt for the trend-aware comparison.
#include <cstdio>

#include "bench_common.hpp"
#include "exp/accuracy_experiment.hpp"
#include "forecast/basic_predictors.hpp"
#include "forecast/extended_predictors.hpp"
#include "forecast/msqerr.hpp"
#include "stats/table_writer.hpp"

int main() {
  using namespace fdqos;
  exp::AccuracyExperimentConfig config;
  config.n_oneway =
      static_cast<std::size_t>(bench::env_u64("FDQOS_NONEWAY", 100000, 1));
  config.seed = bench::env_u64("FDQOS_SEED", 42, 0);
  const auto series = exp::generate_delay_series(config);

  stats::TableWriter table("Ablation — LPF beta sweep");
  table.set_columns({"predictor", "msqerr (ms^2)", "mean |err| (ms)"});
  // Grid point i < betas.size() is LPF(beta_i); the last point is the Holt
  // trend-aware comparison. All score the shared immutable series.
  const std::vector<double> betas{0.01, 0.03125, 0.0625, 0.125, 0.25, 0.5,
                                  1.0};
  const auto rows = bench::run_sweep(betas.size() + 1, [&](std::size_t i) {
    if (i < betas.size()) {
      forecast::LpfPredictor predictor(betas[i]);
      const auto acc = forecast::evaluate_accuracy(predictor, series);
      char name[32];
      std::snprintf(name, sizeof name, "LPF(%g)", betas[i]);
      return std::vector<std::string>{
          name, stats::format_double(acc.msqerr, 3),
          stats::format_double(acc.mean_abs_err, 3)};
    }
    forecast::HoltPredictor holt(0.125, 0.125);
    const auto acc = forecast::evaluate_accuracy(holt, series);
    return std::vector<std::string>{"HOLT(0.125,0.125)",
                                    stats::format_double(acc.msqerr, 3),
                                    stats::format_double(acc.mean_abs_err, 3)};
  });
  for (const auto& row : rows) table.add_row(row);
  std::printf("%s", table.to_ascii().c_str());
  std::printf("(beta = 1 is LAST; the optimum balances jitter suppression "
              "against level-tracking lag — the paper's 1/8 sits near it)\n");
  return 0;
}
