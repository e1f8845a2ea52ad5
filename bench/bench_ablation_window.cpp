// Ablation — WINMEAN window size: accuracy of the windowed-mean predictor
// as a function of N, motivating the paper's N = 10 (Table 2).
#include <cstdio>

#include "bench_common.hpp"
#include "exp/accuracy_experiment.hpp"
#include "forecast/basic_predictors.hpp"
#include "forecast/msqerr.hpp"
#include "stats/table_writer.hpp"

int main() {
  using namespace fdqos;
  exp::AccuracyExperimentConfig config;
  config.n_oneway =
      static_cast<std::size_t>(bench::env_u64("FDQOS_NONEWAY", 100000, 1));
  config.seed = bench::env_u64("FDQOS_SEED", 42, 0);
  const auto series = exp::generate_delay_series(config);

  stats::TableWriter table("Ablation — WINMEAN window sweep");
  table.set_columns({"N", "msqerr (ms^2)", "mean |err| (ms)"});
  const std::vector<std::size_t> windows{1, 2, 5, 10, 20, 50, 100, 1000};
  const auto rows = bench::run_sweep(windows.size(), [&](std::size_t i) {
    forecast::WinMeanPredictor predictor(windows[i]);
    const auto acc = forecast::evaluate_accuracy(predictor, series);
    return std::vector<std::string>{std::to_string(windows[i]),
                                    stats::format_double(acc.msqerr, 3),
                                    stats::format_double(acc.mean_abs_err, 3)};
  });
  for (const auto& row : rows) table.add_row(row);
  std::printf("%s", table.to_ascii().c_str());
  std::printf("(N=1 is LAST; N=inf is MEAN. Small-but-not-tiny windows track "
              "regime shifts while averaging out spikes.)\n");
  return 0;
}
