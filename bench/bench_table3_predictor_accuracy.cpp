// Table 3 — predictor accuracy: msqerr of one-step-ahead forecasts over
// N_oneway heartbeat delays on the Italy–Japan link model (paper §5.1).
#include <cstdio>

#include "bench_common.hpp"
#include "exp/accuracy_experiment.hpp"

int main() {
  using namespace fdqos;
  exp::AccuracyExperimentConfig config;
  config.n_oneway =
      static_cast<std::size_t>(bench::env_u64("FDQOS_NONEWAY", 100000, 1));
  config.seed = bench::env_u64("FDQOS_SEED", 42, 0);

  std::fprintf(stderr, "[fdqos-bench] accuracy experiment: %zu heartbeats\n",
               config.n_oneway);
  const auto report = exp::run_accuracy_experiment(config);

  auto table = exp::accuracy_table(report);
  std::printf("%s", table.to_ascii().c_str());
  std::printf(
      "(%zu delays collected from %zu heartbeats; paper order on its trace: "
      "ARIMA < WINMEAN < MEAN < LAST < LPF)\n",
      report.delays_collected, report.heartbeats_sent);
  return 0;
}
