// Ablation — message-loss sensitivity (fair-lossy link stress). A lost
// heartbeat looks exactly like a late one, so accuracy degrades with loss
// while detection time is barely affected.
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "stats/table_writer.hpp"

int main() {
  using namespace fdqos;
  const std::uint64_t seed = bench::env_u64("FDQOS_SEED", 42, 0);

  stats::TableWriter table(
      "Ablation — loss sweep (detector: Arima+CI_med, bursty GE loss)");
  table.set_columns({"target loss", "measured mistakes", "T_M mean (ms)",
                     "P_A", "T_D mean (ms)"});

  const std::vector<double> losses{0.0, 0.005, 0.02, 0.05, 0.10};
  const auto rows = bench::run_sweep(losses.size(), [&](std::size_t i) {
    const double loss = losses[i];
    exp::QosExperimentConfig config;
    config.runs = 2;
    config.num_cycles =
        static_cast<std::int64_t>(bench::env_u64("FDQOS_CYCLES", 10000, 1)) /
        2;
    config.seed = seed;
    config.jobs = 1;  // the sweep owns the parallelism
    // Hit the target stationary loss with 20% independent drops and 80%
    // bursty drops: fix loss_bad = 0.5 and size the bad-state occupancy
    // pi_bad = 0.8·target/0.5, then p_gb = pi_bad·p_bg/(1 − pi_bad).
    config.link.loss.loss_good = loss * 0.2;
    config.link.loss.loss_bad = loss > 0.0 ? 0.5 : 0.0;
    config.link.loss.p_bad_to_good = 0.05;
    const double pi_bad = 0.8 * loss / 0.5;
    config.link.loss.p_good_to_bad =
        loss > 0.0 ? pi_bad * 0.05 / (1.0 - pi_bad) : 0.0;
    const auto report = exp::run_qos_experiment(config);
    const auto* result = exp::find_result(report, "Arima+CI_med");
    if (result == nullptr) return std::vector<std::string>{};
    return std::vector<std::string>{
        stats::format_double(loss * 100.0, 1) + "%",
        std::to_string(result->metrics.mistakes),
        stats::format_double(result->metrics.mistake_duration_ms.mean, 1),
        stats::format_double(result->metrics.query_accuracy, 6),
        stats::format_double(result->metrics.detection_time_ms.mean, 1)};
  });
  for (const auto& row : rows) {
    if (!row.empty()) table.add_row(row);
  }
  std::printf("%s", table.to_ascii().c_str());
  std::printf("(loss manifests as false suspicion: mistakes grow with loss, "
              "detection time barely moves)\n");
  return 0;
}
