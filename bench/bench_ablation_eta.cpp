// Ablation — heartbeat period η sensitivity (not a paper figure; DESIGN.md
// design-choice bench). η trades bandwidth for detection speed: T_D grows
// roughly like η/2 + δ, while accuracy is nearly η-independent.
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "stats/table_writer.hpp"

int main() {
  using namespace fdqos;
  const std::uint64_t seed = bench::env_u64("FDQOS_SEED", 42, 0);
  const auto cycles = static_cast<std::int64_t>(
      bench::env_u64("FDQOS_CYCLES", 10000, 1));

  stats::TableWriter table("Ablation — eta sweep (detector: Last+JAC_med)");
  table.set_columns({"eta", "T_D mean (ms)", "T_D max (ms)", "P_A",
                     "heartbeats sent"});

  const std::vector<std::int64_t> etas_ms{250, 500, 1000, 2000, 4000};
  const auto rows = bench::run_sweep(etas_ms.size(), [&](std::size_t i) {
    const std::int64_t eta_ms = etas_ms[i];
    exp::QosExperimentConfig config;
    config.runs = 2;
    config.eta = Duration::millis(eta_ms);
    // Keep virtual run length constant (~cycles seconds) across etas.
    config.num_cycles = cycles * 1000 / eta_ms;
    config.seed = seed;
    config.jobs = 1;  // the sweep owns the parallelism
    const auto report = exp::run_qos_experiment(config);
    const auto* result = exp::find_result(report, "Last+JAC_med");
    if (result == nullptr) return std::vector<std::string>{};
    char eta_label[32];
    std::snprintf(eta_label, sizeof eta_label, "%lldms",
                  static_cast<long long>(eta_ms));
    return std::vector<std::string>{
        eta_label,
        stats::format_double(result->metrics.detection_time_ms.mean, 1),
        stats::format_double(result->metrics.detection_time_ms.max, 1),
        stats::format_double(result->metrics.query_accuracy, 6),
        std::to_string(report.heartbeats_sent)};
  });
  for (const auto& row : rows) {
    if (!row.empty()) table.add_row(row);
  }
  std::printf("%s", table.to_ascii().c_str());
  std::printf("(T_D ~ eta/2 + delta: halving eta buys faster detection at "
              "double the message cost)\n");
  return 0;
}
