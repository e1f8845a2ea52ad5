// Shared plumbing for the table/figure reproduction binaries.
//
// Each binary reproduces one table or figure of the paper and prints it in
// the paper's layout. Scale knobs come from the environment so CI can run
// reduced sweeps:
//   FDQOS_RUNS    — QoS experiment runs        (paper: 13)
//   FDQOS_CYCLES  — heartbeat cycles per run   (paper: 10000)
//   FDQOS_NONEWAY — accuracy-experiment length (paper: 100000)
//   FDQOS_SEED    — experiment seed            (default 42)
//   FDQOS_JOBS    — sweep parallelism          (default: hardware)
// RUNS, CYCLES and NONEWAY must be >= 1; a malformed value exits 2.
#pragma once

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <type_traits>
#include <vector>

#include "exec/thread_pool.hpp"
#include "exp/qos_experiment.hpp"
#include "exp/report.hpp"

namespace fdqos::bench {

// Reads a scale knob from the environment; unset or empty gives
// `fallback`. Anything but a plain run of decimal digits (a sign, an
// exponent, trailing text, overflow) or a value below `min` exits 2 with a
// message naming the variable, as the CLI does for its count flags.
inline std::uint64_t env_u64(const char* name, std::uint64_t fallback,
                             std::uint64_t min) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  const char* end = value + std::strlen(value);
  std::uint64_t parsed = 0;
  const auto [ptr, ec] = std::from_chars(value, end, parsed);
  if (ec != std::errc() || ptr != end || parsed < min) {
    std::fprintf(stderr,
                 "fdqos-bench: %s must be an integer >= %llu (got '%s')\n",
                 name, static_cast<unsigned long long>(min), value);
    std::exit(2);
  }
  return parsed;
}

inline exp::QosExperimentConfig qos_config_from_env() {
  exp::QosExperimentConfig config;
  config.runs = static_cast<std::size_t>(env_u64("FDQOS_RUNS", 13, 1));
  config.num_cycles =
      static_cast<std::int64_t>(env_u64("FDQOS_CYCLES", 10000, 1));
  config.seed = env_u64("FDQOS_SEED", 42, 0);
  config.jobs = static_cast<std::size_t>(env_u64("FDQOS_JOBS", 0, 0));
  return config;
}

// Sweep parallelism from FDQOS_JOBS (0 = hardware concurrency).
inline std::size_t sweep_jobs() {
  return static_cast<std::size_t>(env_u64("FDQOS_JOBS", 0, 0));
}

// Runs fn(i) for every grid point of an ablation sweep on an
// exec::ThreadPool and returns the results in grid order, so tables print
// identically at every FDQOS_JOBS value. Grid points that launch their own
// experiment must run it with jobs = 1 — the sweep owns the parallelism
// (exec rejects re-entrant use of one pool, and nested pools would only
// oversubscribe the machine).
template <typename Fn>
auto run_sweep(std::size_t n, Fn&& fn)
    -> std::vector<std::invoke_result_t<Fn&, std::size_t>> {
  using R = std::invoke_result_t<Fn&, std::size_t>;
  const std::size_t env = sweep_jobs();
  exec::ThreadPool pool(
      std::min(env == 0 ? exec::default_jobs() : env, std::max<std::size_t>(n, 1)));
  return pool.parallel_map<R>(n, std::function<R(std::size_t)>(std::ref(fn)));
}

// The QoS experiment feeds five figures; run it once per process and share.
inline const exp::QosReport& shared_qos_report() {
  static const exp::QosReport kReport = [] {
    const auto config = qos_config_from_env();
    std::fprintf(stderr, "[fdqos-bench] running QoS experiment: %s\n",
                 exp::qos_config_summary(config).c_str());
    return exp::run_qos_experiment(config);
  }();
  return kReport;
}

inline void print_figure(exp::QosMetricKind kind) {
  const auto& report = shared_qos_report();
  auto table = exp::qos_metric_table(report, kind);
  std::printf("%s", table.to_ascii().c_str());
  std::printf("(%s values; %s. Experiment: %s; %llu crashes observed)\n",
              exp::metric_name(kind),
              exp::metric_smaller_is_better(kind) ? "smaller is better"
                                                  : "larger is better",
              exp::qos_config_summary(report.config).c_str(),
              static_cast<unsigned long long>(report.total_crashes));

  // Optional machine-readable copy: FDQOS_CSV_DIR=<dir> writes figN.csv.
  const char* csv_dir = std::getenv("FDQOS_CSV_DIR");
  if (csv_dir != nullptr && *csv_dir != '\0') {
    std::string path = std::string(csv_dir) + "/";
    switch (kind) {
      case exp::QosMetricKind::kTd: path += "fig4_td"; break;
      case exp::QosMetricKind::kTdU: path += "fig5_tdu"; break;
      case exp::QosMetricKind::kTm: path += "fig6_tm"; break;
      case exp::QosMetricKind::kTmr: path += "fig7_tmr"; break;
      case exp::QosMetricKind::kPa: path += "fig8_pa"; break;
    }
    path += ".csv";
    const std::string csv = table.to_csv();
    if (std::FILE* f = std::fopen(path.c_str(), "w"); f != nullptr) {
      std::fwrite(csv.data(), 1, csv.size(), f);
      std::fclose(f);
      std::fprintf(stderr, "[fdqos-bench] wrote %s\n", path.c_str());
    }
  }
}

}  // namespace fdqos::bench
