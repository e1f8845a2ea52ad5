// perfbench — the repository benchmark (see perfbench/README.md).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --work-dir DIR [--commit ID]
//
// Workloads: paper, serve-fleet, serve-aggregate. Prints a run-record line
// and then, as the last line, the result object, whose "correct" says
// whether every output check passed.
#include <cstdio>
#include <exception>
#include <string>

#include "paper.hpp"
#include "record.hpp"
#include "serve.hpp"

namespace {

// Every per-layer metric, printed by every traced run (0 where the
// workload does not exercise the layer). BENCHMARK.json lists the same.
const char* const kPerLayer[][2] = {
    {"exp.wall_s", "s"},
    {"exp.wall_1job_s", "s"},
    {"exec.pool_busy_frac", "ratio"},
    {"fd.bank.predictor_updates", "count"},
    {"fd.bank.lane_updates", "count"},
    {"fd.bank.timer_events", "count"},
    {"fd.bank.coalesced_timers", "count"},
    {"forecast.arima.refits", "count"},
    {"forecast.arima.refit_us_p50", "us"},
    {"forecast.last.observe_ns", "ns"},
    {"forecast.mean.observe_ns", "ns"},
    {"forecast.winmean.observe_ns", "ns"},
    {"forecast.lpf.observe_ns", "ns"},
    {"forecast.arima.observe_ns", "ns"},
    {"wan.delay_sample_ns", "ns"},
    {"fd.bank.observe_ns", "ns"},
    {"runtime.mux_dispatch_us_p50", "us"},
    {"serve.batches", "count"},
    {"serve.datagrams_per_batch", "count"},
    {"serve.busy_frac", "ratio"},
    {"serve.lost_frac", "ratio"},
    {"serve.blocked_endpoints", "count"},
    {"serve.td_censored", "count"},
    {"serve.ceiling_hbps", "1/s"},
    {"serve.unexplained_ns_per_hb", "ns"},
    {"net.recv_batch_ns", "ns"},
    {"net.decode_ns_per_hb", "ns"},
    {"net.kernel_drops", "count"},
    {"fd.ingest.offer_ns", "ns"},
    {"fd.fleet.ingest_ns_per_hb", "ns"},
    {"fd.fleet.timer_ns_per_hb", "ns"},
    {"fd.fleet.timer_events", "count"},
    {"fd.fleet.member_checks", "count"},
    {"fd.fleet.coalesced_events", "count"},
    {"fd.fleet.bytes_per_endpoint", "B"},
    {"wan.capture_append_ns", "ns"},
    {"fd.transitions_to_suspect", "count"},
    {"fd.transitions_to_trust", "count"},
    {"gen.late_us_p99", "us"},
    {"obs.trace_overhead_frac", "ratio"},
};

const char* const kEndToEnd[] = {"setup_s", "peak_rss_mb", "hb_cpu_ns",
                                 "td_p50_ms", "td_p90_ms"};

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "paper|serve-fleet|serve-aggregate --seed N --seconds S "
               "--trace 0|1 --work-dir DIR [--commit ID]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunRecord record;
  std::string work_dir;
  std::string seed_arg, seconds_arg, trace_arg;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") record.workload = value;
    else if (key == "--seed") seed_arg = value;
    else if (key == "--seconds") seconds_arg = value;
    else if (key == "--trace") trace_arg = value;
    else if (key == "--work-dir") work_dir = value;
    else if (key == "--commit") record.commit = value;
    else return usage(("unknown argument " + key).c_str());
  }
  if (argc % 2 != 1) return usage("arguments come in --key value pairs");
  if (seed_arg.empty() || seconds_arg.empty() || work_dir.empty() ||
      (trace_arg != "0" && trace_arg != "1")) {
    return usage("missing or malformed argument");
  }
  try {
    record.seed = std::stoull(seed_arg);
    record.seconds = std::stod(seconds_arg);
  } catch (const std::exception&) {
    return usage("--seed and --seconds take numbers");
  }
  if (!(record.seconds > 0.0)) return usage("--seconds must be positive");
  record.trace = trace_arg == "1";

  perfbench::Outcome outcome;
  const perfbench::ServeWorkload* serve =
      perfbench::find_serve_workload(record.workload);
  if (record.workload == "paper") {
    perfbench::run_paper(record.seed, record.seconds, record.trace, outcome);
  } else if (serve != nullptr) {
    perfbench::run_serve(*serve, record.seed, record.seconds, record.trace,
                         work_dir + "/" + serve->name, outcome);
  } else {
    return usage(("unknown workload " + record.workload).c_str());
  }

  if (record.trace) {
    for (const auto& [name, unit] : kPerLayer) {
      if (outcome.metrics.count(name) == 0) outcome.set(name, 0.0, unit);
    }
  } else {
    for (const char* name : kEndToEnd) {
      outcome.check(outcome.metrics.count(name) == 1,
                    std::string("metric not measured: ") + name);
    }
  }
  perfbench::print_outcome(record, outcome);
  return 0;
}
