// fdqos — command-line driver for the experiment harness.
//
//   fdqos qos        [--runs N] [--cycles N] [--seed S] [--eta-ms MS]
//                    [--mttc-s S] [--ttr-s S] [--baselines] [--pareto]
//                    [--metric td|tdu|tm|tmr|pa|all] [--csv FILE]
//                    [--metrics-out FILE] [--metrics-jsonl-out FILE]
//                    [--trace-out FILE] [--progress SECONDS] [--jobs N]
//   fdqos chaos      --scenario NAME [--seed S] [--jobs N] [--runs N]
//                    [--cycles N] [--mttc-s S] [--ttr-s S]
//                    [--metric td|tdu|tm|tmr|pa|all] [--csv FILE] | --list
//   fdqos accuracy   [--n N] [--seed S] [--csv FILE]
//                    [--metrics-out FILE] [--progress SECONDS] [--jobs N]
//   fdqos link       [--n N] [--seed S]
//   fdqos order-select [--n N] [--seed S] [--pmax P] [--dmax D] [--qmax Q]
//                    [--jobs N]
//
// --jobs N runs independent experiment units (QoS runs, predictors, ARIMA
// candidates) on N threads; output is byte-identical at every N. Default
// is the machine's core count; --jobs 1 is the exact serial path.
//
// Everything prints the same paper-layout tables as the bench binaries,
// with the experiment knobs exposed as flags instead of env vars.
#include <csignal>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/args.hpp"
#include "exec/thread_pool.hpp"
#include "exp/accuracy_experiment.hpp"
#include "exp/chaos.hpp"
#include "exp/qos_experiment.hpp"
#include "exp/report.hpp"
#include "exp/workload.hpp"
#include "faultx/fault_models.hpp"
#include "faultx/scenarios.hpp"
#include "forecast/arima/order_selection.hpp"
#include "obs/http_exporter.hpp"
#include "obs/metrics.hpp"
#include "obs/progress.hpp"
#include "obs/runs.hpp"
#include "obs/trace.hpp"
#include "serve/daemon.hpp"
#include "wan/italy_japan.hpp"
#include "wan/tracestore.hpp"
#include "workload/leader_election.hpp"

using namespace fdqos;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: fdqos "
               "<qos|chaos|workload|accuracy|link|order-select|record|replay|"
               "serve> [flags]\n"
               "  qos          reproduce the Figures 4-8 experiment\n"
               "               (--trace FILE runs it on a recorded trace,\n"
               "               --policy truncate|extend at trace end)\n"
               "  chaos        run the QoS experiment under a fault scenario\n"
               "               and check the QoS invariants (--list to see\n"
               "               scenarios; --scenario NAME --seed N --jobs J)\n"
               "  workload     run a named application workload over the\n"
               "               detector grid (--name leader-election|qos,\n"
               "               --list to enumerate; same --scenario/--seed/\n"
               "               --jobs knobs as qos/chaos; see\n"
               "               docs/workloads.md)\n"
               "  accuracy     reproduce the Table 3 experiment\n"
               "  link         characterize the WAN model (Table 4)\n"
               "  order-select run the ARIMA order grid search (Table 2)\n"
               "  record       capture a delay trace (.fdt or CSV) from the\n"
               "               WAN model, optionally faulted (--scenario)\n"
               "  replay       run the 30-detector comparison on a recorded\n"
               "               trace (--trace FILE required, --policy ...)\n"
               "  serve        run the live UDP heartbeat ingest daemon\n"
               "               (--port P, --max-endpoints M, --eta-ms MS,\n"
               "               --suite lite|paper, --capture-dir DIR,\n"
               "               --capture-prefix P, --segment-samples N,\n"
               "               --no-capture, --duration-s S, --batch N;\n"
               "               SIGINT/SIGTERM shut down cleanly; see\n"
               "               docs/serve.md)\n"
               "qos/accuracy also take --metrics-out FILE (Prometheus text),\n"
               "--metrics-jsonl-out FILE, --trace-out FILE (chrome://tracing)\n"
               "and --progress SECONDS (periodic telemetry on stderr)\n"
               "qos/chaos/record/replay take --serve-metrics PORT (live HTTP\n"
               "/metrics, /healthz and /runs on 127.0.0.1; 0 = ephemeral,\n"
               "the bound port is printed to stderr) and qos/chaos/replay\n"
               "--progress-jsonl FILE (machine-readable progress records,\n"
               "one JSON object per --progress line)\n"
               "qos/accuracy/order-select take --jobs N (worker threads;\n"
               "default = cores, 1 = serial, output identical at every N)\n"
               "qos/chaos take --endpoints M (fleet mode: M independent\n"
               "monitored endpoints on one fd::FleetBank per shard) and\n"
               "--shards S (0 = auto; see docs/fleet.md)\n"
               "see docs/tracestore.md for the record/replay walkthrough\n"
               "run `fdqos <command> --help` is not needed: unknown flags "
               "are listed on error\n");
  return 2;
}

bool write_file(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(content.data(), 1, content.size(), f) ==
                  content.size();
  return std::fclose(f) == 0 && ok;
}

// A count flag that must be at least `min`. Every count ends up in a
// size_t (or sizes a per-run vector), so a negative value would wrap to a
// huge one: reject it here, naming the flag, before any work starts.
std::optional<std::int64_t> parse_count(const ArgParser& args,
                                        const char* flag,
                                        std::int64_t fallback,
                                        std::int64_t min) {
  const std::int64_t value = args.get_int(flag, fallback);
  if (value < min) {
    std::fprintf(stderr, "fdqos: %s must be >= %lld (got %lld)\n", flag,
                 static_cast<long long>(min), static_cast<long long>(value));
    return std::nullopt;
  }
  return value;
}

// --runs N, --cycles N and --jobs N (qos + chaos + replay + workload); the
// verb's defaults are whatever `config` already holds.
bool parse_counts(const ArgParser& args, exp::QosExperimentConfig& config) {
  const auto runs =
      parse_count(args, "--runs", static_cast<std::int64_t>(config.runs), 1);
  const auto cycles = parse_count(args, "--cycles", config.num_cycles, 1);
  const auto jobs = parse_count(args, "--jobs", 0, 0);
  if (!runs || !cycles || !jobs) return false;
  config.runs = static_cast<std::size_t>(*runs);
  config.num_cycles = *cycles;
  config.jobs = static_cast<std::size_t>(*jobs);
  return true;
}

// --eta-ms, --mttc-s and --ttr-s (qos + chaos + replay + workload), in
// whole milliseconds / seconds; the verb's defaults are whatever `config`
// already holds. The heartbeater needs eta > 0 and the crash injector
// mttc > 0 and ttr >= 0; both abort on a broken precondition, so reject
// such a value here, naming the flag.
bool parse_timing(const ArgParser& args, exp::QosExperimentConfig& config) {
  constexpr std::int64_t kNanosPerMilli = 1'000'000;
  constexpr std::int64_t kNanosPerSecond = 1'000'000'000;
  const auto eta = parse_count(args, "--eta-ms",
                               config.eta.count_nanos() / kNanosPerMilli, 1);
  const auto mttc = parse_count(
      args, "--mttc-s", config.mttc.count_nanos() / kNanosPerSecond, 1);
  const auto ttr = parse_count(args, "--ttr-s",
                               config.ttr.count_nanos() / kNanosPerSecond, 0);
  if (!eta || !mttc || !ttr) return false;
  config.eta = Duration::millis(*eta);
  config.mttc = Duration::seconds(*mttc);
  config.ttr = Duration::seconds(*ttr);
  return true;
}

// --endpoints M and --shards S (qos + chaos): fleet mode, M independent
// monitored endpoints sharded over S fd::FleetBank shards (docs/fleet.md).
// M = 1 (the default) is the exact single-endpoint experiment; --shards 0
// picks min(endpoints, hardware jobs).
bool parse_fleet(const ArgParser& args, exp::QosExperimentConfig& config) {
  const auto endpoints = parse_count(args, "--endpoints", 1, 1);
  const auto shards = parse_count(args, "--shards", 0, 0);
  if (!endpoints || !shards) return false;
  config.endpoints = static_cast<std::size_t>(*endpoints);
  config.fleet_shards = static_cast<std::size_t>(*shards);
  return true;
}

// --policy truncate|extend (qos + replay): what replay does at trace
// end. Only meaningful with --trace; see docs/tracestore.md.
bool parse_policy(const ArgParser& args, exp::QosExperimentConfig& config) {
  const std::string policy = args.get_string("--policy", "truncate");
  const auto parsed = wan::parse_replay_policy(policy);
  if (!parsed.has_value()) {
    std::fprintf(stderr,
                 "fdqos: unknown --policy '%s' (want truncate|extend)\n",
                 policy.c_str());
    return false;
  }
  config.replay_policy = *parsed;
  return true;
}

int check_unknown(const ArgParser& args) {
  const auto unknown = args.unknown_keys();
  if (unknown.empty()) return 0;
  for (const auto& key : unknown) {
    std::fprintf(stderr, "fdqos: unknown flag %s\n", key.c_str());
  }
  return 2;
}

// Shared observability flags: --metrics-out FILE, --trace-out FILE,
// --progress SECONDS, --progress-jsonl FILE, --serve-metrics PORT. Any of
// them switches the global instrumentation on; ObsSession tears the trace
// sink and HTTP exporter down and writes the metrics files on scope exit.
struct ObsSession {
  std::string metrics_out;
  std::string metrics_jsonl_out;
  std::unique_ptr<obs::TraceWriter> tracer;
  std::unique_ptr<obs::HttpExporter> exporter;
  std::unique_ptr<obs::JsonlSink> progress_jsonl;
  double progress_s = 0.0;
  bool ok = true;  // false when a requested sink could not be set up

  static ObsSession from_args(const ArgParser& args) {
    ObsSession session;
    session.metrics_out = args.get_string("--metrics-out", "");
    session.metrics_jsonl_out = args.get_string("--metrics-jsonl-out", "");
    const std::string trace_out = args.get_string("--trace-out", "");
    session.progress_s = args.get_double("--progress", 0.0);
    const auto serve_port = args.get_int("--serve-metrics", -1);
    const std::string progress_jsonl_out =
        args.get_string("--progress-jsonl", "");
    if (!session.metrics_out.empty() || !session.metrics_jsonl_out.empty() ||
        !trace_out.empty() || session.progress_s > 0.0 || serve_port >= 0 ||
        !progress_jsonl_out.empty()) {
      obs::set_enabled(true);
    }
    if (!trace_out.empty()) {
      session.tracer = std::make_unique<obs::TraceWriter>(trace_out);
      if (!session.tracer->ok()) {
        std::fprintf(stderr, "fdqos: cannot write %s\n", trace_out.c_str());
        session.tracer.reset();
      } else {
        obs::set_trace_writer(session.tracer.get());
      }
    }
    if (serve_port >= 0) {
      if (serve_port > 65535) {
        std::fprintf(stderr, "fdqos: --serve-metrics port %lld out of range\n",
                     static_cast<long long>(serve_port));
        session.ok = false;
      } else {
        obs::HttpExporter::Options opts;
        opts.port = static_cast<std::uint16_t>(serve_port);
        session.exporter = std::make_unique<obs::HttpExporter>(std::move(opts));
        if (session.exporter->start()) {
          // The bound port line is load-bearing for scripts using port 0.
          std::fprintf(stderr,
                       "[fdqos obs] serving /metrics /healthz /runs on "
                       "http://127.0.0.1:%u\n",
                       static_cast<unsigned>(session.exporter->port()));
        } else {
          session.ok = false;
        }
      }
    }
    if (!progress_jsonl_out.empty()) {
      session.progress_jsonl = std::make_unique<obs::JsonlSink>();
      if (!session.progress_jsonl->open(progress_jsonl_out)) {
        std::fprintf(stderr, "fdqos: cannot write %s\n",
                     progress_jsonl_out.c_str());
        session.progress_jsonl.reset();
        session.ok = false;
      }
    }
    return session;
  }

  // Returns false if a requested output file could not be written.
  bool finish() {
    if (exporter != nullptr) exporter->stop();
    obs::set_trace_writer(nullptr);
    if (tracer != nullptr) tracer->flush();
    if (progress_jsonl != nullptr) progress_jsonl->close();
    if (!metrics_out.empty() &&
        !obs::Registry::global().save_prometheus(metrics_out)) {
      std::fprintf(stderr, "fdqos: cannot write %s\n", metrics_out.c_str());
      ok = false;
    }
    if (!metrics_jsonl_out.empty() &&
        !obs::Registry::global().save_jsonl(metrics_jsonl_out)) {
      std::fprintf(stderr, "fdqos: cannot write %s\n",
                   metrics_jsonl_out.c_str());
      ok = false;
    }
    return ok;
  }
};

// `qos` and `replay` share one implementation: replay is qos with --trace
// mandatory (it exists so "run the comparison on this recording" is a
// first-class verb, not a flag spelling).
int cmd_qos_impl(const ArgParser& args, bool require_trace) {
  exp::QosExperimentConfig config;  // paper defaults: 13 x 10000 cycles
  config.seed = static_cast<std::uint64_t>(args.get_int("--seed", 42));
  config.include_constant_baseline = args.get_flag("--baselines");
  config.trace_path = args.get_string("--trace", "");
  if (!parse_counts(args, config)) return 2;
  if (!parse_timing(args, config)) return 2;
  if (require_trace && config.trace_path.empty()) {
    std::fprintf(stderr, "fdqos replay: --trace FILE required "
                         "(record one with `fdqos record`)\n");
    return 2;
  }
  if (!parse_fleet(args, config)) return 2;
  if (!parse_policy(args, config)) return 2;
  if (!config.trace_path.empty()) {
    const wan::TraceLoadResult probe = wan::load_trace(config.trace_path);
    if (!probe.ok()) {
      std::fprintf(stderr, "fdqos: %s\n", probe.error.c_str());
      return 1;
    }
  }
  const std::string metric = args.get_string("--metric", "all");
  const std::string csv = args.get_string("--csv", "");
  const bool pareto = args.get_flag("--pareto");
  const bool variability = args.get_flag("--variability");
  ObsSession obs_session = ObsSession::from_args(args);
  config.progress_interval_s = obs_session.progress_s;
  config.progress_jsonl = obs_session.progress_jsonl.get();
  config.run_verb = require_trace ? "replay" : "qos";
  if (const int rc = check_unknown(args); rc != 0) return rc;
  if (!obs_session.ok) return 1;

  std::fprintf(stderr, "[fdqos] %s\n", exp::qos_config_summary(config).c_str());
  const exp::QosReport report = exp::run_qos_experiment(config);
  if (!obs_session.finish()) return 1;

  const std::vector<std::pair<std::string, exp::QosMetricKind>> kinds = {
      {"td", exp::QosMetricKind::kTd},   {"tdu", exp::QosMetricKind::kTdU},
      {"tm", exp::QosMetricKind::kTm},   {"tmr", exp::QosMetricKind::kTmr},
      {"pa", exp::QosMetricKind::kPa},
  };
  std::string csv_out;
  bool matched = false;
  for (const auto& [key, kind] : kinds) {
    if (metric != "all" && metric != key) continue;
    matched = true;
    auto table = exp::qos_metric_table(report, kind);
    std::printf("%s\n", table.to_ascii().c_str());
    csv_out += table.to_csv() + "\n";
  }
  if (!matched) {
    std::fprintf(stderr, "fdqos: unknown metric '%s'\n", metric.c_str());
    return 2;
  }
  if (pareto) {
    std::printf("%s\n", exp::pareto_table(report).to_ascii().c_str());
  }
  if (variability) {
    std::printf("%s\n", exp::qos_variability_table(report).to_ascii().c_str());
  }
  if (!csv.empty() && !write_file(csv, csv_out)) {
    std::fprintf(stderr, "fdqos: cannot write %s\n", csv.c_str());
    return 1;
  }
  return 0;
}

int cmd_qos(const ArgParser& args) { return cmd_qos_impl(args, false); }
int cmd_replay(const ArgParser& args) { return cmd_qos_impl(args, true); }

// Run the full 30-detector QoS experiment under a named faultx scenario
// and verify the chaos invariants. Everything on stdout is a pure function
// of (scenario, seed, runs, cycles, ...) — never of --jobs — so
//   fdqos chaos --scenario X --seed N --jobs 8
// is byte-identical to --jobs 1 (the config echo, which includes jobs,
// goes to stderr). Exit 0 = all invariants hold, 1 = violations.
int cmd_chaos(const ArgParser& args) {
  if (args.get_flag("--list")) {
    if (const int rc = check_unknown(args); rc != 0) return rc;
    for (const auto& info : faultx::scenario_catalogue()) {
      std::printf("%-16s %s\n", info.name.c_str(), info.summary.c_str());
    }
    return 0;
  }

  exp::QosExperimentConfig config;
  config.chaos_scenario = args.get_string("--scenario", "");
  config.runs = 3;
  config.num_cycles = 1200;
  config.seed = static_cast<std::uint64_t>(args.get_int("--seed", 7));
  config.mttc = Duration::seconds(120);
  config.ttr = Duration::seconds(25);
  if (!parse_counts(args, config)) return 2;
  if (!parse_timing(args, config)) return 2;
  if (!parse_fleet(args, config)) return 2;
  const std::string metric = args.get_string("--metric", "all");
  const std::string csv = args.get_string("--csv", "");
  ObsSession obs_session = ObsSession::from_args(args);
  config.progress_interval_s = obs_session.progress_s;
  config.progress_jsonl = obs_session.progress_jsonl.get();
  config.run_verb = "chaos";
  if (const int rc = check_unknown(args); rc != 0) return rc;
  if (!obs_session.ok) return 1;

  if (config.chaos_scenario.empty()) {
    std::fprintf(stderr,
                 "fdqos chaos: --scenario NAME required (--list shows them)\n");
    return 2;
  }
  if (!faultx::is_scenario(config.chaos_scenario)) {
    std::fprintf(stderr, "fdqos chaos: unknown scenario '%s'; known:\n",
                 config.chaos_scenario.c_str());
    for (const auto& name : faultx::scenario_names()) {
      std::fprintf(stderr, "  %s\n", name.c_str());
    }
    return 2;
  }

  std::fprintf(stderr, "[fdqos] %s\n", exp::qos_config_summary(config).c_str());
  const exp::QosReport report = exp::run_qos_experiment(config);
  if (!obs_session.finish()) return 1;

  auto chaos = exp::chaos_table(report);
  std::printf("%s\n", chaos.to_ascii().c_str());
  std::string csv_out = chaos.to_csv() + "\n";

  const std::vector<std::pair<std::string, exp::QosMetricKind>> kinds = {
      {"td", exp::QosMetricKind::kTd},   {"tdu", exp::QosMetricKind::kTdU},
      {"tm", exp::QosMetricKind::kTm},   {"tmr", exp::QosMetricKind::kTmr},
      {"pa", exp::QosMetricKind::kPa},
  };
  bool matched = false;
  for (const auto& [key, kind] : kinds) {
    if (metric != "all" && metric != key) continue;
    matched = true;
    auto table = exp::qos_metric_table(report, kind);
    std::printf("%s\n", table.to_ascii().c_str());
    csv_out += table.to_csv() + "\n";
  }
  if (!matched) {
    std::fprintf(stderr, "fdqos: unknown metric '%s'\n", metric.c_str());
    return 2;
  }
  if (!csv.empty() && !write_file(csv, csv_out)) {
    std::fprintf(stderr, "fdqos: cannot write %s\n", csv.c_str());
    return 1;
  }

  const auto violations = exp::qos_invariant_violations(report);
  if (violations.empty()) {
    std::printf("invariants: OK (%zu detectors, scenario %s, seed %llu)\n",
                report.results.size(), config.chaos_scenario.c_str(),
                static_cast<unsigned long long>(config.seed));
    return 0;
  }
  for (const auto& v : violations) {
    std::printf("invariant VIOLATED [%s] %s\n", v.invariant.c_str(),
                v.detail.c_str());
  }
  std::printf("invariants: %zu violation(s) (scenario %s, seed %llu)\n",
              violations.size(), config.chaos_scenario.c_str(),
              static_cast<unsigned long long>(config.seed));
  return 1;
}

// Run a named exp::Workload over the detector grid. The flags mirror
// qos/chaos exactly (--scenario/--seed/--jobs/--endpoints all
// work for any workload, because every factory takes the shared
// QosExperimentConfig), and the stdout contract is the same: every section
// is a pure function of (workload, seed, config), never of --jobs. For
// workloads that define invariants (leader-election; qos under --scenario)
// the verdicts print last and drive the exit code: 0 = all hold, 1 =
// violations — same contract as `fdqos chaos`.
int cmd_workload(const ArgParser& args) {
  workload::register_builtin_workloads();
  if (args.get_flag("--list")) {
    if (const int rc = check_unknown(args); rc != 0) return rc;
    for (const auto& name : exp::workload_names()) {
      std::printf("%s\n", name.c_str());
    }
    return 0;
  }

  exp::QosExperimentConfig config;
  config.chaos_scenario = args.get_string("--scenario", "");
  config.runs = 3;
  config.num_cycles = 1200;
  config.seed = static_cast<std::uint64_t>(args.get_int("--seed", 7));
  config.mttc = Duration::seconds(120);
  config.ttr = Duration::seconds(25);
  config.trace_path = args.get_string("--trace", "");
  const std::string name = args.get_string("--name", "");
  if (!parse_counts(args, config)) return 2;
  if (!parse_timing(args, config)) return 2;
  if (!parse_fleet(args, config)) return 2;
  if (!parse_policy(args, config)) return 2;
  const std::string csv = args.get_string("--csv", "");
  ObsSession obs_session = ObsSession::from_args(args);
  config.progress_interval_s = obs_session.progress_s;
  config.progress_jsonl = obs_session.progress_jsonl.get();
  config.run_verb = "workload";
  if (const int rc = check_unknown(args); rc != 0) return rc;
  if (!obs_session.ok) return 1;

  if (name.empty()) {
    std::fprintf(stderr,
                 "fdqos workload: --name NAME required (--list shows them)\n");
    return 2;
  }
  if (!config.chaos_scenario.empty() &&
      !faultx::is_scenario(config.chaos_scenario)) {
    std::fprintf(stderr, "fdqos workload: unknown scenario '%s'; known:\n",
                 config.chaos_scenario.c_str());
    for (const auto& scenario : faultx::scenario_names()) {
      std::fprintf(stderr, "  %s\n", scenario.c_str());
    }
    return 2;
  }
  if (!config.trace_path.empty()) {
    const wan::TraceLoadResult probe = wan::load_trace(config.trace_path);
    if (!probe.ok()) {
      std::fprintf(stderr, "fdqos: %s\n", probe.error.c_str());
      return 1;
    }
  }
  std::unique_ptr<exp::Workload> workload = exp::make_workload(name, config);
  if (workload == nullptr) {
    std::fprintf(stderr, "fdqos workload: unknown workload '%s'; known:\n",
                 name.c_str());
    for (const auto& known : exp::workload_names()) {
      std::fprintf(stderr, "  %s\n", known.c_str());
    }
    return 2;
  }

  std::fprintf(stderr, "[fdqos] workload=%s %s\n", name.c_str(),
               exp::qos_config_summary(config).c_str());
  exp::run_workload(*workload);
  if (!obs_session.finish()) return 1;

  std::string csv_out;
  for (const auto& section : workload->report_sections()) {
    std::printf("%s\n", section.table.to_ascii().c_str());
    for (const auto& note : section.notes) {
      std::printf("%s\n", note.c_str());
    }
    csv_out += section.table.to_csv() + "\n";
  }
  if (!csv.empty() && !write_file(csv, csv_out)) {
    std::fprintf(stderr, "fdqos: cannot write %s\n", csv.c_str());
    return 1;
  }

  // Workload-specific invariants (printed after the tables so the table
  // block stays byte-comparable across workloads).
  std::vector<exp::InvariantViolation> violations;
  bool checked = false;
  if (const auto* leader =
          dynamic_cast<const workload::LeaderElectionWorkload*>(
              workload.get())) {
    violations = workload::leader_invariant_violations(leader->report());
    checked = true;
  } else if (const auto* qos =
                 dynamic_cast<const exp::QosWorkload*>(workload.get());
             qos != nullptr && !config.chaos_scenario.empty()) {
    violations = exp::qos_invariant_violations(qos->report());
    checked = true;
  }
  if (!checked) return 0;
  if (violations.empty()) {
    std::printf("invariants: OK (workload %s, seed %llu)\n", name.c_str(),
                static_cast<unsigned long long>(config.seed));
    return 0;
  }
  for (const auto& v : violations) {
    std::printf("invariant VIOLATED [%s] %s\n", v.invariant.c_str(),
                v.detail.c_str());
  }
  std::printf("invariants: %zu violation(s) (workload %s, seed %llu)\n",
              violations.size(), name.c_str(),
              static_cast<unsigned long long>(config.seed));
  return 1;
}

// Capture a delay trace from the calibrated WAN model — the input
// `fdqos replay` / `qos --trace` consume. The capture mirrors the
// experiment's link exactly: same RNG substream layout
// (seed → run → "net" → "link/0/1") and the same draw order (loss first,
// then delay; a lost heartbeat has no record). With --scenario the stream
// is pushed through the faultx wrappers, so a chaos scenario becomes a
// replayable artifact. --runs R records R shards (one per forked run
// stream) merged in run order. A trace captured from a real link (e.g. by
// wiring wan::RecordingDelay into a UDP deployment) drops in identically.
int cmd_record(const ArgParser& args) {
  const auto n = args.get_int("--n", 100000);
  const auto runs = args.get_int("--runs", 1);
  const auto seed = static_cast<std::uint64_t>(args.get_int("--seed", 42));
  const std::string out = args.get_string("--out", "trace.fdt");
  const auto eta_ms = args.get_int("--eta-ms", 1000);
  const std::string scenario = args.get_string("--scenario", "");
  const auto fault_start_s = args.get_int("--fault-start-s", 0);
  std::string format = args.get_string("--format", "");
  const std::string source_note = args.get_string("--source", "");
  ObsSession obs_session = ObsSession::from_args(args);
  if (const int rc = check_unknown(args); rc != 0) return rc;
  if (!obs_session.ok) return 1;
  if (n <= 0 || runs <= 0) {
    std::fprintf(stderr, "fdqos record: --n and --runs must be positive\n");
    return 2;
  }
  if (format.empty()) {
    format = out.size() >= 4 && out.rfind(".csv") == out.size() - 4 ? "csv"
                                                                    : "fdt";
  }
  if (format != "csv" && format != "fdt") {
    std::fprintf(stderr, "fdqos record: unknown --format '%s' (want fdt|csv)\n",
                 format.c_str());
    return 2;
  }
  if (!scenario.empty() && !faultx::is_scenario(scenario)) {
    std::fprintf(stderr, "fdqos record: unknown scenario '%s'; known:\n",
                 scenario.c_str());
    for (const auto& name : faultx::scenario_names()) {
      std::fprintf(stderr, "  %s\n", name.c_str());
    }
    return 2;
  }

  const Duration eta = Duration::millis(eta_ms);
  std::shared_ptr<const faultx::FaultSchedule> faults;
  if (!scenario.empty()) {
    faultx::ScenarioParams sp;
    sp.active_start = TimePoint::origin() + Duration::seconds(fault_start_s);
    sp.horizon = TimePoint::origin() + eta * n + Duration::seconds(5);
    faults = std::make_shared<const faultx::FaultSchedule>(
        faultx::make_scenario(scenario, sp));
  }

  // Live telemetry identity for the capture (a long record is otherwise
  // opaque to a /runs scrape): one registry row, refreshed per shard.
  const std::string record_run_id = "record-seed" + std::to_string(seed);
  obs::RunStatus record_status;
  if (obs::enabled()) {
    obs::set_run_context(record_run_id, scenario.empty() ? "paper" : scenario);
    record_status.id = record_run_id;
    record_status.verb = "record";
    record_status.suite = scenario.empty() ? "paper" : scenario;
    record_status.runs_total = static_cast<std::size_t>(runs);
    obs::RunRegistry::global().update(record_status);
  }

  auto hub = std::make_shared<wan::TraceRecorderHub>();
  const Rng base(seed);
  for (std::int64_t run = 0; run < runs; ++run) {
    // The experiment's exact link substream for this (seed, run).
    Rng link_rng = base.fork(static_cast<std::uint64_t>(run))
                       .fork("net")
                       .fork("link/0/1");
    std::unique_ptr<wan::DelayModel> delay = wan::make_italy_japan_delay();
    std::unique_ptr<wan::LossModel> loss = wan::make_italy_japan_loss();
    if (faults != nullptr) {
      delay = std::make_unique<faultx::FaultyDelay>(std::move(delay), faults);
      loss = std::make_unique<faultx::FaultyLoss>(std::move(loss), faults);
    }
    wan::RecordingDelay recording(std::move(delay), hub,
                                  static_cast<std::uint64_t>(run));
    TimePoint t = TimePoint::origin();
    for (std::int64_t i = 0; i < n; ++i, t += eta) {
      // Same order as the simulated link: the loss draw comes first and a
      // dropped message never samples (or records) a delay.
      if (loss->drop(link_rng, t)) continue;
      recording.sample(link_rng, t);
    }
    if (obs::enabled()) {
      record_status.runs_started = static_cast<std::size_t>(run + 1);
      record_status.runs_done = static_cast<std::size_t>(run + 1);
      record_status.heartbeats_sent +=
          static_cast<std::uint64_t>(n);  // attempts; drops recorded nothing
      obs::RunRegistry::global().update(record_status);
    }
  }
  if (obs::enabled()) {
    record_status.finished = true;
    obs::RunRegistry::global().update(record_status);
    obs::clear_run_context();
  }

  char source[256];
  std::snprintf(source, sizeof source,
                "italy_japan eta=%lldms seed=%llu runs=%lld n=%lld%s%s",
                static_cast<long long>(eta_ms),
                static_cast<unsigned long long>(seed),
                static_cast<long long>(runs), static_cast<long long>(n),
                scenario.empty() ? "" : " scenario=", scenario.c_str());
  wan::TraceMeta meta;
  meta.source = source;
  if (!source_note.empty()) meta.source += " | " + source_note;

  const wan::Trace trace = hub->merged(meta);
  std::string error;
  const bool saved = format == "csv" ? wan::save_trace_csv(trace, out, &error)
                                     : wan::save_trace_fdt(trace, out, &error);
  if (!obs_session.finish()) return 1;
  if (!saved) {
    std::fprintf(stderr, "fdqos: %s\n", error.c_str());
    return 1;
  }
  std::printf(
      "wrote %zu delays (%lld run%s) to %s [%s]%s "
      "(replay with `fdqos replay --trace %s`)\n",
      trace.size(), static_cast<long long>(runs), runs == 1 ? "" : "s",
      out.c_str(), format.c_str(), scenario.empty() ? "" : " [faulted]",
      out.c_str());
  return 0;
}

// `serve` — the live heavy-traffic UDP ingest daemon (serve/daemon.hpp,
// docs/serve.md). The signal path is the one place a handler touches the
// process: a file-scope pointer set strictly before handlers install,
// cleared strictly after they revert, and a handler body that is one
// async-signal-safe relaxed atomic store.
serve::ServeDaemon* g_serve_daemon = nullptr;

extern "C" void serve_signal_handler(int) {
  if (g_serve_daemon != nullptr) g_serve_daemon->request_stop();
}

int cmd_serve(const ArgParser& args) {
  serve::ServeConfig config;
  config.host = args.get_string("--host", "127.0.0.1");
  const auto port = args.get_int("--port", 0);
  const auto max_endpoints = args.get_int("--max-endpoints", 1024);
  const auto eta_ms = args.get_int("--eta-ms", 1000);
  const auto batch = args.get_int("--batch", 32);
  const auto segment_samples = args.get_int("--segment-samples", 1'000'000);
  const double duration_s = args.get_double("--duration-s", 0.0);
  config.force_single_recv = args.get_flag("--single-recv");
  config.capture = !args.get_flag("--no-capture");
  config.capture_dir = args.get_string("--capture-dir", ".");
  config.capture_prefix = args.get_string("--capture-prefix", "serve");
  config.suite = args.get_string("--suite", "lite");
  config.run_id = args.get_string("--run-id", "serve");
  ObsSession obs_session = ObsSession::from_args(args);
  if (const int rc = check_unknown(args); rc != 0) return rc;
  if (!obs_session.ok) return 1;
  if (port < 0 || port > 65535) {
    std::fprintf(stderr, "fdqos serve: --port %lld out of range\n",
                 static_cast<long long>(port));
    return 2;
  }
  if (max_endpoints <= 0 || eta_ms <= 0 || batch <= 0 ||
      segment_samples <= 0 || duration_s < 0.0) {
    std::fprintf(stderr,
                 "fdqos serve: --max-endpoints, --eta-ms, --batch and "
                 "--segment-samples must be positive (--duration-s >= 0)\n");
    return 2;
  }
  config.port = static_cast<std::uint16_t>(port);
  config.max_endpoints = static_cast<std::size_t>(max_endpoints);
  config.eta = Duration::millis(eta_ms);
  config.batch = static_cast<std::size_t>(batch);
  config.segment_samples = static_cast<std::uint64_t>(segment_samples);
  config.duration = Duration::from_seconds_double(duration_s);

  if (obs::enabled()) obs::set_run_context(config.run_id, config.suite);
  serve::ServeDaemon daemon(config);
  if (!daemon.init()) {
    obs_session.finish();
    return 1;
  }
  // The bound-port line is load-bearing for scripts using --port 0.
  std::fprintf(stderr,
               "[fdqos serve] listening on udp://%s:%u (max-endpoints %zu, "
               "eta %lld ms, suite %s, capture %s)\n",
               config.host.c_str(), static_cast<unsigned>(daemon.udp_port()),
               config.max_endpoints, static_cast<long long>(eta_ms),
               config.suite.c_str(), config.capture ? "on" : "off");

  g_serve_daemon = &daemon;
  std::signal(SIGINT, serve_signal_handler);
  std::signal(SIGTERM, serve_signal_handler);
  int rc = daemon.run();
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);
  g_serve_daemon = nullptr;

  const auto& stats = daemon.stats();
  std::fprintf(stderr,
               "[fdqos serve] shutdown: %llu heartbeats from %zu endpoints, "
               "%llu datagrams in %llu batches, drops decode=%llu "
               "capacity=%llu kernel=%llu\n",
               static_cast<unsigned long long>(stats.heartbeats),
               daemon.ingest().admitted(),
               static_cast<unsigned long long>(stats.datagrams),
               static_cast<unsigned long long>(stats.batches),
               static_cast<unsigned long long>(stats.drops_decode),
               static_cast<unsigned long long>(stats.drops_capacity),
               static_cast<unsigned long long>(stats.kernel_drops));
  const auto segments = daemon.capture_segments();
  if (config.capture) {
    std::fprintf(stderr,
                 "[fdqos serve] capture: %llu samples in %zu finalized "
                 "segments\n",
                 static_cast<unsigned long long>(stats.captured),
                 segments.size());
    for (const auto& path : segments) {
      std::fprintf(stderr, "[fdqos serve] segment %s\n", path.c_str());
    }
  }
  if (!obs_session.finish() && rc == 0) rc = 1;
  return rc;
}

int cmd_accuracy(const ArgParser& args) {
  exp::AccuracyExperimentConfig config;
  const auto n = parse_count(args, "--n", 100000, 1);
  const auto jobs = parse_count(args, "--jobs", 0, 0);
  if (!n || !jobs) return 2;
  config.n_oneway = static_cast<std::size_t>(*n);
  config.seed = static_cast<std::uint64_t>(args.get_int("--seed", 42));
  config.jobs = static_cast<std::size_t>(*jobs);
  const std::string csv = args.get_string("--csv", "");
  ObsSession obs_session = ObsSession::from_args(args);
  config.progress_interval_s = obs_session.progress_s;
  if (const int rc = check_unknown(args); rc != 0) return rc;
  if (!obs_session.ok) return 1;

  const auto report = exp::run_accuracy_experiment(config);
  if (!obs_session.finish()) return 1;
  auto table = exp::accuracy_table(report);
  std::printf("%s", table.to_ascii().c_str());
  std::printf("(%zu delays from %zu heartbeats; link mean %.1f ms, sd %.1f ms)\n",
              report.delays_collected, report.heartbeats_sent,
              report.delays_ms.mean, report.delays_ms.stddev);
  if (!csv.empty() && !write_file(csv, table.to_csv())) {
    std::fprintf(stderr, "fdqos: cannot write %s\n", csv.c_str());
    return 1;
  }
  return 0;
}

int cmd_link(const ArgParser& args) {
  const auto n = parse_count(args, "--n", 500000, 1);
  if (!n) return 2;
  Rng rng(static_cast<std::uint64_t>(args.get_int("--seed", 42)));
  if (const int rc = check_unknown(args); rc != 0) return rc;

  auto delay = wan::make_italy_japan_delay();
  auto loss = wan::make_italy_japan_loss();
  const auto link = wan::measure_link(
      *delay, *loss, static_cast<std::size_t>(*n), Duration::seconds(1), rng);
  std::printf("%s", exp::link_table(link).to_ascii().c_str());
  return 0;
}

int cmd_order_select(const ArgParser& args) {
  const auto n = parse_count(args, "--n", 20000, 1);
  const auto pmax = parse_count(args, "--pmax", 3, 0);
  const auto dmax = parse_count(args, "--dmax", 2, 0);
  const auto qmax = parse_count(args, "--qmax", 3, 0);
  const auto jobs = parse_count(args, "--jobs", 0, 0);
  if (!n || !pmax || !dmax || !qmax || !jobs) return 2;
  exp::AccuracyExperimentConfig acc;
  acc.n_oneway = static_cast<std::size_t>(*n);
  acc.seed = static_cast<std::uint64_t>(args.get_int("--seed", 42));
  forecast::OrderSelectionConfig selection;
  selection.max_order.p = static_cast<std::size_t>(*pmax);
  selection.max_order.d = static_cast<std::size_t>(*dmax);
  selection.max_order.q = static_cast<std::size_t>(*qmax);
  selection.jobs = static_cast<std::size_t>(*jobs);
  if (const int rc = check_unknown(args); rc != 0) return rc;

  const auto series = exp::generate_delay_series(acc);
  // Lost heartbeats leave no delay, so the series can fall short of --n.
  if (series.size() < forecast::kMinOrderSelectionSamples) {
    std::fprintf(stderr,
                 "fdqos order-select: --n %lld yields %zu delays; the order "
                 "search needs >= %zu\n",
                 static_cast<long long>(*n), series.size(),
                 forecast::kMinOrderSelectionSamples);
    return 2;
  }
  const auto result = forecast::select_arima_order(series, selection);
  std::printf("best order on %zu delays: %s (holdout msqerr %.3f ms^2)\n",
              series.size(), result.best.to_string().c_str(),
              result.best_msqerr);
  for (const auto& cand : result.candidates) {
    if (!cand.fitted) continue;
    std::printf("  %-14s %10.3f%s\n", cand.order.to_string().c_str(),
                cand.holdout_msqerr,
                cand.order == result.best ? "  <- selected" : "");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  if (args.positional().empty()) return usage();
  const std::string command = args.positional()[0];
  if (command == "qos") return cmd_qos(args);
  if (command == "chaos") return cmd_chaos(args);
  if (command == "workload") return cmd_workload(args);
  if (command == "accuracy") return cmd_accuracy(args);
  if (command == "link") return cmd_link(args);
  if (command == "order-select") return cmd_order_select(args);
  if (command == "record") return cmd_record(args);
  if (command == "replay") return cmd_replay(args);
  if (command == "serve") return cmd_serve(args);
  std::fprintf(stderr, "fdqos: unknown command '%s'\n", command.c_str());
  return usage();
}
