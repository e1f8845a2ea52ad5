#include "paper.hpp"

#include <algorithm>
#include <cctype>
#include <thread>

#include "checks.hpp"
#include "exp/qos_experiment.hpp"
#include "exp/report.hpp"
#include "fd/suite.hpp"
#include "layers.hpp"
#include "obs/instruments.hpp"
#include "obs/metrics.hpp"

namespace perfbench {
namespace {

using fdqos::exp::QosExperimentConfig;
using fdqos::exp::QosReport;

// The detector the serve workloads run (their lite suite), so the
// simulated and the live T_D describe the same detector.
constexpr const char* kTdDetector = "Last+CI_low";

std::size_t nproc() {
  return std::max(1u, std::thread::hardware_concurrency());
}

// `fdqos qos` defaults.
QosExperimentConfig paper_config(std::uint64_t seed, std::size_t jobs) {
  QosExperimentConfig config;
  config.seed = seed;
  config.jobs = jobs;
  return config;
}

// Set-up: the config plus one instance of every detector of the suite —
// what each run assembles before its first heartbeat.
double setup_once(std::uint64_t seed, Outcome& outcome) {
  const std::int64_t start = now_ns();
  const QosExperimentConfig config = paper_config(seed, nproc());
  std::size_t parts = 0;
  for (const fdqos::fd::FdSpec& spec :
       fdqos::fd::make_paper_suite(config.params)) {
    parts += spec.make_predictor() != nullptr;
    parts += spec.make_margin() != nullptr;
  }
  const double s = static_cast<double>(now_ns() - start) / 1e9;
  outcome.check(parts == 60, "paper: suite assembly incomplete");
  return s;
}

struct Timed {
  QosReport report;
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

Timed timed_run(std::uint64_t seed, std::size_t jobs) {
  const QosExperimentConfig config = paper_config(seed, jobs);
  const std::int64_t cpu = process_cpu_ns();
  const std::int64_t start = now_ns();
  Timed t{fdqos::exp::run_qos_experiment(config), 0.0, 0.0};
  t.wall_s = static_cast<double>(now_ns() - start) / 1e9;
  t.cpu_s = static_cast<double>(process_cpu_ns() - cpu) / 1e9;
  return t;
}

struct Probed {
  QosReport report;
  std::vector<double> td_ms;
  std::vector<std::uint64_t> pending;  // per run: crashes not restored
};

// One run at jobs = nproc with the crash and transition probes on. T_D of
// kTdDetector (ms) follows the QosTracker's rules: the latest suspicion
// start of a down period counts if the detector still suspects at the
// restore (0 if it already suspected at the crash), and only restores
// after the warm-up are recorded.
Probed probed_run(std::uint64_t seed) {
  QosExperimentConfig config = paper_config(seed, nproc());
  std::size_t detector = 0;
  const auto suite = fdqos::fd::make_paper_suite(config.params);
  while (detector < suite.size() && suite[detector].name != kTdDetector) {
    ++detector;
  }
  struct Event {
    fdqos::TimePoint t;
    bool crash_probe;
    bool on;  // crashed / suspecting
  };
  std::vector<std::vector<Event>> events(config.runs);
  config.transition_probe = [&](std::size_t run, std::size_t d,
                                fdqos::TimePoint t, bool suspecting) {
    if (d == detector) events[run].push_back(Event{t, false, suspecting});
  };
  config.crash_probe = [&](std::size_t run, std::size_t, fdqos::TimePoint t,
                           bool crashed) {
    events[run].push_back(Event{t, true, crashed});
  };
  Probed out;
  out.report = fdqos::exp::run_qos_experiment(config);

  const fdqos::TimePoint warmup_end = fdqos::TimePoint::origin() + config.warmup;
  for (const auto& run : events) {
    std::uint64_t crashes = 0, restores = 0;
    bool down = false, suspecting = false, detected = false;
    fdqos::TimePoint crashed_at, detected_at;
    for (const Event& e : run) {
      if (e.crash_probe && e.on) {
        ++crashes;
        down = true;
        crashed_at = e.t;
        detected = suspecting;
        detected_at = e.t;
      } else if (e.crash_probe) {
        ++restores;
        if (detected && e.t >= warmup_end) {
          out.td_ms.push_back((detected_at - crashed_at).to_millis_double());
        }
        down = false;
      } else {
        suspecting = e.on;
        if (down) {
          detected = e.on;
          detected_at = e.t;
        }
      }
    }
    out.pending.push_back(crashes - restores);
  }
  return out;
}

}  // namespace

void run_paper(std::uint64_t seed, double seconds, bool trace,
               Outcome& outcome) {
  fdqos::obs::set_enabled(false);
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  std::vector<Timed> runs;
  // nproc first, so every later fingerprint is compared with it.
  const auto run_pair = [&] {
    runs.push_back(timed_run(seed, nproc()));
    runs.push_back(timed_run(seed, 1));
  };

  if (!trace) {
    std::vector<double> setups;
    for (int i = 0; i < 51; ++i) setups.push_back(setup_once(seed, outcome));
    outcome.set("setup_s", median(setups), "s");
  }
  do {
    run_pair();
  } while (runs.size() < (trace ? 4u : 6u) || now_ns() < deadline);

  std::vector<const QosReport*> reports;
  std::vector<std::string> fingerprints;
  std::vector<double> wall_n, wall_1, cpu_n, cpu_1;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    reports.push_back(&runs[i].report);
    fingerprints.push_back(fdqos::exp::qos_report_fingerprint(runs[i].report));
    (i % 2 == 0 ? wall_n : wall_1).push_back(runs[i].wall_s);
    (i % 2 == 0 ? cpu_n : cpu_1).push_back(runs[i].cpu_s);
  }
  const Probed probed = probed_run(seed);
  const std::vector<double>& td = probed.td_ms;
  reports.push_back(&probed.report);
  fingerprints.push_back(fdqos::exp::qos_report_fingerprint(probed.report));
  for (const std::string& failure :
       check_paper(reports, fingerprints, probed.pending, seed)) {
    outcome.check(false, failure);
  }
  outcome.check(!td.empty(), "paper: no detection of a crash recorded");
  outcome.attempted = runs.size() + 1;

  const auto heartbeats =
      static_cast<double>(runs.front().report.heartbeats_sent);
  if (!trace) {
    outcome.set("hb_cpu_ns", median(cpu_1) * 1e9 / heartbeats, "ns");
    outcome.set("td_p50_ms", quantile(td, 0.5), "ms");
    outcome.set("td_p90_ms", quantile(td, 0.9), "ms");
    outcome.set("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }

  const fdqos::fd::DetectorBank::Counters& bank = runs.front().report.bank;
  outcome.set("exp.wall_s", median(wall_n), "s");
  outcome.set("exp.wall_1job_s", median(wall_1), "s");
  outcome.set("exec.pool_busy_frac",
              median(cpu_n) / (median(wall_n) * static_cast<double>(nproc())),
              "ratio");
  outcome.set("fd.bank.predictor_updates",
              static_cast<double>(bank.predictor_updates), "count");
  outcome.set("fd.bank.lane_updates", static_cast<double>(bank.lane_updates),
              "count");
  outcome.set("fd.bank.timer_events", static_cast<double>(bank.timer_events),
              "count");
  outcome.set("fd.bank.coalesced_timers",
              static_cast<double>(bank.coalesced_timers), "count");

  // One run with obs on: its refit and dispatch histograms, and its cost.
  auto& ins = fdqos::obs::instruments();
  const std::uint64_t refits0 = ins.arima_refits_accepted.value() +
                                ins.arima_refits_rejected.value();
  fdqos::obs::set_enabled(true);
  const Timed traced = timed_run(seed, 1);
  fdqos::obs::set_enabled(false);
  outcome.check(fdqos::exp::qos_report_fingerprint(traced.report) ==
                    fingerprints.front(),
                "paper: report with obs on differs");
  outcome.set("forecast.arima.refits",
              static_cast<double>(ins.arima_refits_accepted.value() +
                                  ins.arima_refits_rejected.value() - refits0),
              "count");
  outcome.set("forecast.arima.refit_us_p50",
              ins.arima_refit_duration_us.quantile_estimate(0.5), "us");
  outcome.set("runtime.mux_dispatch_us_p50",
              ins.mux_dispatch_duration_us.quantile_estimate(0.5), "us");
  outcome.set("obs.trace_overhead_frac",
              (traced.wall_s - median(wall_1)) / median(wall_1), "ratio");

  const PaperLayerTimes layers =
      measure_paper_layers(seed, paper_config(seed, 1).num_cycles);
  for (const auto& [label, ns] : layers.observe_ns) {
    std::string name = label;
    for (char& c : name) c = static_cast<char>(std::tolower(c));
    outcome.set("forecast." + name + ".observe_ns", ns, "ns");
  }
  outcome.set("wan.delay_sample_ns", layers.delay_sample_ns, "ns");
  outcome.set("fd.bank.observe_ns", layers.bank_observe_ns, "ns");
}

}  // namespace perfbench
