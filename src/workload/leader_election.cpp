#include "workload/leader_election.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

#include "common/assert.hpp"
#include "exp/report.hpp"
#include "membership/view_manager.hpp"
#include "obs/metrics.hpp"

namespace fdqos::workload {

LeaderElectionWorkload::LeaderElectionWorkload(exp::QosExperimentConfig config)
    : qos_(hook_probes(std::move(config))) {}

const std::string& LeaderElectionWorkload::name() const {
  static const std::string kName = "leader-election";
  return kName;
}

exp::QosExperimentConfig LeaderElectionWorkload::hook_probes(
    exp::QosExperimentConfig config) {
  // Chain, never replace: a caller-installed probe keeps firing after the
  // capture. The closures only dereference `this` from run_unit onwards,
  // after prepare() sized captures_.
  auto user_transitions = std::move(config.transition_probe);
  config.transition_probe = [this, user_transitions](
                                std::size_t run, std::size_t detector,
                                TimePoint t, bool suspecting) {
    captures_[run].transitions.push_back({detector, t, suspecting});
    if (user_transitions) user_transitions(run, detector, t, suspecting);
  };
  auto user_crashes = std::move(config.crash_probe);
  config.crash_probe = [this, user_crashes](std::size_t run,
                                            std::size_t endpoint, TimePoint t,
                                            bool crashed) {
    captures_[run].toggles.push_back({t, crashed});
    if (user_crashes) user_crashes(run, endpoint, t, crashed);
  };
  return config;
}

void LeaderElectionWorkload::prepare() {
  // Leader election is defined over the paper's two-node topology: node 0
  // is the one preferred leader every detector lane watches. A fleet of
  // monitored endpoints has no such single leader, so reject loudly
  // instead of producing a meaningless score.
  if (qos_.config().endpoints > 1 || qos_.config().force_fleet_engine) {
    std::fprintf(stderr,
                 "fdqos: the leader-election workload runs on the two-node "
                 "topology; fleet mode (--endpoints > 1) is not supported\n");
    FDQOS_REQUIRE(!"leader-election workload is incompatible with fleet mode");
  }
  captures_.assign(qos_.config().runs, RunCapture{});
  qos_.prepare();
}

void LeaderElectionWorkload::reduce() {
  qos_.reduce();
  report_ = LeaderReport{};
  report_.qos = qos_.report();

  const exp::QosExperimentConfig& config = qos_.config();
  const auto& suite = qos_.suite();
  const TimePoint warmup_end = TimePoint::origin() + config.warmup;
  const TimePoint run_end = TimePoint::origin() +
                            config.eta * config.num_cycles + config.ttr +
                            Duration::seconds(5);
  report_.window_ms = (run_end - warmup_end).to_millis_double() *
                      static_cast<double>(config.runs);

  report_.lanes.resize(suite.size());
  for (std::size_t i = 0; i < suite.size(); ++i) {
    report_.lanes[i].name = suite[i].name;
  }
  std::vector<Duration> leaderless(suite.size());
  std::vector<Duration> detected(suite.size());
  std::vector<Duration> wrong(suite.size());
  Duration downtime = Duration::zero();

  // Ordered post-join reduction (the PR 2 rule): fold run 0, 1, ... in
  // ascending order; every accumulator is integer-nanosecond Durations or
  // counters, so the pooled scores are independent of --jobs and
  // scheduling. Per-lane transition streams arrive time-ordered; the
  // crash/transition merge below breaks equal timestamps crash-first.
  for (std::size_t run = 0; run < config.runs; ++run) {
    const RunCapture& capture = captures_[run];

    // Node 0 downtime inside the scoring window — lane-independent ground
    // truth, accumulated once per run.
    {
      bool up = true;
      TimePoint down_since = TimePoint::origin();
      for (const CrashToggle& toggle : capture.toggles) {
        if (toggle.crashed) {
          up = false;
          down_since = toggle.t;
        } else {
          if (!up) {
            const TimePoint lo = std::max(down_since, warmup_end);
            const TimePoint hi = std::min(toggle.t, run_end);
            if (hi > lo) downtime += hi - lo;
          }
          up = true;
        }
      }
      if (!up) {
        const TimePoint lo = std::max(down_since, warmup_end);
        if (run_end > lo) downtime += run_end - lo;
      }
    }

    // Bucket the run's transitions by lane (already time-ordered within a
    // lane).
    std::vector<std::vector<const Transition*>> by_lane(suite.size());
    for (const Transition& tr : capture.transitions) {
      FDQOS_REQUIRE(tr.detector < suite.size());
      by_lane[tr.detector].push_back(&tr);
    }

    for (std::size_t i = 0; i < suite.size(); ++i) {
      LeaderLaneScore& lane = report_.lanes[i];
      // The lane's Ω oracle: a two-member view manager on node 1. The
      // rotating-coordinator rule (smallest trusted member) makes node 0
      // the coordinator while trusted and node 1 the fallback leader
      // while node 0 is suspected.
      membership::ViewManager vm(1, {0, 1});
      vm.set_observer([&lane, warmup_end](const membership::View&,
                                          TimePoint when, bool changed) {
        if (changed && when >= warmup_end) ++lane.flaps;
      });

      bool node0_up = true;
      bool suspecting = false;
      TimePoint prev = TimePoint::origin();
      TimePoint crash_start = TimePoint::origin();
      // Leaderless time accrued in the *current* down period; flushed into
      // the detected bucket only when the period ends with the detector
      // suspecting (the tracker's T_D sample for that crash — measured to
      // the latest suspicion start — covers every coordinator-0 segment
      // of the period, so the bucket stays bounded by the pooled T_D sum).
      Duration period_leaderless = Duration::zero();

      const auto account = [&](TimePoint to) {
        const TimePoint lo = std::max(prev, warmup_end);
        const TimePoint hi = std::min(to, run_end);
        if (hi > lo) {
          const Duration d = hi - lo;
          if (vm.view().coordinator() == 0) {
            if (!node0_up) {
              leaderless[i] += d;
              period_leaderless += d;
            }
          } else if (node0_up) {
            wrong[i] += d;
          }
        }
        prev = to;
      };

      const auto& lane_transitions = by_lane[i];
      const auto& toggles = capture.toggles;
      std::size_t c = 0;
      std::size_t t = 0;
      while (c < toggles.size() || t < lane_transitions.size()) {
        const bool take_crash =
            t >= lane_transitions.size() ||
            (c < toggles.size() && toggles[c].t <= lane_transitions[t]->t);
        if (take_crash) {
          account(toggles[c].t);
          if (toggles[c].crashed) {
            node0_up = false;
            crash_start = toggles[c].t;
            period_leaderless = Duration::zero();
          } else {
            if (suspecting && crash_start >= warmup_end) {
              detected[i] += period_leaderless;
            }
            node0_up = true;
            period_leaderless = Duration::zero();
          }
          ++c;
        } else {
          const Transition& tr = *lane_transitions[t];
          account(tr.t);
          if (tr.suspecting) {
            if (!node0_up && tr.t >= warmup_end) ++lane.failovers;
            suspecting = true;
            vm.peer_suspected(0, tr.t);
          } else {
            suspecting = false;
            vm.peer_trusted(0, tr.t);
          }
          ++t;
        }
      }
      account(run_end);  // tail segment; a censored outage never flushes
      vm.finalize(run_end);
    }
  }

  for (std::size_t i = 0; i < suite.size(); ++i) {
    report_.lanes[i].leaderless_ms = leaderless[i].to_millis_double();
    report_.lanes[i].leaderless_detected_ms = detected[i].to_millis_double();
    report_.lanes[i].wrong_leader_ms = wrong[i].to_millis_double();
  }
  report_.downtime_ms = downtime.to_millis_double();

  if (obs::enabled()) {
    auto& reg = obs::Registry::global();
    const obs::Labels base = {{"run", config.run_id},
                              {"suite", config.suite_label},
                              {"workload", name()}};
    for (const LeaderLaneScore& lane : report_.lanes) {
      obs::Labels labels = base;
      labels.emplace_back("detector", lane.name);
      reg.gauge("fdqos_workload_leaderless_ms",
                "Total time without a working leader (believing a crashed "
                "coordinator) inside the scoring window, summed over runs, "
                "milliseconds",
                labels)
          .set(lane.leaderless_ms);
      reg.counter("fdqos_workload_flaps_total",
                  "Coordinator changes inside the scoring window, summed "
                  "over runs",
                  labels)
          .inc(lane.flaps);
    }
  }
}

std::vector<exp::ReportSection> LeaderElectionWorkload::report_sections()
    const {
  std::vector<exp::ReportSection> sections;
  exp::ReportSection leader;
  leader.title = "leader-election";
  leader.table = leader_table(report_);
  char line[160];
  std::snprintf(line, sizeof(line),
                "node0 downtime: %s ms of %s ms scored (%zu runs)",
                stats::format_double(report_.downtime_ms, 3).c_str(),
                stats::format_double(report_.window_ms, 3).c_str(),
                report_.qos.config.runs);
  leader.notes.push_back(line);
  sections.push_back(std::move(leader));
  // The embedded detector-QoS view follows, in its own fixed order.
  for (auto& section : qos_.report_sections()) {
    sections.push_back(std::move(section));
  }
  return sections;
}

stats::TableWriter leader_table(const LeaderReport& report) {
  stats::TableWriter table(
      "Leader election: time-without-leader per detector");
  table.set_columns({"detector", "leaderless_ms", "detected_ms",
                     "wrong_leader_ms", "flaps", "failovers"});
  for (const LeaderLaneScore& lane : report.lanes) {
    table.add_row({lane.name, stats::format_double(lane.leaderless_ms, 3),
                   stats::format_double(lane.leaderless_detected_ms, 3),
                   stats::format_double(lane.wrong_leader_ms, 3),
                   std::to_string(lane.flaps),
                   std::to_string(lane.failovers)});
  }
  return table;
}

std::string leader_report_fingerprint(const LeaderReport& report) {
  std::string out = leader_table(report).to_csv();
  out += "downtime_ms," + stats::format_double(report.downtime_ms, 6) + "\n";
  out += "window_ms," + stats::format_double(report.window_ms, 6) + "\n";
  out += exp::qos_report_fingerprint(report.qos);
  return out;
}

std::vector<exp::InvariantViolation> leader_invariant_violations(
    const LeaderReport& report) {
  std::vector<exp::InvariantViolation> violations;
  const auto violate = [&violations](const std::string& invariant,
                                     std::string detail) {
    violations.push_back({invariant, std::move(detail)});
  };
  for (std::size_t i = 0; i < report.lanes.size(); ++i) {
    const LeaderLaneScore& lane = report.lanes[i];
    const auto tag = [&lane](const char* what) {
      return lane.name + ": " + what;
    };
    if (!(std::isfinite(lane.leaderless_ms) &&
          std::isfinite(lane.leaderless_detected_ms) &&
          std::isfinite(lane.wrong_leader_ms))) {
      violate("finite-scores", tag("non-finite score"));
      continue;
    }
    if (lane.leaderless_ms < 0.0) {
      violate("leaderless-nonnegative",
              tag("leaderless_ms < 0: ") +
                  stats::format_double(lane.leaderless_ms, 6));
    }
    if (lane.wrong_leader_ms < 0.0) {
      violate("wrong-leader-nonnegative",
              tag("wrong_leader_ms < 0: ") +
                  stats::format_double(lane.wrong_leader_ms, 6));
    }
    // A lane is leaderless only while node 0 is actually down, so its
    // leaderless time can never exceed the ground-truth downtime.
    const double downtime_eps = 1e-6 * (report.downtime_ms + 1.0);
    if (lane.leaderless_ms > report.downtime_ms + downtime_eps) {
      violate("leaderless-bounded-by-downtime",
              tag("leaderless_ms ") +
                  stats::format_double(lane.leaderless_ms, 6) +
                  " > downtime_ms " +
                  stats::format_double(report.downtime_ms, 6));
    }
    // Detected outages: each flushed period is covered by that crash's
    // T_D sample (measured to the latest suspicion start), so the bucket
    // is bounded by the pooled T_D sum.
    if (i < report.qos.results.size() &&
        report.qos.results[i].name == lane.name) {
      const stats::Summary& td =
          report.qos.results[i].metrics.detection_time_ms;
      const double td_eps = 1e-5 * (static_cast<double>(td.count) + 1.0);
      if (lane.leaderless_detected_ms > td.sum + td_eps) {
        violate("leaderless-bounded-by-td",
                tag("detected_ms ") +
                    stats::format_double(lane.leaderless_detected_ms, 6) +
                    " > td_sum_ms " + stats::format_double(td.sum, 6));
      }
    }
    if (report.qos.total_crashes == 0 &&
        (lane.leaderless_ms != 0.0 || lane.failovers != 0)) {
      violate("leaderless-zero-without-crashes",
              tag("no crashes but leaderless_ms ") +
                  stats::format_double(lane.leaderless_ms, 6) + ", failovers " +
                  std::to_string(lane.failovers));
    }
    if (lane.failovers > lane.flaps) {
      violate("flap-failover-consistency",
              tag("failovers ") + std::to_string(lane.failovers) + " > flaps " +
                  std::to_string(lane.flaps));
    }
  }
  return violations;
}

void register_builtin_workloads() {
  exp::register_workload("qos", [](const exp::QosExperimentConfig& config) {
    return std::unique_ptr<exp::Workload>(
        std::make_unique<exp::QosWorkload>(config));
  });
  exp::register_workload(
      "leader-election", [](const exp::QosExperimentConfig& config) {
        return std::unique_ptr<exp::Workload>(
            std::make_unique<LeaderElectionWorkload>(config));
      });
}

}  // namespace fdqos::workload
