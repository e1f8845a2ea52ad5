// workload::LeaderElectionWorkload — the first detector-driven application
// workload (ISSUE 9 / ROADMAP item 3).
//
// Crash-recovery leader election over the paper topology: node 0 (the
// monitored process) is the preferred leader; node 1 (the monitor) runs
// the whole detector suite against it. Each detector lane drives its own
// membership::ViewManager over {0, 1} as an Ω-style oracle — the
// rotating-coordinator rule elects the smallest trusted member, so the
// lane's coordinator is node 0 while trusted and node 1 (the local
// fallback) while suspected. What the application experiences is then
// scored per detector configuration, the paper's §2.1 motivation made
// measurable:
//
//   leaderless_ms    time believing the dead node 0 still leads
//                    (coordinator == 0 while node 0 is crashed) — the
//                    time-without-leader metric, the detection-speed cost.
//   wrong_leader_ms  time failed over while node 0 was alive
//                    (coordinator == 1 while node 0 is up) — the wrongful-
//                    eviction accuracy cost.
//   flaps            coordinator changes inside the scoring window.
//   failovers        flaps to node 1 that ended a real outage (a suspicion
//                    arriving while node 0 was down).
//
// The workload embeds a QosWorkload and taps its engines through the
// transition/crash probe hooks, so it inherits every execution mode —
// seeds, chaos scenarios, tracestore replay, any --jobs — and its report
// carries the full detector-QoS report alongside the application scores.
// Scoring replays the captured per-run streams with a per-lane two-stream
// merge and a crash-first tie rule, so the report is byte-identical
// across jobs.
//
// Fleet mode is rejected: leader election is defined over the two-node
// topology (endpoints > 1 has no single preferred leader).
#pragma once

#include <string>
#include <vector>

#include "exp/chaos.hpp"
#include "exp/qos_workload.hpp"
#include "exp/workload.hpp"

namespace fdqos::workload {

// Per-detector application scores, pooled over all runs in run order.
struct LeaderLaneScore {
  std::string name;  // detector (lane) name, suite order
  double leaderless_ms = 0.0;
  // The subset of leaderless time from outages that ended in a failover
  // and began inside the scoring window: each such interval is one of the
  // detector's T_D samples clipped to the window, so this is bounded by
  // the pooled T_D sum (the "leaderless-bounded-by-td" invariant).
  double leaderless_detected_ms = 0.0;
  double wrong_leader_ms = 0.0;
  std::uint64_t flaps = 0;
  std::uint64_t failovers = 0;
};

struct LeaderReport {
  exp::QosReport qos;  // the underlying detector-QoS report
  std::vector<LeaderLaneScore> lanes;
  // Node 0 downtime inside the scoring window, summed over runs (lane-
  // independent ground truth: every lane saw the same crash schedule).
  double downtime_ms = 0.0;
  // Scoring-window length (warmup end to run end) times runs.
  double window_ms = 0.0;
};

class LeaderElectionWorkload final : public exp::Workload {
 public:
  explicit LeaderElectionWorkload(exp::QosExperimentConfig config);

  const std::string& name() const override;

  void prepare() override;
  std::size_t unit_count() const override { return qos_.unit_count(); }
  void run_unit(std::size_t unit) override { qos_.run_unit(unit); }
  void reduce() override;
  std::vector<exp::ReportSection> report_sections() const override;
  std::size_t requested_jobs() const override {
    return qos_.requested_jobs();
  }

  // Valid after reduce().
  const LeaderReport& report() const { return report_; }

 private:
  struct Transition {
    std::size_t detector;
    TimePoint t;
    bool suspecting;
  };
  struct CrashToggle {
    TimePoint t;
    bool crashed;
  };
  struct RunCapture {
    std::vector<Transition> transitions;  // simulation order (per lane)
    std::vector<CrashToggle> toggles;     // simulation order
  };

  // Installs the capture probes (chaining any caller-provided ones); runs
  // in the member-init list, so it must only *create* closures over
  // `this` — captures_ is not touched until run_unit.
  exp::QosExperimentConfig hook_probes(exp::QosExperimentConfig config);

  std::vector<RunCapture> captures_;
  LeaderReport report_;
  exp::QosWorkload qos_;  // must follow captures_ (probes reference them)
};

// Structural invariants every detector must satisfy under any scenario:
//   leaderless-nonnegative / wrong-leader-nonnegative / finite-scores
//   leaderless-bounded-by-downtime   leaderless_ms ≤ downtime_ms (a lane
//                                    is leaderless only while node 0 is
//                                    actually down)
//   leaderless-bounded-by-td         leaderless_detected_ms ≤ pooled T_D
//                                    sum (each detected outage's leaderless
//                                    prefix is that crash's T_D sample)
//   leaderless-zero-without-crashes  no crashes ⇒ leaderless == 0 and
//                                    failovers == 0
//   flap-failover-consistency        failovers ≤ flaps
// Returns every violation found (empty == all hold).
std::vector<exp::InvariantViolation> leader_invariant_violations(
    const LeaderReport& report);

// Per-detector score table (rows in suite order).
stats::TableWriter leader_table(const LeaderReport& report);

// The rendered leader report + the embedded QoS fingerprint. Equal
// fingerprints mean equal reports; the determinism matrix compares these.
std::string leader_report_fingerprint(const LeaderReport& report);

// Registers the built-in workload factories ("qos", "leader-election")
// with exp::register_workload(). Idempotent; the CLI and tests call it
// before exp::make_workload() (static registration would be dropped by
// the archive linker).
void register_builtin_workloads();

}  // namespace fdqos::workload
