// LeaderElectionWorkload contracts (ISSUE 9): the scores are a pure
// function of (seed, config) — identical across seeds x job counts — and
// the structural invariants hold in both regimes the chaos harness
// distinguishes: nominal-no-crash (leaderless and failovers must
// be exactly zero) and crashing (every detected outage's leaderless time
// is bounded by the detector's pooled T_D sum).
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "exp/qos_experiment.hpp"
#include "exp/workload.hpp"
#include "workload/leader_election.hpp"

namespace fdqos::workload {
namespace {

exp::QosExperimentConfig small_config(std::uint64_t seed, std::size_t jobs) {
  exp::QosExperimentConfig config;
  config.runs = 2;
  config.num_cycles = 400;
  config.seed = seed;
  config.mttc = Duration::seconds(90);
  config.ttr = Duration::seconds(20);
  config.jobs = jobs;
  return config;
}

LeaderReport run_leader(const exp::QosExperimentConfig& config) {
  LeaderElectionWorkload workload(config);
  exp::run_workload(workload);
  return workload.report();
}

TEST(LeaderElectionTest, FingerprintMatrixAcrossSeedsEnginesJobs) {
  for (const std::uint64_t seed : {7ull, 11ull, 13ull}) {
    const std::string baseline =
        leader_report_fingerprint(run_leader(small_config(seed, 1)));
    ASSERT_FALSE(baseline.empty());
    EXPECT_EQ(baseline,
              leader_report_fingerprint(run_leader(small_config(seed, 8))))
        << "seed " << seed << " jobs 8";
  }
}

TEST(LeaderElectionTest, ChaosScenarioComposesAndStaysDeterministic) {
  // The workload inherits faultx scenarios from the embedded QosWorkload;
  // the determinism and invariant contracts must survive a hostile
  // network.
  exp::QosExperimentConfig config = small_config(7, 1);
  config.chaos_scenario = "burst_loss";
  const LeaderReport serial = run_leader(config);
  config.jobs = 8;
  const LeaderReport parallel = run_leader(config);
  EXPECT_EQ(leader_report_fingerprint(serial),
            leader_report_fingerprint(parallel));
  EXPECT_TRUE(leader_invariant_violations(serial).empty());
}

TEST(LeaderElectionTest, CrashRegimeScoresAndInvariants) {
  const LeaderReport report = run_leader(small_config(7, 1));
  ASSERT_GT(report.qos.total_crashes, 0u);
  ASSERT_FALSE(report.lanes.empty());
  ASSERT_EQ(report.lanes.size(), report.qos.results.size());
  EXPECT_GT(report.downtime_ms, 0.0);
  EXPECT_GT(report.window_ms, report.downtime_ms);
  bool any_detected = false;
  for (std::size_t i = 0; i < report.lanes.size(); ++i) {
    const LeaderLaneScore& lane = report.lanes[i];
    EXPECT_EQ(lane.name, report.qos.results[i].name);
    // A crash makes every lane leaderless until its detector reacts.
    EXPECT_GT(lane.leaderless_ms, 0.0) << lane.name;
    EXPECT_LE(lane.leaderless_detected_ms, lane.leaderless_ms + 1e-9)
        << lane.name;
    // The workload's T_D bound, checked directly against the QoS report:
    // detected leaderless time never exceeds the pooled detection time.
    EXPECT_LE(lane.leaderless_detected_ms,
              report.qos.results[i].metrics.detection_time_ms.sum + 1e-6)
        << lane.name;
    any_detected = any_detected || lane.leaderless_detected_ms > 0.0;
  }
  EXPECT_TRUE(any_detected);
  EXPECT_TRUE(leader_invariant_violations(report).empty());
}

TEST(LeaderElectionTest, NoCrashNominalIsNeverLeaderless) {
  // With the crash process effectively disabled the preferred leader never
  // dies: any leaderless time or failover would be a scoring bug. Wrongful
  // failovers (wrong_leader_ms, flaps) may still occur — that is the
  // detector's accuracy cost, not a workload bug.
  exp::QosExperimentConfig config = small_config(3, 1);
  config.mttc = Duration::seconds(50000000);
  const LeaderReport report = run_leader(config);
  ASSERT_EQ(report.qos.total_crashes, 0u);
  EXPECT_EQ(report.downtime_ms, 0.0);
  for (const LeaderLaneScore& lane : report.lanes) {
    EXPECT_EQ(lane.leaderless_ms, 0.0) << lane.name;
    EXPECT_EQ(lane.leaderless_detected_ms, 0.0) << lane.name;
    EXPECT_EQ(lane.failovers, 0u) << lane.name;
  }
  EXPECT_TRUE(leader_invariant_violations(report).empty());
}

TEST(LeaderElectionTest, InvariantCheckerFlagsCorruptReports) {
  LeaderReport report = run_leader(small_config(7, 1));
  ASSERT_TRUE(leader_invariant_violations(report).empty());
  // Corrupt one lane past each bound and expect the matching verdicts.
  report.lanes[0].leaderless_ms = report.downtime_ms + 1000.0;
  report.lanes[1].wrong_leader_ms = -1.0;
  report.lanes[2].failovers = report.lanes[2].flaps + 1;
  const auto violations = leader_invariant_violations(report);
  ASSERT_EQ(violations.size(), 3u);
  EXPECT_EQ(violations[0].invariant, "leaderless-bounded-by-downtime");
  EXPECT_EQ(violations[1].invariant, "wrong-leader-nonnegative");
  EXPECT_EQ(violations[2].invariant, "flap-failover-consistency");
}

TEST(LeaderElectionTest, RegistryFactoryBuildsTheWorkload) {
  register_builtin_workloads();
  const exp::QosExperimentConfig config = small_config(11, 2);
  std::unique_ptr<exp::Workload> named =
      exp::make_workload("leader-election", config);
  ASSERT_NE(named, nullptr);
  EXPECT_EQ(named->name(), "leader-election");
  exp::run_workload(*named);
  auto* leader = dynamic_cast<LeaderElectionWorkload*>(named.get());
  ASSERT_NE(leader, nullptr);
  EXPECT_EQ(leader_report_fingerprint(leader->report()),
            leader_report_fingerprint(run_leader(small_config(11, 1))));
  // The leader table leads the section list; the full detector-QoS report
  // follows in its fixed order.
  const auto sections = named->report_sections();
  ASSERT_GE(sections.size(), 7u);
  EXPECT_EQ(sections.front().title, "leader-election");
  EXPECT_EQ(sections.back().title, "totals");
}

TEST(LeaderElectionDeathTest, FleetModeIsRejected) {
  exp::QosExperimentConfig config = small_config(7, 1);
  config.endpoints = 4;
  config.fleet_shards = 2;
  LeaderElectionWorkload workload(config);
  EXPECT_DEATH(workload.prepare(), "fleet");
}

}  // namespace
}  // namespace fdqos::workload
