// The chaos invariant harness (the point of the faultx subsystem).
//
// Property-style sweep: every named fault scenario × several seeds, each
// running the full 30-detector paper suite through the QoS experiment with
// the scenario's faults injected. Individual metric values under chaos are
// unconstrained — that is the point of chaos — but the structural QoS
// invariants (exp/chaos.hpp) must hold for every detector under every
// scenario, and the parallel engine must stay byte-deterministic with
// faults active. Failures name the invariant, scenario and seed.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "exp/chaos.hpp"
#include "exp/qos_experiment.hpp"
#include "exp/report.hpp"
#include "faultx/scenarios.hpp"

namespace fdqos::exp {
namespace {

constexpr std::uint64_t kSeeds[] = {7, 11, 13};

QosExperimentConfig harness_config(const std::string& scenario,
                                   std::uint64_t seed) {
  QosExperimentConfig config;
  config.chaos_scenario = scenario;
  config.seed = seed;
  config.runs = 2;
  config.num_cycles = 400;
  config.mttc = Duration::seconds(90);
  config.ttr = Duration::seconds(20);
  config.warmup = Duration::seconds(60);
  config.jobs = 2;
  return config;
}

// Serialize everything the CLI prints to stdout — the determinism check
// compares these bytes across jobs values.
std::string report_bytes(const QosReport& report) {
  std::string out = chaos_table(report).to_csv();
  for (const auto kind :
       {QosMetricKind::kTd, QosMetricKind::kTdU, QosMetricKind::kTm,
        QosMetricKind::kTmr, QosMetricKind::kPa}) {
    out += qos_metric_table(report, kind).to_csv();
  }
  return out;
}

TEST(ChaosInvariantsTest, EveryScenarioEverySeedUpholdsQosInvariants) {
  for (const auto& scenario : faultx::scenario_names()) {
    for (const std::uint64_t seed : kSeeds) {
      SCOPED_TRACE("scenario=" + scenario + " seed=" + std::to_string(seed));
      const QosReport report =
          run_qos_experiment(harness_config(scenario, seed));

      ASSERT_EQ(report.results.size(), 30u);
      EXPECT_GT(report.chaos_fault_events, 0u);
      // Each detector produced *some* samples: the faults did not silently
      // stall the experiment.
      for (const auto& r : report.results) {
        EXPECT_GT(r.metrics.crashes_observed, 0u) << r.name;
      }

      for (const auto& v : qos_invariant_violations(report)) {
        ADD_FAILURE() << "invariant [" << v.invariant << "] violated under "
                      << "scenario=" << scenario << " seed=" << seed << ": "
                      << v.detail;
      }
    }
  }
}

TEST(ChaosInvariantsTest, NominalRunAlsoUpholdsInvariants) {
  // The invariants are not chaos-specific; the nominal path must satisfy
  // them too (and this pins the checker against a quiet baseline).
  QosExperimentConfig config = harness_config("", 7);
  config.chaos_scenario.clear();
  const QosReport report = run_qos_experiment(config);
  EXPECT_EQ(report.chaos_fault_events, 0u);
  EXPECT_EQ(report.chaos_dropped, 0u);
  EXPECT_EQ(report.chaos_duplicated, 0u);
  for (const auto& v : qos_invariant_violations(report)) {
    ADD_FAILURE() << "invariant [" << v.invariant << "] violated on the "
                  << "nominal link: " << v.detail;
  }
}

TEST(ChaosInvariantsTest, ChaosReportIsByteIdenticalAcrossJobs) {
  // The acceptance bar: jobs=1 (exact serial path) and jobs=8 produce the
  // same report bytes with every fault type active (kitchen_sink), because
  // fault randomness comes from per-run substreams and the reduction is
  // ordered.
  QosExperimentConfig serial = harness_config("kitchen_sink", 7);
  serial.jobs = 1;
  QosExperimentConfig parallel = harness_config("kitchen_sink", 7);
  parallel.jobs = 8;

  const std::string serial_bytes = report_bytes(run_qos_experiment(serial));
  const std::string parallel_bytes =
      report_bytes(run_qos_experiment(parallel));
  EXPECT_EQ(serial_bytes, parallel_bytes);
  EXPECT_FALSE(serial_bytes.empty());
}

// A report whose every detector saw `crashes` crashes and resolved
// `detections` of them, pooled over `runs` runs.
QosReport crash_report(std::size_t runs, std::size_t endpoints,
                       std::uint64_t crashes, std::uint64_t detections) {
  QosReport report;
  report.config.runs = runs;
  report.config.endpoints = endpoints;
  FdQosResult result;
  result.name = "LAST+CI_low";
  result.metrics.crashes_observed = crashes;
  result.metrics.detections = detections;
  report.results.push_back(result);
  return report;
}

std::vector<std::string> crash_consistency_details(const QosReport& report) {
  std::vector<std::string> out;
  for (const auto& v : qos_invariant_violations(report)) {
    if (v.invariant == "crash-consistency") out.push_back(v.detail);
  }
  return out;
}

TEST(ChaosInvariantsTest, EveryRunMayEndMidCrash) {
  // Two runs, each ending with its last crash still pending: 3 resolved
  // of 5 observed is consistent; a third pending crash is not.
  EXPECT_TRUE(crash_consistency_details(crash_report(2, 1, 5, 3)).empty());
  EXPECT_EQ(crash_consistency_details(crash_report(2, 1, 6, 3)).size(), 1u);
  // More detections than crashes is never consistent.
  EXPECT_EQ(crash_consistency_details(crash_report(2, 1, 3, 4)).size(), 1u);
  // Fleet mode: one pending crash per endpoint per run.
  EXPECT_TRUE(crash_consistency_details(crash_report(2, 3, 9, 3)).empty());
  EXPECT_EQ(crash_consistency_details(crash_report(2, 3, 10, 3)).size(), 1u);
}

TEST(ChaosInvariantsTest, PartitionScenarioAccountsItsDrops) {
  const QosReport report =
      run_qos_experiment(harness_config("partition_heal", 7));
  // Partitions eat transport-level messages and the accounting must see
  // them (400 s run with 28 s of cuts at η=1 s ≥ a dozen heartbeats).
  EXPECT_GT(report.chaos_dropped, 0u);
  EXPECT_EQ(report.chaos_duplicated, 0u);
}

TEST(ChaosInvariantsTest, DupStormInjectsDuplicates) {
  const QosReport report = run_qos_experiment(harness_config("dup_storm", 7));
  EXPECT_GT(report.chaos_duplicated, 0u);
  // Delivered can exceed sent-by-the-heartbeater under duplication; the
  // invariant checker compares against the *link's* sent count, which
  // includes the copies — delivered ≤ sent must still hold.
  EXPECT_LE(report.heartbeats_delivered, report.heartbeats_sent);
}

}  // namespace
}  // namespace fdqos::exp
