// Identity contract of the Workload refactor (ISSUE 9): splitting
// QosExperiment into the run_workload() harness + QosWorkload must not
// change a single byte of the report. The matrix pins the refactored path
// against itself across seeds x job counts (the fingerprint
// folds every rendered table, so equal fingerprints mean equal stdout),
// and pins the run_qos_experiment() facade against driving the workload
// object by hand through the registry.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "exp/qos_experiment.hpp"
#include "exp/qos_workload.hpp"
#include "exp/report.hpp"
#include "exp/workload.hpp"
#include "workload/leader_election.hpp"

namespace fdqos::exp {
namespace {

QosExperimentConfig small_config(std::uint64_t seed, std::size_t jobs) {
  QosExperimentConfig config;
  config.runs = 2;
  config.num_cycles = 500;
  config.seed = seed;
  config.jobs = jobs;
  return config;
}

std::string fingerprint_for(const QosExperimentConfig& config) {
  const QosReport report = run_qos_experiment(config);
  return qos_report_fingerprint(report);
}

TEST(QosWorkloadIdentityTest, FingerprintMatrixAcrossSeedsEnginesJobs) {
  for (const std::uint64_t seed : {7ull, 11ull, 13ull}) {
    const std::string baseline = fingerprint_for(small_config(seed, 1));
    ASSERT_FALSE(baseline.empty());
    EXPECT_EQ(baseline, fingerprint_for(small_config(seed, 8)))
        << "seed " << seed << " jobs 8";
  }
}

TEST(QosWorkloadIdentityTest, ChaosScenarioMatrixAcrossEnginesJobs) {
  // The same identity under a faultx scenario: the chaos run path goes
  // through the identical workload, so scenario runs must hold the
  // jobs byte-identity too (this is what keeps the chaos goldens valid
  // after the refactor).
  for (const std::uint64_t seed : {7ull, 13ull}) {
    QosExperimentConfig base = small_config(seed, 1);
    base.chaos_scenario = "burst_loss";
    const std::string baseline = fingerprint_for(base);
    QosExperimentConfig config = small_config(seed, 8);
    config.chaos_scenario = "burst_loss";
    EXPECT_EQ(baseline, fingerprint_for(config))
        << "seed " << seed << " jobs 8";
  }
}

TEST(QosWorkloadIdentityTest, FacadeHarnessAndRegistryAgree) {
  const QosExperimentConfig config = small_config(11, 2);

  // The legacy facade (what `fdqos qos` calls).
  const std::string via_facade = qos_report_fingerprint(
      run_qos_experiment(config));

  // Driving the workload object directly through the harness.
  QosWorkload direct(config);
  run_workload(direct);
  EXPECT_EQ(via_facade, qos_report_fingerprint(direct.report()));

  // And through the name registry (what `fdqos workload --name qos` does).
  workload::register_builtin_workloads();
  std::unique_ptr<Workload> named = make_workload("qos", config);
  ASSERT_NE(named, nullptr);
  run_workload(*named);
  auto* as_qos = dynamic_cast<QosWorkload*>(named.get());
  ASSERT_NE(as_qos, nullptr);
  EXPECT_EQ(via_facade, qos_report_fingerprint(as_qos->report()));
}

TEST(QosWorkloadIdentityTest, RegistryListsBuiltinsAndRejectsUnknown) {
  workload::register_builtin_workloads();
  workload::register_builtin_workloads();  // idempotent
  const auto names = workload_names();
  ASSERT_EQ(names.size(), 2u);
  // Ordered registry: the listing never depends on registration order.
  EXPECT_EQ(names[0], "leader-election");
  EXPECT_EQ(names[1], "qos");
  EXPECT_EQ(make_workload("no_such_workload", QosExperimentConfig{}), nullptr);
}

TEST(QosWorkloadIdentityTest, SectionOrderIsFixed) {
  // Report sections are part of the determinism contract: same titles, in
  // the same order, at any job count.
  QosExperimentConfig config = small_config(7, 1);
  config.chaos_scenario = "burst_loss";
  QosWorkload serial(config);
  run_workload(serial);
  config.jobs = 8;
  QosWorkload parallel(config);
  run_workload(parallel);
  const auto a = serial.report_sections();
  const auto b = parallel.report_sections();
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.size(), 7u);  // chaos + 5 metric figures + totals
  EXPECT_EQ(a.front().title, "chaos");
  EXPECT_EQ(a.back().title, "totals");
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].title, b[i].title) << i;
    EXPECT_EQ(a[i].table.to_csv(), b[i].table.to_csv()) << a[i].title;
  }
}

}  // namespace
}  // namespace fdqos::exp
