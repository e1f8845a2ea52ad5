// PDES determinism suite: the conservative parallel engine (--sim-engine lp)
// must reproduce the sequential reference byte for byte — same report
// fingerprint at every LP count, every worker count and every seed, for the
// nominal experiment, for chaos (clock_step exercises the faultx lookahead
// shrink) and for trace replay. Runs under `ctest -L pdes` (and the TSan CI
// job, where the cross-LP handoffs are also race-checked).
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "exp/qos_experiment.hpp"
#include "exp/report.hpp"
#include "fd/suite.hpp"
#include "wan/italy_japan.hpp"
#include "wan/tracestore.hpp"

namespace fdqos::exp {
namespace {

constexpr std::uint64_t kSeeds[] = {7, 11, 13};
constexpr std::size_t kLpCounts[] = {1, 2, 8};
constexpr std::size_t kJobCounts[] = {1, 8};

// Reduced-scale config: short runs but with crashes guaranteed to be
// frequent relative to the horizon, so the detection/mistake tables carry
// real samples and a divergence anywhere in the pipeline changes bytes.
QosExperimentConfig small_config(std::uint64_t seed) {
  QosExperimentConfig config;
  config.runs = 2;
  config.num_cycles = 300;
  config.seed = seed;
  config.mttc = Duration::seconds(120);
  config.ttr = Duration::seconds(20);
  config.warmup = Duration::seconds(30);
  config.jobs = 1;
  return config;
}

std::string fingerprint(const QosExperimentConfig& config) {
  return qos_report_fingerprint(run_qos_experiment(config));
}

// For one base config: take the sequential fingerprint, then sweep the LP
// engine over the full lps × lp_jobs grid and demand byte identity.
void expect_lp_matches_seq(const QosExperimentConfig& base) {
  QosExperimentConfig seq = base;
  seq.sim_engine = SimEngine::kSeq;
  const std::string reference = fingerprint(seq);
  ASSERT_FALSE(reference.empty());

  for (const std::size_t lps : kLpCounts) {
    for (const std::size_t lp_jobs : kJobCounts) {
      QosExperimentConfig lp = base;
      lp.sim_engine = SimEngine::kLp;
      lp.lps = lps;
      lp.lp_jobs = lp_jobs;
      EXPECT_EQ(fingerprint(lp), reference)
          << "lp engine diverged from seq at lps=" << lps
          << " lp_jobs=" << lp_jobs << " seed=" << base.seed
          << " chaos=" << base.chaos_scenario
          << " trace=" << base.trace_path;
    }
  }
}

TEST(PdesDeterminismTest, QosMatchesSequentialAcrossLpsJobsSeeds) {
  for (const std::uint64_t seed : kSeeds) {
    expect_lp_matches_seq(small_config(seed));
  }
}

TEST(PdesDeterminismTest, ChaosClockStepMatchesSequential) {
  // clock_step makes the monitored clock jump forward: FaultyDelay's floor
  // shrinks by max_clock_advance() and the engine must stay conservative
  // (an optimistic lookahead here shows up as a byte diff or a debug
  // assert, and as a race under TSan).
  for (const std::uint64_t seed : kSeeds) {
    QosExperimentConfig config = small_config(seed);
    config.chaos_scenario = "clock_step";
    expect_lp_matches_seq(config);
  }
}

TEST(PdesDeterminismTest, TraceReplayMatchesSequential) {
  // A trace captured the way `fdqos record` does it: the paper-default
  // link model sampled once per heartbeat cycle.
  auto hub = std::make_shared<wan::TraceRecorderHub>();
  wan::RecordingDelay model(wan::make_italy_japan_delay(), hub, /*key=*/0);
  Rng rng(99);
  TimePoint t = TimePoint::origin();
  for (std::size_t i = 0; i < 400; ++i, t += Duration::seconds(1)) {
    model.sample(rng, t);
  }
  const std::string path = ::testing::TempDir() + "/pdes_replay.fdt";
  ASSERT_TRUE(save_trace_fdt(hub->merged(), path));

  for (const std::uint64_t seed : kSeeds) {
    QosExperimentConfig config = small_config(seed);
    config.trace_path = path;
    config.replay_policy = wan::ReplayPolicy::kTruncate;
    expect_lp_matches_seq(config);
  }
  std::remove(path.c_str());
}

TEST(PdesDeterminismTest, OuterAndInnerParallelismCompose) {
  // Both nesting levels at once: concurrent runs (jobs) each driving a
  // multi-worker LP engine (lp_jobs). Still byte-identical to fully-serial.
  QosExperimentConfig serial = small_config(7);
  serial.runs = 4;
  const std::string reference = fingerprint(serial);

  QosExperimentConfig nested = serial;
  nested.jobs = 4;
  nested.sim_engine = SimEngine::kLp;
  nested.lps = 4;
  nested.lp_jobs = 2;
  EXPECT_EQ(fingerprint(nested), reference);
}

TEST(PdesDeterminismTest, LegacyDetectorEngineAlsoMatches) {
  // The paper suite with every predictor_key cleared: no predictor is
  // shared, so every lane is its own group and the LP engine shards lane by
  // lane — the layout the retired per-spec detector engine had. The
  // deferred-tracker merge must not care.
  QosExperimentConfig seq = small_config(11);
  seq.include_paper_suite = false;
  seq.extra_specs = fd::make_paper_suite(seq.params);
  for (auto& spec : seq.extra_specs) spec.predictor_key.clear();
  const std::string reference = fingerprint(seq);
  // Unshared predictors behave exactly like shared ones.
  EXPECT_EQ(reference, fingerprint(small_config(11)));

  QosExperimentConfig lp = seq;
  lp.sim_engine = SimEngine::kLp;
  lp.lps = 8;
  lp.lp_jobs = 8;
  EXPECT_EQ(fingerprint(lp), reference);
}

TEST(PdesDeterminismTest, LpEngineReportsCoordinatorCounters) {
  QosExperimentConfig config = small_config(7);
  config.sim_engine = SimEngine::kLp;
  config.lps = 4;
  config.lp_jobs = 1;
  const QosReport report = run_qos_experiment(config);
  // Observability-only fields: populated under kLp...
  EXPECT_GT(report.sim_rounds, 0u);
  EXPECT_GT(report.sim_cross_lp_messages, 0u);
  // ...and absent from the fingerprint (asserted structurally above by the
  // seq-vs-lp identity; here just pin the seq side to zero).
  QosExperimentConfig seq = small_config(7);
  const QosReport seq_report = run_qos_experiment(seq);
  EXPECT_EQ(seq_report.sim_rounds, 0u);
  EXPECT_EQ(seq_report.sim_cross_lp_messages, 0u);
}

}  // namespace
}  // namespace fdqos::exp
