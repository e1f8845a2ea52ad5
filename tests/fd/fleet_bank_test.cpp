// Fleet equivalence suite (`ctest -L fleet`): the FleetBank engine must be
// observably identical to M independent single-endpoint experiments — per
// endpoint, byte-for-byte. Endpoint e of a fleet run seeded S equals a
// standalone run seeded fleet_endpoint_seed(S, e): same rendered report
// (all five figures plus crash/heartbeat tallies, via
// fleet_endpoint_view()), same nanosecond-exact suspect-transition streams.
// The matrix pins seeds {7, 11, 13} × {nominal, spike_storm, burst_loss}
// at shards {1, 4, 7}, plus jobs = 1 ≡ jobs = 8 and the M = 1 identity (a
// forced 1-endpoint fleet reproduces the plain engine's bytes at every
// jobs value).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "exp/qos_experiment.hpp"
#include "exp/report.hpp"

namespace fdqos::exp {
namespace {

// The paper suite is 5 predictors × 6 margins; the fleet detector index is
// endpoint·width + lane.
constexpr std::size_t kSuiteWidth = 30;

struct Event {
  std::size_t lane;
  std::int64_t t_ns;
  bool suspect;

  bool operator==(const Event&) const = default;
};

// Fleet transition streams keyed by (run, endpoint). Shards of one run
// execute concurrently, but a shard owns a contiguous endpoint block and
// per-(run, endpoint) streams are single-threaded, so pre-sized
// per-(run, endpoint) vectors race nowhere.
struct FleetCapture {
  std::size_t endpoints;
  std::vector<std::vector<Event>> streams;  // run-major: run·M + endpoint

  FleetCapture(std::size_t runs, std::size_t endpoints_)
      : endpoints(endpoints_), streams(runs * endpoints_) {}

  auto probe() {
    return [this](std::size_t run, std::size_t detector, TimePoint t,
                  bool suspecting) {
      streams[run * endpoints + detector / kSuiteWidth].push_back(
          {detector % kSuiteWidth, t.count_nanos(), suspecting});
    };
  }

  const std::vector<Event>& at(std::size_t run, std::size_t e) const {
    return streams[run * endpoints + e];
  }
};

QosExperimentConfig base_config(std::uint64_t seed,
                                const std::string& scenario) {
  QosExperimentConfig config;
  config.runs = 1;
  config.num_cycles = 200;
  config.seed = seed;
  config.mttc = Duration::seconds(90);
  config.ttr = Duration::seconds(20);
  config.warmup = Duration::seconds(60);
  config.chaos_scenario = scenario;
  config.jobs = 1;
  return config;
}

class FleetEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::string>> {
};

TEST_P(FleetEquivalenceTest, FleetEqualsStandaloneEndpointsAtEveryShardCount) {
  const auto [seed, scenario] = GetParam();
  constexpr std::size_t kEndpoints = 7;

  QosExperimentConfig fleet = base_config(seed, scenario);
  fleet.endpoints = kEndpoints;
  fleet.fleet_shards = 4;
  FleetCapture fleet_capture(fleet.runs, kEndpoints);
  fleet.transition_probe = fleet_capture.probe();
  const QosReport fleet_report = run_qos_experiment(fleet);

  ASSERT_EQ(fleet_report.endpoint_results.size(), kEndpoints);
  ASSERT_EQ(fleet_report.endpoint_crashes.size(), kEndpoints);

  // Per endpoint: the fleet's slice reproduces a standalone run seeded with
  // the endpoint's derived seed — report bytes and transition streams.
  for (std::size_t e = 0; e < kEndpoints; ++e) {
    QosExperimentConfig solo =
        base_config(fleet_endpoint_seed(seed, e), scenario);
    FleetCapture solo_capture(solo.runs, 1);
    solo.transition_probe = solo_capture.probe();
    const QosReport solo_report = run_qos_experiment(solo);

    const QosReport view = fleet_endpoint_view(fleet_report, e);
    EXPECT_EQ(qos_report_fingerprint(view), qos_report_fingerprint(solo_report))
        << "endpoint " << e;
    // The rewritten view config describes exactly the standalone run.
    EXPECT_EQ(qos_config_summary(view.config), qos_config_summary(solo))
        << "endpoint " << e;
    for (std::size_t run = 0; run < fleet.runs; ++run) {
      EXPECT_EQ(fleet_capture.at(run, e), solo_capture.at(run, 0))
          << "endpoint " << e << " run " << run;
    }
  }

  // Fleet tallies are exactly the per-endpoint tallies, summed.
  std::uint64_t crashes = 0, sent = 0, delivered = 0;
  for (std::size_t e = 0; e < kEndpoints; ++e) {
    crashes += fleet_report.endpoint_crashes[e];
    sent += fleet_report.endpoint_hb_sent[e];
    delivered += fleet_report.endpoint_hb_delivered[e];
  }
  EXPECT_EQ(crashes, fleet_report.total_crashes);
  EXPECT_EQ(sent, fleet_report.heartbeats_sent);
  EXPECT_EQ(delivered, fleet_report.heartbeats_delivered);

  // The shard tick and shard timer actually coalesced member events, and
  // every delivered heartbeat went through the fleet's routed fast path.
  EXPECT_GT(fleet_report.fleet.coalesced_events, 0u);
  EXPECT_EQ(fleet_report.fleet.heartbeats, fleet_report.heartbeats_delivered);
  EXPECT_EQ(fleet_report.fleet.malformed, 0u);
  EXPECT_EQ(fleet_report.fleet.unroutable, 0u);

  // Shard-count invariance: 1 (everything on one shard) and 7 (one
  // endpoint per shard) produce the same bytes and the same streams as 4.
  const std::string fingerprint4 = qos_report_fingerprint(fleet_report);
  for (const std::size_t shards : {std::size_t{1}, std::size_t{7}}) {
    QosExperimentConfig again = fleet;
    again.fleet_shards = shards;
    FleetCapture again_capture(again.runs, kEndpoints);
    again.transition_probe = again_capture.probe();
    const QosReport again_report = run_qos_experiment(again);
    EXPECT_EQ(qos_report_fingerprint(again_report), fingerprint4)
        << "shards " << shards;
    EXPECT_EQ(again_capture.streams, fleet_capture.streams)
        << "shards " << shards;
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsTimesScenarios, FleetEquivalenceTest,
    ::testing::Combine(::testing::Values(std::uint64_t{7}, std::uint64_t{11},
                                         std::uint64_t{13}),
                       ::testing::Values(std::string{},  // nominal link
                                         std::string{"spike_storm"},
                                         std::string{"burst_loss"})),
    [](const auto& info) {
      const std::string& scenario = std::get<1>(info.param);
      return "seed" + std::to_string(std::get<0>(info.param)) + "_" +
             (scenario.empty() ? "nominal" : scenario);
    });

// The fleet engine is jobs-invariant (it parallelizes over a flattened
// (run, shard) grid; the merge happens in deterministic order).
TEST(FleetParallelismTest, JobsInvariant) {
  QosExperimentConfig config = base_config(7, "burst_loss");
  config.runs = 2;
  config.endpoints = 5;
  config.fleet_shards = 3;
  FleetCapture serial_capture(config.runs, config.endpoints);
  config.transition_probe = serial_capture.probe();
  const QosReport serial = run_qos_experiment(config);

  config.jobs = 8;
  FleetCapture parallel_capture(config.runs, config.endpoints);
  config.transition_probe = parallel_capture.probe();
  const QosReport parallel = run_qos_experiment(config);

  EXPECT_EQ(qos_report_fingerprint(serial), qos_report_fingerprint(parallel));
  EXPECT_EQ(serial_capture.streams, parallel_capture.streams);
}

// M = 1 identity: a forced 1-endpoint fleet reports byte-identically to the
// plain single-endpoint engine at every jobs value.
TEST(FleetIdentityTest, SingleEndpointFleetMatchesPlainEngineEverywhere) {
  QosExperimentConfig plain = base_config(7, "burst_loss");
  plain.runs = 2;
  FleetCapture plain_capture(plain.runs, 1);
  plain.transition_probe = plain_capture.probe();
  const QosReport plain_report = run_qos_experiment(plain);
  const std::string plain_fingerprint = qos_report_fingerprint(plain_report);

  for (const std::size_t jobs : {std::size_t{1}, std::size_t{8}}) {
    QosExperimentConfig fleet = base_config(7, "burst_loss");
    fleet.runs = 2;
    fleet.force_fleet_engine = true;
    fleet.jobs = jobs;
    FleetCapture fleet_capture(fleet.runs, 1);
    fleet.transition_probe = fleet_capture.probe();
    const QosReport fleet_report = run_qos_experiment(fleet);
    EXPECT_EQ(qos_report_fingerprint(fleet_report), plain_fingerprint)
        << "jobs " << jobs;
    EXPECT_EQ(fleet_capture.streams, plain_capture.streams) << "jobs " << jobs;
    // The single endpoint's view is the whole report.
    EXPECT_EQ(qos_report_fingerprint(fleet_endpoint_view(fleet_report, 0)),
              plain_fingerprint);
  }
}

// The endpoint-seed ladder itself: endpoint 0 IS the experiment seed (the
// M = 1 identity depends on it), every other endpoint gets a distinct
// derived stream.
TEST(FleetSeedTest, EndpointZeroKeepsTheExperimentSeed) {
  EXPECT_EQ(fleet_endpoint_seed(42, 0), 42u);
  EXPECT_EQ(fleet_endpoint_seed(7, 0), 7u);
  EXPECT_NE(fleet_endpoint_seed(42, 1), 42u);
  EXPECT_NE(fleet_endpoint_seed(42, 1), fleet_endpoint_seed(42, 2));
  EXPECT_NE(fleet_endpoint_seed(42, 1), fleet_endpoint_seed(43, 1));
}

}  // namespace
}  // namespace fdqos::exp
