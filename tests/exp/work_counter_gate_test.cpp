// Work-counter gate: exact engine counts for a small fixed-seed paper
// experiment, so a change that makes the detector engine do more work
// fails here on any machine — counters, never wall time.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "exp/qos_experiment.hpp"
#include "fd/fleet_bank.hpp"
#include "fd/suite.hpp"
#include "sim/simulator.hpp"

namespace fdqos::exp {
namespace {

QosExperimentConfig gate_config() {
  QosExperimentConfig config;
  config.runs = 2;
  config.num_cycles = 400;
  config.seed = 42;
  config.jobs = 1;
  config.mttc = Duration::seconds(90);
  config.ttr = Duration::seconds(20);
  return config;
}

TEST(WorkCounterGateTest, PaperSuiteEngineCounts) {
  const QosReport report = run_qos_experiment(gate_config());
  const fd::DetectorBank::Counters& bank = report.bank;
  const std::uint64_t heartbeats = report.heartbeats_delivered;
  ASSERT_EQ(report.results.size(), 30u);
  ASSERT_GT(heartbeats, 0u);

  // One observe() per distinct predictor (5) and one margin pass per lane
  // (30) per heartbeat.
  EXPECT_EQ(bank.predictor_updates, 5 * heartbeats);
  EXPECT_EQ(bank.lane_updates, 30 * heartbeats);
  EXPECT_EQ(bank.dispatch_errors, 0u);

  // Only freshness checks of cycles still waiting for their heartbeat arm
  // a timer. One event per lane per cycle would be 2 runs × 400 cycles ×
  // 30 lanes = 24 000; the pinned figure is what the expiry rows fire at
  // this seed (mostly the 30 per cycle of a crashed sender).
  constexpr std::uint64_t kTimerEventsPinned = 6887;
  EXPECT_LE(bank.timer_events, kTimerEventsPinned);
  EXPECT_LT(bank.timer_events, 2u * 400u * 30u / 3u);
}

TEST(WorkCounterGateTest, FleetBytesPerEndpointDoNotGrow) {
  // 64 members running the paper suite, five cycles in: the figure the
  // bytes_per_endpoint benchmark metric reports. 1103 B is the footprint
  // of the expiry-heap engine these rows replaced.
  constexpr std::size_t kEndpoints = 64;
  constexpr std::size_t kBytesPerEndpointCeiling = 1103;
  sim::Simulator simulator;
  fd::FleetBank::Config config;
  config.expected_endpoints = kEndpoints;
  fd::FleetBank fleet(simulator, config);
  const auto suite = fd::make_paper_suite();
  for (std::size_t e = 0; e < kEndpoints; ++e) {
    fd::DetectorBank& member = fleet.add_member(static_cast<net::NodeId>(e));
    std::size_t group = 0;
    std::string key;
    for (const auto& spec : suite) {
      if (spec.predictor_key != key) {
        group = member.add_group(spec.make_predictor());
        key = spec.predictor_key;
      }
      member.add_lane(spec.name, group, spec.make_margin());
    }
  }
  fleet.start();
  simulator.run_until(TimePoint::origin() + Duration::seconds(5));
  EXPECT_LE(fleet.memory_bytes() / kEndpoints, kBytesPerEndpointCeiling);
}

}  // namespace
}  // namespace fdqos::exp
