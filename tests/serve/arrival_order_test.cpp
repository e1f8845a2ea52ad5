// serve::ingest_in_arrival_order against a one-member lite FleetBank on a
// plain Simulator: synthetic drained batches with chosen arrival instants,
// no sockets and no sleeps. A heartbeat is judged by when it arrived, not
// by when the daemon got round to draining it.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "fd/fleet_bank.hpp"
#include "fd/fleet_ingest.hpp"
#include "fd/suite.hpp"
#include "net/codec.hpp"
#include "serve/daemon.hpp"
#include "sim/simulator.hpp"
#include "wan/tracestore.hpp"

namespace fdqos::serve {
namespace {

constexpr net::NodeId kSource = 7;
const Duration kEta = Duration::millis(100);
const Duration kDelay = Duration::millis(10);
// Virtual time zero sits here on the steady clock the sender stamps on.
constexpr std::int64_t kClockBaseNs = 5'000'000'000;

TimePoint sigma(std::int64_t seq) { return TimePoint::origin() + kEta * seq; }

std::vector<std::uint8_t> heartbeat(std::int64_t seq) {
  net::Message msg;
  msg.from = kSource;
  msg.type = net::MessageType::kHeartbeat;
  msg.seq = seq;
  msg.send_time = TimePoint::from_nanos(kClockBaseNs) +
                  (sigma(seq) - TimePoint::origin());
  return net::encode_message(msg);
}

// The serve daemon's lite suite on one endpoint, with every trust/suspect
// transition recorded.
class LiteFleet {
 public:
  explicit LiteFleet(wan::RotatingFdtWriter* capture = nullptr)
      : capture_(capture) {
    fd::FleetBank::Config config;
    config.eta = kEta;
    config.cold_start_timeout = kEta;
    config.expected_endpoints = 1;
    fleet_ = std::make_unique<fd::FleetBank>(simulator_, config);
    fd::DetectorBank& member = fleet_->add_member(0);
    const std::size_t group =
        member.add_group(fd::make_paper_predictor("Last")());
    member.add_lane("Last+CI_low", group, fd::make_paper_margin("CI_low")());
    member.set_observer([this](std::size_t, TimePoint t, bool suspecting) {
      transitions_.emplace_back(t, suspecting);
    });
    fleet_->start();
    ingest_ = std::make_unique<fd::FleetIngest>(*fleet_, 1);
  }

  // Drains one datagram that arrived at `arrival`, `drain` being when the
  // daemon read it, then fires the timers up to the drain as the daemon
  // loop does after a partial batch.
  void drain_one(std::int64_t seq, TimePoint arrival, TimePoint drain) {
    const std::vector<std::uint8_t> wire = heartbeat(seq);
    const DrainedDatagram datagram{wire, arrival};
    ingest_in_arrival_order(
        {simulator_, *ingest_, capture_, kClockBaseNs, stats_}, {&datagram, 1},
        drain);
    simulator_.run_until(drain);
  }

  // Heartbeats 1..last, each drained the instant it arrives kDelay late.
  void warm_up(std::int64_t last) {
    for (std::int64_t seq = 1; seq <= last; ++seq) {
      const TimePoint at = sigma(seq) + kDelay;
      drain_one(seq, at, at);
    }
  }

  // Freshness deadline of the next heartbeat, as the detector computed it.
  TimePoint next_deadline() const {
    return fleet_->member(0).next_timer_deadline();
  }

  sim::Simulator& simulator() { return simulator_; }
  const fd::FleetBank& fleet() const { return *fleet_; }
  const ServeStats& stats() const { return stats_; }
  const std::vector<std::pair<TimePoint, bool>>& transitions() const {
    return transitions_;
  }

 private:
  sim::Simulator simulator_;
  wan::RotatingFdtWriter* capture_;
  std::unique_ptr<fd::FleetBank> fleet_;
  std::unique_ptr<fd::FleetIngest> ingest_;
  ServeStats stats_;
  std::vector<std::pair<TimePoint, bool>> transitions_;
};

TEST(ArrivalOrderedIngest, ArrivalBeforeDeadlineDrainedAfterItRaisesNothing) {
  LiteFleet fleet;
  fleet.warm_up(20);
  ASSERT_TRUE(fleet.transitions().empty());
  const TimePoint deadline = fleet.next_deadline();
  ASSERT_GT(deadline, fleet.simulator().now());
  ASSERT_LT(deadline, TimePoint::max());

  fleet.drain_one(21, deadline - Duration::micros(1), deadline + kEta / 500);

  EXPECT_TRUE(fleet.transitions().empty());
  EXPECT_EQ(fleet.fleet().suspecting_count(), 0u);
  EXPECT_EQ(fleet.fleet().counters().heartbeats, 21u);
  EXPECT_EQ(fleet.simulator().now(), deadline + kEta / 500);
}

TEST(ArrivalOrderedIngest, LateArrivalSuspectsAtDeadlineAndTrustsAtArrival) {
  LiteFleet fleet;
  fleet.warm_up(20);
  const TimePoint deadline = fleet.next_deadline();
  const TimePoint arrival = deadline + Duration::millis(1);

  fleet.drain_one(21, arrival, arrival + Duration::millis(2));

  ASSERT_EQ(fleet.transitions().size(), 2u);
  EXPECT_EQ(fleet.transitions()[0], std::make_pair(deadline, true));
  EXPECT_EQ(fleet.transitions()[1], std::make_pair(arrival, false));
  EXPECT_EQ(fleet.fleet().suspecting_count(), 0u);
}

TEST(ArrivalOrderedIngest, CapturedDelayIsArrivalMinusSendTime) {
  wan::RotatingFdtWriter::Options options;
  options.directory = testing::TempDir();
  options.prefix = "arrival-order-capture";
  wan::RotatingFdtWriter capture(options);
  ASSERT_TRUE(capture.ok()) << capture.error();
  LiteFleet fleet(&capture);
  // Drained 30 ms after it arrived 7 ms after it was sent.
  const TimePoint arrival = sigma(1) + Duration::millis(7);
  fleet.drain_one(1, arrival, arrival + Duration::millis(30));
  ASSERT_TRUE(capture.finalize());
  EXPECT_EQ(fleet.stats().captured, 1u);

  ASSERT_EQ(capture.segments().size(), 1u);
  const auto loaded = wan::load_trace(capture.segments()[0]);
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  ASSERT_EQ(loaded.trace->size(), 1u);
  EXPECT_EQ(loaded.trace->send_times[0], sigma(1));
  EXPECT_EQ(loaded.trace->delays[0], Duration::millis(7));
}

TEST(ArrivalOrderedIngest, ArrivalsClampIntoSimulatorNowAndDrain) {
  wan::RotatingFdtWriter::Options options;
  options.directory = testing::TempDir();
  options.prefix = "arrival-order-clamp";
  wan::RotatingFdtWriter capture(options);
  ASSERT_TRUE(capture.ok()) << capture.error();
  LiteFleet fleet(&capture);
  fleet.simulator().run_until(sigma(1) + Duration::millis(20));
  const TimePoint now = fleet.simulator().now();
  // Stamped before the simulator's now (a backward clock step): taken at
  // now, never moving the simulator back.
  fleet.drain_one(1, now - Duration::millis(15), now);
  // Stamped past the drain (a forward step): taken at the drain.
  const TimePoint drain = now + Duration::millis(100);
  fleet.drain_one(2, drain + Duration::millis(50), drain);
  ASSERT_TRUE(capture.finalize());

  ASSERT_EQ(capture.segments().size(), 1u);
  const auto loaded = wan::load_trace(capture.segments()[0]);
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  ASSERT_EQ(loaded.trace->size(), 2u);
  EXPECT_EQ(loaded.trace->delays[0], now - sigma(1));
  EXPECT_EQ(loaded.trace->delays[1], drain - sigma(2));
  EXPECT_EQ(fleet.simulator().now(), drain);
}

}  // namespace
}  // namespace fdqos::serve
