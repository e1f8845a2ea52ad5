#include "fd/detector_bank.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <vector>

#include "fd/fleet_bank.hpp"
#include "fd/freshness_detector.hpp"
#include "fd/suite.hpp"
#include "forecast/basic_predictors.hpp"
#include "net/sim_transport.hpp"
#include "runtime/heartbeater.hpp"
#include "runtime/multiplexer.hpp"
#include "runtime/process_node.hpp"
#include "wan/delay_model.hpp"

namespace fdqos::fd {
namespace {

struct Transition {
  std::size_t lane;
  double time_s;
  bool suspect;
};

// One heartbeat stream fanned out (through the monitor's MultiPlexer) to a
// DetectorBank *and* to one legacy FreshnessDetector per lane — both
// engines observe the identical arrivals inside the same simulation.
struct Harness {
  sim::Simulator simulator;
  std::unique_ptr<net::SimTransport> transport;
  std::unique_ptr<runtime::ProcessNode> sender;
  std::unique_ptr<runtime::ProcessNode> monitor;
  // Attached unowned below the mux (like run_one does); owned here.
  std::unique_ptr<DetectorBank> bank_store;
  std::vector<std::unique_ptr<FreshnessDetector>> legacy_store;
  DetectorBank* bank = nullptr;
  std::vector<FreshnessDetector*> legacy;
  std::vector<Transition> bank_transitions;
  std::vector<Transition> legacy_transitions;

  void build(std::unique_ptr<wan::DelayModel> delay,
             const std::vector<FdSpec>& suite, std::int64_t max_cycles = 0) {
    transport = std::make_unique<net::SimTransport>(simulator, Rng(1));
    net::SimTransport::LinkConfig link;
    link.delay = std::move(delay);
    transport->set_link(0, 1, std::move(link));

    sender = std::make_unique<runtime::ProcessNode>(*transport, 0);
    runtime::HeartbeaterLayer::Config hb;
    hb.eta = Duration::seconds(1);
    hb.max_cycles = max_cycles;
    sender->push(std::make_unique<runtime::HeartbeaterLayer>(simulator, hb));

    monitor = std::make_unique<runtime::ProcessNode>(*transport, 1);
    auto& mux = monitor->push(std::make_unique<runtime::MultiPlexerLayer>());

    DetectorBank::Config bank_config;
    bank_config.eta = Duration::seconds(1);
    bank_config.monitored = 0;
    bank_config.cold_start_timeout = Duration::seconds(1);
    auto bank_ptr = std::make_unique<DetectorBank>(simulator, bank_config);
    std::size_t last_group = 0;
    std::string last_key;
    for (const auto& spec : suite) {
      if (spec.predictor_key.empty() || spec.predictor_key != last_key) {
        last_group = bank_ptr->add_group(spec.make_predictor());
        last_key = spec.predictor_key;
      }
      bank_ptr->add_lane(spec.name, last_group, spec.make_margin());
    }
    bank_ptr->set_observer([this](std::size_t lane, TimePoint t, bool s) {
      bank_transitions.push_back({lane, t.to_seconds_double(), s});
    });
    bank = bank_ptr.get();
    monitor->attach_unowned(mux, *bank);
    bank_store = std::move(bank_ptr);

    for (std::size_t i = 0; i < suite.size(); ++i) {
      FreshnessDetector::Config config;
      config.eta = Duration::seconds(1);
      config.monitored = 0;
      config.cold_start_timeout = Duration::seconds(1);
      config.name = suite[i].name;
      auto det = std::make_unique<FreshnessDetector>(
          simulator, config, suite[i].make_predictor(),
          suite[i].make_margin());
      det->set_observer([this, i](TimePoint t, bool s) {
        legacy_transitions.push_back({i, t.to_seconds_double(), s});
      });
      legacy.push_back(det.get());
      monitor->attach_unowned(mux, *det);
      legacy_store.push_back(std::move(det));
    }

    sender->start();
    monitor->start();
  }

  void run_for(Duration d) { simulator.run_until(TimePoint::origin() + d); }
};

// A per-lane view of a transition stream; cross-lane interleaving at equal
// timestamps is the one place the engines may legitimately order events
// differently, per-lane streams must match exactly.
std::vector<std::vector<Transition>> by_lane(
    const std::vector<Transition>& stream, std::size_t width) {
  std::vector<std::vector<Transition>> lanes(width);
  for (const auto& t : stream) lanes[t.lane].push_back(t);
  return lanes;
}

TEST(DetectorBankTest, MatchesIndependentDetectorsOnPaperSuite) {
  Harness h;
  const auto suite = make_paper_suite();
  h.build(std::make_unique<wan::ShiftedLognormalDelay>(Duration::millis(180),
                                                       3.0, 0.8),
          suite);
  h.run_for(Duration::seconds(120));

  ASSERT_EQ(h.bank->width(), suite.size());
  EXPECT_EQ(h.bank->group_count(), 5u);  // 5 distinct paper predictors
  for (std::size_t i = 0; i < suite.size(); ++i) {
    EXPECT_EQ(h.bank->lane_name(i), h.legacy[i]->name());
    EXPECT_EQ(h.bank->lane_suspecting(i), h.legacy[i]->suspecting()) << i;
    EXPECT_EQ(h.bank->lane_freshness_index(i), h.legacy[i]->freshness_index())
        << i;
    EXPECT_DOUBLE_EQ(h.bank->lane_delta_ms(i), h.legacy[i]->current_delta_ms())
        << i;
  }
  EXPECT_EQ(h.bank->max_seq(), h.legacy[0]->max_seq());
  EXPECT_EQ(h.bank->observations(), h.legacy[0]->observations());

  const auto bank_lanes = by_lane(h.bank_transitions, suite.size());
  const auto legacy_lanes = by_lane(h.legacy_transitions, suite.size());
  for (std::size_t i = 0; i < suite.size(); ++i) {
    ASSERT_EQ(bank_lanes[i].size(), legacy_lanes[i].size()) << suite[i].name;
    for (std::size_t k = 0; k < bank_lanes[i].size(); ++k) {
      EXPECT_DOUBLE_EQ(bank_lanes[i][k].time_s, legacy_lanes[i][k].time_s);
      EXPECT_EQ(bank_lanes[i][k].suspect, legacy_lanes[i][k].suspect);
    }
  }
}

TEST(DetectorBankTest, SharesPredictorEvaluationAcrossLanes) {
  Harness h;
  const auto suite = make_paper_suite();
  h.build(std::make_unique<wan::ConstantDelay>(Duration::millis(150)), suite);
  h.run_for(Duration::seconds(50));

  const auto& counters = h.bank->counters();
  const auto hb = static_cast<std::uint64_t>(h.bank->observations());
  // One observe() per distinct predictor per heartbeat — not per lane.
  EXPECT_EQ(counters.predictor_updates, 5u * hb);
  EXPECT_EQ(counters.lane_updates, 30u * hb);
  EXPECT_EQ(counters.dispatch_errors, 0u);
  // 30 lanes share one cycle tick (29 saved per cycle) plus whatever the
  // expiry rows avoid; never less than the structural floor.
  EXPECT_GE(counters.coalesced_timers, 29u * 49u);
  for (std::size_t g = 0; g < h.bank->group_count(); ++g) {
    EXPECT_EQ(h.bank->shared_predictor(g).observe_calls(), hb);
  }
}

TEST(DetectorBankTest, LaneObserverExceptionIsIsolated) {
  sim::Simulator simulator;
  net::SimTransport transport(simulator, Rng(1));
  net::SimTransport::LinkConfig link;
  link.delay = std::make_unique<wan::ConstantDelay>(Duration::millis(100));
  transport.set_link(0, 1, std::move(link));

  runtime::ProcessNode sender(transport, 0);
  runtime::HeartbeaterLayer::Config hb;
  hb.eta = Duration::seconds(1);
  hb.max_cycles = 5;  // stop heartbeating -> every lane eventually suspects
  sender.push(std::make_unique<runtime::HeartbeaterLayer>(simulator, hb));

  runtime::ProcessNode monitor(transport, 1);
  DetectorBank::Config config;
  config.eta = Duration::seconds(1);
  config.monitored = 0;
  auto bank_ptr = std::make_unique<DetectorBank>(simulator, config);
  for (int i = 0; i < 3; ++i) {
    const std::size_t g =
        bank_ptr->add_group(std::make_unique<forecast::LastPredictor>());
    bank_ptr->add_lane("lane" + std::to_string(i), g,
                       std::make_unique<CiSafetyMargin>(2.0));
  }
  std::vector<std::size_t> notified;
  bank_ptr->set_observer([&notified](std::size_t lane, TimePoint, bool) {
    if (lane == 1) throw std::runtime_error("lane 1 consumer is broken");
    notified.push_back(lane);
  });
  DetectorBank& bank = *bank_ptr;
  monitor.push(std::move(bank_ptr));

  sender.start();
  monitor.start();
  simulator.run_until(TimePoint::origin() + Duration::seconds(20));

  // All three lanes transitioned to suspect; the throwing middle lane was
  // contained (counted) and its siblings still heard about their own.
  EXPECT_TRUE(bank.lane_suspecting(0));
  EXPECT_TRUE(bank.lane_suspecting(1));
  EXPECT_TRUE(bank.lane_suspecting(2));
  EXPECT_EQ(notified, (std::vector<std::size_t>{0, 2}));
  EXPECT_EQ(bank.counters().dispatch_errors, 1u);
}

// The obs timer-lag gauge renders next_timer_deadline(): once a heartbeat
// makes the armed freshness check pointless, the deadline must move to the
// next check that can still raise a suspicion, and no stale timer event
// may stay armed.
TEST(DetectorBankTest, TimerDeadlineSkipsRowsKilledByAHeartbeat) {
  for (const bool hosted : {false, true}) {
    SCOPED_TRACE(hosted ? "hosted" : "solo");
    sim::Simulator simulator;
    FleetBank fleet(simulator, {});
    std::unique_ptr<DetectorBank> solo;
    DetectorBank* bank = nullptr;
    if (hosted) {
      bank = &fleet.add_member(0);
    } else {
      solo = std::make_unique<DetectorBank>(simulator, DetectorBank::Config{});
      bank = solo.get();
    }
    const std::size_t g =
        bank->add_group(std::make_unique<forecast::LastPredictor>());
    bank->add_lane("a", g, std::make_unique<ConstantSafetyMargin>(50.0));
    bank->add_lane("b", g, std::make_unique<ConstantSafetyMargin>(20.0));
    if (hosted) {
      fleet.start();
    } else {
      bank->start();
    }
    const TimePoint origin = TimePoint::origin();

    // Cold start: τ_1 = σ_1 + 1 s, checked one tick later.
    EXPECT_EQ(bank->next_timer_deadline(),
              origin + Duration::seconds(2) + Duration::nanos(1));
    // σ_1 begins cycle 1: τ_2 = σ_2 + 1 s joins, but τ_1 stays first.
    simulator.run_until(origin + Duration::millis(1100));
    EXPECT_EQ(bank->next_timer_deadline(),
              origin + Duration::seconds(2) + Duration::nanos(1));

    // Heartbeat 1 kills cycle 1's row; cycle 2's is the live front.
    bank->observe_heartbeat(1);
    EXPECT_EQ(bank->next_timer_deadline(),
              origin + Duration::seconds(3) + Duration::nanos(1));

    // σ_2 adds τ_3 = σ_3 + LAST (100 ms) + margin; the cold-start τ_2
    // stays first until heartbeat 2 kills its row. A solo bank runs only
    // its cycle tick on the way: the dead τ_1 check left no event behind.
    const std::uint64_t executed =
        simulator.run_until(origin + Duration::millis(2050));
    if (!hosted) {
      EXPECT_EQ(executed, 1u);
    }
    EXPECT_EQ(bank->next_timer_deadline(),
              origin + Duration::millis(3000) + Duration::nanos(1));
    simulator.run_until(origin + Duration::millis(2100));
    bank->observe_heartbeat(2);
    EXPECT_EQ(bank->next_timer_deadline(),
              origin + Duration::millis(3120) + Duration::nanos(1));

    // A heartbeat from the future kills every row in flight: nothing can
    // raise a suspicion, so nothing is armed.
    bank->observe_heartbeat(9);
    EXPECT_EQ(bank->next_timer_deadline(), TimePoint::max());
    if (!hosted) {
      EXPECT_EQ(simulator.pending_events(), 1u);  // σ_3's tick only
    }
    EXPECT_EQ(bank->suspecting_count(), 0u);
  }
}

TEST(DetectorBankTest, DefaultLaneNameComesFromComponents) {
  sim::Simulator simulator;
  DetectorBank bank(simulator, {});
  const std::size_t g =
      bank.add_group(std::make_unique<forecast::LastPredictor>());
  const std::size_t lane =
      bank.add_lane("", g, std::make_unique<CiSafetyMargin>(2.0));
  EXPECT_EQ(bank.lane_name(lane), "LAST+CI(2)");
}

TEST(DetectorBankDeathTest, ContractViolationsAbort) {
  sim::Simulator simulator;
  EXPECT_DEATH(DetectorBank(simulator, {Duration::zero()}), "precondition");

  DetectorBank bank(simulator, {});
  EXPECT_DEATH(bank.add_group(nullptr), "precondition");
  EXPECT_DEATH(bank.add_lane("x", /*group=*/0, nullptr), "precondition");
  EXPECT_DEATH(
      bank.add_lane("x", /*group=*/7, std::make_unique<CiSafetyMargin>(2.0)),
      "precondition");
  EXPECT_DEATH(bank.start(), "precondition");  // zero lanes

  const std::size_t g =
      bank.add_group(std::make_unique<forecast::LastPredictor>());
  bank.add_lane("x", g, std::make_unique<CiSafetyMargin>(2.0));
  bank.start();
  EXPECT_DEATH(
      bank.add_group(std::make_unique<forecast::LastPredictor>()),
      "precondition");  // assembly is sealed once started
  EXPECT_DEATH(bank.lane_name(99), "precondition");
}

}  // namespace
}  // namespace fdqos::fd
