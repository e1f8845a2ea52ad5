// Randomized property tests over the full detector stack.
//
// Invariants checked across seeds and detector configurations:
//  P1  suspicion state always equals (max_seq < freshness_index) — the
//      paper's §2.3 trust condition, continuously.
//  P2  every crash is eventually detected (TTR >> timeout), and suspicion
//      holds from detection until restore (+ one heartbeat RTT).
//  P3  transitions strictly alternate and carry non-decreasing timestamps.
//  P4  the detector timeout δ stays within physical bounds: positive and
//      below the largest observed delay + margin headroom.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "fd/freshness_detector.hpp"
#include "fd/suite.hpp"
#include "net/sim_transport.hpp"
#include "runtime/heartbeater.hpp"
#include "runtime/multiplexer.hpp"
#include "runtime/process_node.hpp"
#include "runtime/sim_crash.hpp"
#include "wan/italy_japan.hpp"

namespace fdqos {
namespace {

struct PropertyParam {
  std::uint64_t seed;
  const char* predictor;
  const char* margin;
};

class DetectorPropertyTest
    : public ::testing::TestWithParam<
          std::tuple<std::uint64_t, std::string, std::string>> {};

TEST_P(DetectorPropertyTest, InvariantsHoldUnderRandomWorkload) {
  const auto [seed, pred_label, margin_label] = GetParam();

  sim::Simulator simulator;
  Rng rng(seed);
  net::SimTransport transport(simulator, rng.fork("net"));
  net::SimTransport::LinkConfig link;
  link.delay = wan::make_italy_japan_delay();
  link.loss = wan::make_italy_japan_loss();
  transport.set_link(0, 1, std::move(link));

  runtime::ProcessNode monitored(transport, 0);
  auto& crash = monitored.push(std::make_unique<runtime::SimCrashLayer>(
      simulator,
      runtime::SimCrashLayer::Config{Duration::seconds(100),
                                     Duration::seconds(20)},
      rng.fork("crash")));
  runtime::HeartbeaterLayer::Config hb;
  hb.eta = Duration::seconds(1);
  monitored.push(std::make_unique<runtime::HeartbeaterLayer>(simulator, hb));

  runtime::ProcessNode monitor(transport, 1);
  fd::FreshnessDetector::Config config;
  config.eta = Duration::seconds(1);
  config.monitored = 0;
  auto& detector = monitor.push(std::make_unique<fd::FreshnessDetector>(
      simulator, config, fd::make_paper_predictor(pred_label)(),
      fd::make_paper_margin(margin_label)()));

  struct Transition {
    TimePoint time;
    bool suspect;
  };
  std::vector<Transition> transitions;
  detector.set_observer([&](TimePoint t, bool s) {
    transitions.push_back({t, s});
    // P1 at every transition instant.
    EXPECT_EQ(s, detector.max_seq() < detector.freshness_index());
  });

  std::vector<std::pair<TimePoint, bool>> crash_log;
  crash.set_observer(
      [&](TimePoint t, bool crashed) { crash_log.emplace_back(t, crashed); });

  monitored.start();
  monitor.start();

  // Run in slices and check P1/P4 at arbitrary instants, not only at
  // transitions.
  const Duration slice = Duration::millis(1700);
  TimePoint now = TimePoint::origin();
  const TimePoint end = TimePoint::origin() + Duration::seconds(900);
  while (now < end) {
    now += slice;
    simulator.run_until(now);
    EXPECT_EQ(detector.suspecting(),
              detector.max_seq() < detector.freshness_index());  // P1
    const double delta = detector.current_delta_ms();            // P4
    EXPECT_GE(delta, 0.0);
    EXPECT_LE(delta, 340.0 + 4.0 * 340.0);  // max delay + max margin headroom
  }

  // P3: alternation and monotonic times.
  for (std::size_t i = 0; i < transitions.size(); ++i) {
    if (i > 0) {
      EXPECT_NE(transitions[i].suspect, transitions[i - 1].suspect) << i;
      EXPECT_GE(transitions[i].time, transitions[i - 1].time) << i;
    }
  }

  // P2: for every completed crash period, some suspicion started within it
  // and no un-suspicion happened between that start and the restore.
  std::size_t detected = 0;
  for (std::size_t c = 0; c + 1 < crash_log.size(); c += 2) {
    ASSERT_TRUE(crash_log[c].second);
    const TimePoint down = crash_log[c].first;
    const TimePoint up = crash_log[c + 1].first;
    // Find the last transition at or before `up`.
    bool state_at_restore = false;
    for (const auto& tr : transitions) {
      if (tr.time <= up) state_at_restore = tr.suspect;
    }
    // TTR = 20 s dwarfs every timeout here, so suspicion must hold at
    // restore (in-flight heartbeats can defer but not prevent it).
    EXPECT_TRUE(state_at_restore)
        << "crash at " << down.to_seconds_double() << " not detected";
    if (state_at_restore) ++detected;
  }
  EXPECT_GE(detected, 3u);  // the workload actually exercised crashes
}

INSTANTIATE_TEST_SUITE_P(
    SeedsTimesConfigs, DetectorPropertyTest,
    ::testing::Combine(::testing::Values<std::uint64_t>(11, 23, 47),
                       ::testing::Values(std::string{"Last"},
                                         std::string{"Arima"},
                                         std::string{"WinMean"}),
                       ::testing::Values(std::string{"CI_low"},
                                         std::string{"JAC_high"})),
    // Labels are strings, not pointers, so the printed parameter (which
    // ctest's test discovery puts in the test name) is stable across runs.
    [](const auto& info) {
      return "seed" + std::to_string(std::get<0>(info.param)) + "_" +
             std::get<1>(info.param) + "_" + std::get<2>(info.param);
    });

TEST(SimulatorStressTest, MillionEventsReproducible) {
  auto run_once = [] {
    sim::Simulator simulator;
    Rng rng(123);
    std::uint64_t checksum = 0;
    // Self-replicating event cascade with random fan-out.
    std::function<void(int)> spawn = [&](int depth) {
      checksum = checksum * 1315423911u + simulator.now().count_nanos() %
                                              1000003u;
      if (depth <= 0) return;
      const int fan = static_cast<int>(rng.uniform_int(0, 2));
      for (int i = 0; i < fan; ++i) {
        simulator.schedule_after(
            Duration::micros(rng.uniform_int(1, 5000)),
            [&spawn, depth] { spawn(depth - 1); });
      }
    };
    for (int i = 0; i < 2000; ++i) {
      simulator.schedule_after(Duration::micros(rng.uniform_int(0, 100000)),
                               [&spawn] { spawn(18); });
    }
    simulator.run();
    return std::make_pair(simulator.executed_events(), checksum);
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a, b);
  EXPECT_GT(a.first, 10000u);
}

}  // namespace
}  // namespace fdqos
