// Unit coverage for the conservative parallel simulation core: horizon
// arithmetic and the min-plus closure, deterministic mailbox tie-breaking,
// the zero-lookahead stall rule, window capping, and the DelayModel
// min_delay() contract the channel lookaheads are derived from (including
// the faultx clock-jump shrink).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/time.hpp"
#include "faultx/fault_models.hpp"
#include "faultx/fault_schedule.hpp"
#include "sim/horizon.hpp"
#include "sim/lp.hpp"
#include "sim/parallel_simulator.hpp"
#include "wan/delay_model.hpp"
#include "wan/italy_japan.hpp"
#include "wan/tracestore.hpp"

namespace fdqos::sim {
namespace {

TEST(SaturatingAddTest, SaturatesAtMax) {
  EXPECT_EQ(saturating_add(TimePoint::max(), Duration::seconds(1)),
            TimePoint::max());
  EXPECT_EQ(saturating_add(TimePoint::max() - Duration::nanos(1),
                           Duration::seconds(5)),
            TimePoint::max());
  EXPECT_EQ(saturating_add(TimePoint::origin(), Duration::seconds(1)),
            TimePoint::origin() + Duration::seconds(1));
}

TEST(ChannelGraphTest, DirectLookaheadKeepsMinimum) {
  ChannelGraph graph(2);
  graph.set_lookahead(0, 1, Duration::millis(10));
  graph.set_lookahead(0, 1, Duration::millis(4));
  graph.set_lookahead(0, 1, Duration::millis(7));
  graph.finalize();
  EXPECT_EQ(graph.path_lookahead(0, 1), Duration::millis(4));
  EXPECT_FALSE(graph.has_path(1, 0));
  EXPECT_EQ(graph.path_lookahead(1, 0), Duration::max());
}

TEST(ChannelGraphTest, ClosureComposesPaths) {
  // 0→1 (5ms), 1→2 (7ms), and a worse direct 0→2 (20ms): the closure must
  // pick the relayed 12ms bound, or a message forwarded through LP1 could
  // arrive below LP2's horizon.
  ChannelGraph graph(3);
  graph.set_lookahead(0, 1, Duration::millis(5));
  graph.set_lookahead(1, 2, Duration::millis(7));
  graph.set_lookahead(0, 2, Duration::millis(20));
  graph.finalize();
  EXPECT_EQ(graph.path_lookahead(0, 2), Duration::millis(12));
  EXPECT_EQ(graph.path_lookahead(0, 1), Duration::millis(5));
}

TEST(ChannelGraphTest, BoundsUseTightestIncomingPath) {
  ChannelGraph graph(3);
  graph.set_lookahead(0, 2, Duration::millis(30));
  graph.set_lookahead(1, 2, Duration::millis(10));
  graph.finalize();
  const std::vector<TimePoint> next = {
      TimePoint::origin() + Duration::millis(100),
      TimePoint::origin() + Duration::millis(50),
      TimePoint::origin() + Duration::millis(200),
  };
  std::vector<TimePoint> bounds;
  graph.bounds(next, bounds);
  // LP2's bound: min(next0 + 30ms, next1 + 10ms) = 60ms.
  EXPECT_EQ(bounds[2], TimePoint::origin() + Duration::millis(60));
  // Nothing feeds LP0 or LP1.
  EXPECT_EQ(bounds[0], TimePoint::max());
  EXPECT_EQ(bounds[1], TimePoint::max());
}

TEST(LpTest, MailboxDrainsInTimeSourceSeqOrder) {
  Lp lp(3, "sink");
  std::vector<int> order;
  const TimePoint t1 = TimePoint::origin() + Duration::millis(1);
  const TimePoint t2 = TimePoint::origin() + Duration::millis(2);
  // Same-timestamp posts from different sources arrive in "wall" order
  // 2-then-1; the drain must reorder them to source order 1-then-2, and a
  // later timestamp must sort last no matter when it was posted.
  lp.post(/*src_lp=*/2, t1, [&order] { order.push_back(21); });
  lp.post(/*src_lp=*/1, t1, [&order] { order.push_back(11); });
  lp.post(/*src_lp=*/1, t2, [&order] { order.push_back(12); });
  lp.post(/*src_lp=*/1, t1, [&order] { order.push_back(91); });  // seq 2nd
  lp.drain_mailbox();
  lp.run_until(t2);
  EXPECT_EQ(order, (std::vector<int>{11, 91, 21, 12}));
  EXPECT_EQ(lp.mail_received(), 4u);
}

TEST(ParallelSimulatorTest, CrossLpPostDeliversAndSettlesClocks) {
  ParallelSimulator::Options options;
  options.lps = 2;
  sim::ParallelSimulator psim(options);
  psim.set_lookahead(0, 1, Duration::millis(5));

  std::vector<std::string> log;
  psim.lp(0).schedule_at(TimePoint::origin() + Duration::millis(10), [&] {
    psim.post(0, 1, psim.lp(0).now() + Duration::millis(5),
              [&log] { log.push_back("delivered"); });
  });
  const TimePoint deadline = TimePoint::origin() + Duration::millis(100);
  psim.run_until(deadline);

  EXPECT_EQ(log, std::vector<std::string>{"delivered"});
  EXPECT_EQ(psim.lp(0).now(), deadline);
  EXPECT_EQ(psim.lp(1).now(), deadline);
  EXPECT_EQ(psim.stats().cross_lp_messages, 1u);
  EXPECT_GE(psim.stats().rounds, 1u);
}

TEST(ParallelSimulatorTest, ZeroLookaheadPingPongStaysOrdered) {
  // A two-LP ping-pong over zero-lookahead channels: the idle side's queue
  // is always empty, so each hop still executes in strict timestamp order.
  ParallelSimulator::Options options;
  options.lps = 2;
  sim::ParallelSimulator psim(options);
  psim.set_lookahead(0, 1, Duration::zero());
  psim.set_lookahead(1, 0, Duration::zero());

  std::vector<std::pair<std::size_t, std::int64_t>> hits;
  std::function<void(std::size_t, int)> bounce = [&](std::size_t self,
                                                     int remaining) {
    hits.emplace_back(self, (psim.lp(self).now() - TimePoint::origin())
                                .count_nanos());
    if (remaining == 0) return;
    const std::size_t other = 1 - self;
    psim.post(self, other, psim.lp(self).now() + Duration::millis(1),
              [&, other, remaining] { bounce(other, remaining - 1); });
  };
  psim.lp(0).schedule_at(TimePoint::origin() + Duration::millis(1),
                         [&] { bounce(0, 6); });
  psim.run_until(TimePoint::origin() + Duration::millis(100));

  ASSERT_EQ(hits.size(), 7u);
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].first, i % 2);
    EXPECT_EQ(hits[i].second, static_cast<std::int64_t>((i + 1) * 1000000));
  }
}

TEST(ParallelSimulatorTest, ZeroLookaheadContentionStallsAndSerializes) {
  // Both LPs hold events at the same timestamps over mutual zero-lookahead
  // channels: no window is ever non-empty, so every equal-time pair goes
  // through the stall rule — lowest-id LP first, one event per grant.
  // Slow, never wrong.
  ParallelSimulator::Options options;
  options.lps = 2;
  sim::ParallelSimulator psim(options);
  psim.set_lookahead(0, 1, Duration::zero());
  psim.set_lookahead(1, 0, Duration::zero());

  std::vector<std::pair<std::size_t, int>> order;
  for (int i = 1; i <= 5; ++i) {
    psim.lp(0).schedule_at(TimePoint::origin() + Duration::millis(i),
                           [&order, i] { order.emplace_back(0, i); });
    psim.lp(1).schedule_at(TimePoint::origin() + Duration::millis(i),
                           [&order, i] { order.emplace_back(1, i); });
  }
  psim.run_until(TimePoint::origin() + Duration::millis(10));

  ASSERT_EQ(order.size(), 10u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(order[2 * i], std::make_pair(std::size_t{0}, i + 1));
    EXPECT_EQ(order[2 * i + 1], std::make_pair(std::size_t{1}, i + 1));
  }
  EXPECT_GE(psim.stats().stalls, 5u);
}

TEST(ParallelSimulatorTest, IdenticalExecutionAtEveryJobsValue) {
  // The same 3-LP workload, run inline and on 4 workers: every LP must
  // observe the identical event sequence.
  auto run_workload = [](std::size_t jobs) {
    ParallelSimulator::Options options;
    options.lps = 3;
    options.jobs = jobs;
    options.max_window = Duration::millis(20);
    sim::ParallelSimulator psim(options);
    psim.set_lookahead(0, 1, Duration::millis(3));
    psim.set_lookahead(0, 2, Duration::millis(3));
    psim.set_lookahead(1, 2, Duration::millis(1));

    std::vector<std::vector<std::int64_t>> seen(3);
    for (int i = 1; i <= 40; ++i) {
      psim.lp(0).schedule_at(TimePoint::origin() + Duration::millis(i), [&,
                                                                         i] {
        const TimePoint now = psim.lp(0).now();
        seen[0].push_back(now.count_nanos());
        psim.post(0, 1, now + Duration::millis(3), [&, i] {
          const TimePoint t1 = psim.lp(1).now();
          seen[1].push_back(t1.count_nanos());
          if (i % 2 == 0) {
            psim.post(1, 2, t1 + Duration::millis(1),
                      [&] { seen[2].push_back(psim.lp(2).now().count_nanos()); });
          }
        });
        psim.post(0, 2, now + Duration::millis(3),
                  [&] { seen[2].push_back(psim.lp(2).now().count_nanos()); });
      });
    }
    psim.run_until(TimePoint::origin() + Duration::millis(200));
    return seen;
  };

  const auto serial = run_workload(1);
  const auto parallel = run_workload(4);
  EXPECT_EQ(serial, parallel);
  EXPECT_EQ(serial[0].size(), 40u);
  EXPECT_EQ(serial[1].size(), 40u);
  EXPECT_EQ(serial[2].size(), 60u);
}

TEST(ParallelSimulatorTest, MaxWindowBoundsEachRound) {
  // An unconstrained source LP (no incoming channels) would otherwise run
  // to the deadline in a single window; the cap slices it into rounds.
  ParallelSimulator::Options options;
  options.lps = 2;
  options.max_window = Duration::millis(10);
  sim::ParallelSimulator psim(options);
  psim.set_lookahead(0, 1, Duration::millis(1));

  int fired = 0;
  for (int i = 0; i < 100; ++i) {
    psim.lp(0).schedule_at(TimePoint::origin() + Duration::millis(i),
                           [&fired] { ++fired; });
  }
  psim.run_until(TimePoint::origin() + Duration::millis(100));
  EXPECT_EQ(fired, 100);
  EXPECT_GE(psim.stats().rounds, 9u);
  EXPECT_LE(psim.stats().max_window_seen, Duration::millis(10));
}

TEST(MinDelayTest, BasicModelsExposeTheirFloor) {
  Rng rng(1);
  wan::ConstantDelay constant(Duration::millis(25));
  EXPECT_EQ(constant.min_delay(), Duration::millis(25));

  wan::UniformDelay uniform(Duration::millis(10), Duration::millis(30));
  EXPECT_EQ(uniform.min_delay(), Duration::millis(10));

  wan::ShiftedLognormalDelay lognormal(Duration::millis(192), 1.0, 0.5);
  EXPECT_EQ(lognormal.min_delay(), Duration::millis(192));

  wan::ShiftedGammaDelay gamma(Duration::millis(100), 2.0, 3.0);
  EXPECT_EQ(gamma.min_delay(), Duration::millis(100));

  // The spike cap bounds the whole mixture, so it can undercut the base.
  wan::SpikeMixtureDelay capped(
      std::make_unique<wan::ConstantDelay>(Duration::millis(200)), 0.1,
      Duration::millis(50), 1.5, Duration::millis(120));
  EXPECT_EQ(capped.min_delay(), Duration::millis(120));

  wan::SpikeMixtureDelay uncapped(
      std::make_unique<wan::ConstantDelay>(Duration::millis(200)), 0.1,
      Duration::millis(50), 1.5, Duration::millis(500));
  EXPECT_EQ(uncapped.min_delay(), Duration::millis(200));

  // The default is the always-safe zero.
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GE(capped.sample(rng, TimePoint::origin()), capped.min_delay());
  }
}

TEST(MinDelayTest, ItalyJapanFloorMatchesTable4) {
  wan::ItalyJapanParams params;
  auto model = wan::make_italy_japan_delay(params);
  EXPECT_EQ(model->min_delay(), std::min(params.floor, params.spike_cap));
  Rng rng(7);
  for (int i = 0; i < 2000; ++i) {
    EXPECT_GE(model->sample(rng, TimePoint::origin() + Duration::seconds(i)),
              model->min_delay());
  }
}

TEST(MinDelayTest, TraceReplayUsesTraceMinimumExceptUnderExtend) {
  const std::vector<Duration> delays = {Duration::millis(210),
                                        Duration::millis(195),
                                        Duration::millis(260)};
  wan::TraceReplayDelay truncate(delays, wan::ReplayPolicy::kTruncate);
  EXPECT_EQ(truncate.min_delay(), Duration::millis(195));
  // kExtend resamples the tail from a fitted model — no floor promise.
  wan::TraceReplayDelay extend(delays, wan::ReplayPolicy::kExtend);
  EXPECT_EQ(extend.min_delay(), Duration::zero());
}

TEST(MinDelayTest, FaultyDelayShrinksByMaxClockAdvance) {
  auto faults = std::make_shared<faultx::FaultSchedule>();
  // Forward 80ms at t=10s, back 30ms at t=20s: the cumulative error peaks
  // at +80ms, which is the most any delay can be shortened.
  faults->clock_jump(TimePoint::origin() + Duration::seconds(10),
                     Duration::millis(80));
  faults->clock_jump(TimePoint::origin() + Duration::seconds(20),
                     Duration::millis(-30));
  EXPECT_EQ(faults->max_clock_advance(), Duration::millis(80));

  faultx::FaultyDelay faulty(
      std::make_unique<wan::ConstantDelay>(Duration::millis(200)), faults);
  EXPECT_EQ(faulty.min_delay(), Duration::millis(120));

  // A backwards-only schedule never advances the clock: no shrink.
  auto backwards = std::make_shared<faultx::FaultSchedule>();
  backwards->clock_jump(TimePoint::origin() + Duration::seconds(5),
                        Duration::millis(-250));
  EXPECT_EQ(backwards->max_clock_advance(), Duration::zero());
  faultx::FaultyDelay unshrunk(
      std::make_unique<wan::ConstantDelay>(Duration::millis(200)), backwards);
  EXPECT_EQ(unshrunk.min_delay(), Duration::millis(200));

  // A jump bigger than the floor clamps the promise at zero, mirroring
  // sample()'s physical clamp.
  auto huge = std::make_shared<faultx::FaultSchedule>();
  huge->clock_jump(TimePoint::origin() + Duration::seconds(1),
                   Duration::millis(500));
  faultx::FaultyDelay clamped(
      std::make_unique<wan::ConstantDelay>(Duration::millis(200)), huge);
  EXPECT_EQ(clamped.min_delay(), Duration::zero());
}

}  // namespace
}  // namespace fdqos::sim
