#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace fdqos::sim {
namespace {

TEST(SimulatorTest, StartsAtOrigin) {
  Simulator sim;
  EXPECT_EQ(sim.now(), TimePoint::origin());
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimulatorTest, NowAdvancesToEventTime) {
  Simulator sim;
  TimePoint seen;
  sim.schedule_after(Duration::millis(250), [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen, TimePoint::origin() + Duration::millis(250));
}

TEST(SimulatorTest, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  for (int i = 1; i <= 10; ++i) {
    sim.schedule_after(Duration::seconds(i), [&] { ++fired; });
  }
  const auto count = sim.run_until(TimePoint::origin() + Duration::seconds(5));
  EXPECT_EQ(count, 5u);
  EXPECT_EQ(fired, 5);
  EXPECT_EQ(sim.now(), TimePoint::origin() + Duration::seconds(5));
  EXPECT_EQ(sim.pending_events(), 5u);
}

TEST(SimulatorTest, EventAtExactDeadlineFires) {
  Simulator sim;
  bool fired = false;
  sim.schedule_after(Duration::seconds(5), [&] { fired = true; });
  sim.run_until(TimePoint::origin() + Duration::seconds(5));
  EXPECT_TRUE(fired);
}

TEST(SimulatorTest, RunUntilAdvancesClockWithoutEvents) {
  Simulator sim;
  sim.run_until(TimePoint::origin() + Duration::seconds(7));
  EXPECT_EQ(sim.now(), TimePoint::origin() + Duration::seconds(7));
}

TEST(SimulatorTest, EventsCanScheduleEvents) {
  Simulator sim;
  std::vector<double> times;
  std::function<void()> tick = [&] {
    times.push_back(sim.now().to_seconds_double());
    if (times.size() < 3) {
      sim.schedule_after(Duration::seconds(1), tick);
    }
  };
  sim.schedule_after(Duration::seconds(1), tick);
  sim.run();
  ASSERT_EQ(times.size(), 3u);
  EXPECT_DOUBLE_EQ(times[0], 1.0);
  EXPECT_DOUBLE_EQ(times[1], 2.0);
  EXPECT_DOUBLE_EQ(times[2], 3.0);
}

TEST(SimulatorTest, StepExecutesExactlyOne) {
  Simulator sim;
  int fired = 0;
  sim.schedule_after(Duration::millis(1), [&] { ++fired; });
  sim.schedule_after(Duration::millis(2), [&] { ++fired; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(fired, 2);
  EXPECT_FALSE(sim.step());
}

TEST(SimulatorTest, ExecutedEventsAccumulates) {
  Simulator sim;
  for (int i = 0; i < 4; ++i) sim.schedule_after(Duration::millis(i + 1), [] {});
  sim.run();
  EXPECT_EQ(sim.executed_events(), 4u);
}

TEST(SimulatorTest, NextEventTimeVisible) {
  Simulator sim;
  sim.schedule_after(Duration::seconds(3), [] {});
  EXPECT_EQ(sim.next_event_time(), TimePoint::origin() + Duration::seconds(3));
}

TEST(SimulatorTest, CancelledEventDoesNotRun) {
  Simulator sim;
  bool fired = false;
  EventHandle h = sim.schedule_after(Duration::seconds(1), [&] { fired = true; });
  h.cancel();
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(SimulatorTest, ScheduleAfterRunFiresRelativeToLastEvent) {
  // run() leaves the clock at the last executed event, not at
  // TimePoint::max(), so a later relative schedule stays finite.
  Simulator sim;
  sim.schedule_after(Duration::seconds(2), [] {});
  sim.run();
  EXPECT_EQ(sim.now(), TimePoint::origin() + Duration::seconds(2));
  TimePoint seen;
  sim.schedule_after(Duration::millis(5), [&] { seen = sim.now(); });
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_EQ(seen, TimePoint::origin() + Duration::seconds(2) +
                      Duration::millis(5));
}

TEST(SimulatorTest, RescheduleMovesPendingEvent) {
  Simulator sim;
  std::vector<int> order;
  EventHandle h = sim.schedule_after(Duration::seconds(5),
                                     [&] { order.push_back(1); });
  sim.schedule_after(Duration::seconds(2), [&] { order.push_back(2); });
  EXPECT_TRUE(sim.reschedule(h, TimePoint::origin() + Duration::seconds(1)));
  EXPECT_EQ(sim.pending_events(), 2u);
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_FALSE(sim.reschedule(h, sim.now()));
}

TEST(SimulatorTest, DeterministicInterleavingAtSameTimestamp) {
  // Two runs with identical schedules produce identical orderings.
  auto run_once = [] {
    Simulator sim;
    std::vector<int> order;
    for (int i = 0; i < 20; ++i) {
      sim.schedule_at(TimePoint::origin() + Duration::seconds(1),
                      [&order, i] { order.push_back(i); });
    }
    sim.run();
    return order;
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace fdqos::sim
