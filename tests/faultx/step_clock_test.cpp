#include "faultx/step_clock.hpp"

#include <gtest/gtest.h>

namespace fdqos::faultx {
namespace {

TEST(StepClockTest, EmptyClockHasNoError) {
  StepClock clock;
  EXPECT_TRUE(clock.empty());
  EXPECT_EQ(clock.step_count(), 0u);
  const TimePoint t = TimePoint::origin() + Duration::seconds(100);
  EXPECT_EQ(clock.error_at(t), Duration::zero());
  EXPECT_EQ(clock.to_local(t), t);
}

TEST(StepClockTest, StepTakesEffectAtItsInstant) {
  StepClock clock;
  const TimePoint at = TimePoint::origin() + Duration::seconds(100);
  clock.add_step(at, Duration::millis(-250));
  EXPECT_EQ(clock.error_at(at - Duration::nanos(1)), Duration::zero());
  EXPECT_EQ(clock.error_at(at), Duration::millis(-250));
  EXPECT_EQ(clock.to_local(at + Duration::seconds(5)),
            at + Duration::seconds(5) - Duration::millis(250));
}

TEST(StepClockTest, StepsAccumulate) {
  StepClock clock;
  clock.add_step(TimePoint::origin() + Duration::seconds(10),
                 Duration::millis(-250));
  clock.add_step(TimePoint::origin() + Duration::seconds(20),
                 Duration::millis(250));
  clock.add_step(TimePoint::origin() + Duration::seconds(30),
                 Duration::millis(40));
  EXPECT_EQ(clock.error_at(TimePoint::origin() + Duration::seconds(15)),
            Duration::millis(-250));
  EXPECT_EQ(clock.error_at(TimePoint::origin() + Duration::seconds(25)),
            Duration::zero());
  EXPECT_EQ(clock.error_at(TimePoint::origin() + Duration::seconds(35)),
            Duration::millis(40));
  EXPECT_EQ(clock.step_count(), 3u);
}

TEST(StepClockTest, OutOfOrderInsertionSortsByTime) {
  StepClock sorted;
  StepClock shuffled;
  const auto at = [](int s) { return TimePoint::origin() + Duration::seconds(s); };
  sorted.add_step(at(10), Duration::millis(1));
  sorted.add_step(at(20), Duration::millis(2));
  sorted.add_step(at(30), Duration::millis(4));
  shuffled.add_step(at(30), Duration::millis(4));
  shuffled.add_step(at(10), Duration::millis(1));
  shuffled.add_step(at(20), Duration::millis(2));
  for (int s = 0; s <= 40; s += 5) {
    EXPECT_EQ(sorted.error_at(at(s)), shuffled.error_at(at(s))) << s;
  }
}

}  // namespace
}  // namespace fdqos::faultx
