#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace fdqos::sim {
namespace {

TimePoint at_ms(std::int64_t ms) {
  return TimePoint::origin() + Duration::millis(ms);
}

TEST(EventQueueTest, EmptyQueue) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.next_time(), TimePoint::max());
}

TEST(EventQueueTest, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(at_ms(30), [&] { order.push_back(3); });
  q.schedule(at_ms(10), [&] { order.push_back(1); });
  q.schedule(at_ms(20), [&] { order.push_back(2); });
  while (!q.empty()) {
    auto fired = q.pop();
    fired.fn();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, EqualTimesFireInInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule(at_ms(5), [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop().fn();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueueTest, NextTimeTracksEarliest) {
  EventQueue q;
  q.schedule(at_ms(50), [] {});
  EXPECT_EQ(q.next_time(), at_ms(50));
  q.schedule(at_ms(20), [] {});
  EXPECT_EQ(q.next_time(), at_ms(20));
  q.pop();
  EXPECT_EQ(q.next_time(), at_ms(50));
}

TEST(EventQueueTest, CancelPreventsExecution) {
  EventQueue q;
  bool fired = false;
  EventHandle h = q.schedule(at_ms(10), [&] { fired = true; });
  EXPECT_TRUE(h.pending());
  EXPECT_TRUE(h.cancel());
  EXPECT_FALSE(h.pending());
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.next_time(), TimePoint::max());
  EXPECT_FALSE(fired);
}

TEST(EventQueueTest, CancelIsIdempotent) {
  EventQueue q;
  EventHandle h = q.schedule(at_ms(10), [] {});
  EXPECT_TRUE(h.cancel());
  EXPECT_FALSE(h.cancel());
}

TEST(EventQueueTest, CancelAfterFireIsSafeNoop) {
  EventQueue q;
  EventHandle h = q.schedule(at_ms(10), [] {});
  q.pop().fn();
  EXPECT_FALSE(h.pending());
  EXPECT_FALSE(h.cancel());
}

TEST(EventQueueTest, CancelledHeadSkippedByPop) {
  EventQueue q;
  bool first = false;
  bool second = false;
  EventHandle h = q.schedule(at_ms(10), [&] { first = true; });
  q.schedule(at_ms(20), [&] { second = true; });
  h.cancel();
  EXPECT_EQ(q.size(), 1u);
  q.pop().fn();
  EXPECT_FALSE(first);
  EXPECT_TRUE(second);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, DefaultConstructedHandleIsInert) {
  EventHandle h;
  EXPECT_FALSE(h.pending());
  EXPECT_FALSE(h.cancel());
  EXPECT_EQ(h.time(), TimePoint::max());
}

TEST(EventQueueTest, TimeReportsDeadlineWhileLive) {
  EventQueue q;
  EventHandle h = q.schedule(at_ms(40), [] {});
  EXPECT_EQ(h.time(), at_ms(40));
  // Once the event fires (pop releases the node) the handle reads idle;
  // the DetectorBank relies on this to treat max() as "no armed timer".
  q.pop().fn();
  EXPECT_EQ(h.time(), TimePoint::max());
}

TEST(EventQueueTest, TimeIsMaxAfterCancel) {
  EventQueue q;
  EventHandle h = q.schedule(at_ms(15), [] {});
  h.cancel();
  EXPECT_EQ(h.time(), TimePoint::max());
}

TEST(EventQueueTest, SizeCountsOnlyLiveEvents) {
  EventQueue q;
  EventHandle a = q.schedule(at_ms(1), [] {});
  q.schedule(at_ms(2), [] {});
  EXPECT_EQ(q.size(), 2u);
  a.cancel();
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueueTest, RescheduleEarlierAndLaterKeepsTimeSeqOrder) {
  EventQueue q;
  std::vector<int> order;
  EventHandle a = q.schedule(at_ms(10), [&] { order.push_back(1); });
  q.schedule(at_ms(20), [&] { order.push_back(2); });
  EventHandle c = q.schedule(at_ms(30), [&] { order.push_back(3); });
  q.schedule(at_ms(40), [&] { order.push_back(4); });
  EXPECT_TRUE(q.reschedule(a, at_ms(35)));  // later: between 3 and 4
  EXPECT_TRUE(q.reschedule(c, at_ms(5)));   // earlier: new head
  EXPECT_EQ(a.time(), at_ms(35));
  EXPECT_EQ(c.time(), at_ms(5));
  EXPECT_EQ(q.next_time(), at_ms(5));
  EXPECT_EQ(q.size(), 4u);
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{3, 2, 1, 4}));
}

TEST(EventQueueTest, RescheduleTieOrdersLikeCancelPlusSchedule) {
  // An event rescheduled onto a timestamp that already holds events fires
  // after them — including one scheduled before the reschedule call — and
  // before anything scheduled afterwards at that instant.
  auto run = [](bool use_reschedule) {
    EventQueue q;
    std::vector<int> order;
    EventHandle moved = q.schedule(at_ms(50), [&] { order.push_back(0); });
    q.schedule(at_ms(20), [&] { order.push_back(1); });
    q.schedule(at_ms(10), [&] { order.push_back(2); });
    if (use_reschedule) {
      EXPECT_TRUE(q.reschedule(moved, at_ms(20)));
    } else {
      moved.cancel();
      moved = q.schedule(at_ms(20), [&] { order.push_back(0); });
    }
    q.schedule(at_ms(20), [&] { order.push_back(3); });
    while (!q.empty()) q.pop().fn();
    return order;
  };
  EXPECT_EQ(run(true), (std::vector<int>{2, 1, 0, 3}));
  EXPECT_EQ(run(true), run(false));
}

TEST(EventQueueTest, RescheduleToSameTimeMovesBehindTies) {
  EventQueue q;
  std::vector<int> order;
  EventHandle a = q.schedule(at_ms(10), [&] { order.push_back(1); });
  q.schedule(at_ms(10), [&] { order.push_back(2); });
  EXPECT_TRUE(q.reschedule(a, at_ms(10)));
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
}

TEST(EventQueueTest, RescheduleOfDeadHandleReturnsFalseAndChangesNothing) {
  EventQueue q;
  bool other_fired = false;
  EventHandle fired = q.schedule(at_ms(1), [] {});
  EventHandle cancelled = q.schedule(at_ms(2), [] {});
  EventHandle inert;
  q.schedule(at_ms(30), [&] { other_fired = true; });
  q.pop().fn();
  cancelled.cancel();
  ASSERT_EQ(q.size(), 1u);

  EXPECT_FALSE(q.reschedule(fired, at_ms(5)));
  EXPECT_FALSE(q.reschedule(cancelled, at_ms(5)));
  EXPECT_FALSE(q.reschedule(inert, at_ms(5)));
  EXPECT_FALSE(fired.pending());
  EXPECT_FALSE(cancelled.pending());
  EXPECT_FALSE(inert.pending());
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.next_time(), at_ms(30));
  q.pop().fn();
  EXPECT_TRUE(other_fired);
}

TEST(EventQueueTest, RescheduleOfHandleFromAnotherQueueReturnsFalse) {
  EventQueue q;
  EventQueue other;
  EventHandle h = other.schedule(at_ms(10), [] {});
  q.schedule(at_ms(20), [] {});
  EXPECT_FALSE(q.reschedule(h, at_ms(5)));
  EXPECT_EQ(h.time(), at_ms(10));
  EXPECT_EQ(q.next_time(), at_ms(20));
}

TEST(EventQueueTest, StaleHandleDoesNotSeeOrCancelSlotReuse) {
  EventQueue q;
  bool new_fired = false;
  EventHandle stale = q.schedule(at_ms(10), [] {});
  ASSERT_TRUE(stale.cancel());
  // The freed slot is reused by the next event.
  EventHandle fresh = q.schedule(at_ms(20), [&] { new_fired = true; });
  EXPECT_FALSE(stale.pending());
  EXPECT_EQ(stale.time(), TimePoint::max());
  EXPECT_FALSE(stale.cancel());
  EXPECT_FALSE(q.reschedule(stale, at_ms(5)));
  EXPECT_TRUE(fresh.pending());
  EXPECT_EQ(fresh.time(), at_ms(20));
  ASSERT_EQ(q.size(), 1u);
  q.pop().fn();
  EXPECT_TRUE(new_fired);

  // The same holds for a handle whose event fired.
  EventHandle fired_handle = fresh;
  EventHandle reuse = q.schedule(at_ms(30), [] {});
  EXPECT_FALSE(fired_handle.pending());
  EXPECT_FALSE(fired_handle.cancel());
  EXPECT_TRUE(reuse.pending());
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueueTest, SizeIsExactAfterInterleavedCancels) {
  EventQueue q;
  std::vector<EventHandle> handles;
  std::vector<int> fired;
  for (int i = 0; i < 64; ++i) {
    handles.push_back(q.schedule(at_ms(100 - i % 7), [&fired, i] {
      fired.push_back(i);
    }));
  }
  std::size_t live = 64;
  for (int i = 0; i < 64; i += 3) {
    EXPECT_TRUE(handles[static_cast<std::size_t>(i)].cancel());
    --live;
    EXPECT_EQ(q.size(), live);
  }
  // Interleave pops, schedules and further cancels.
  q.pop();  // dropped unfired
  --live;
  EventHandle late = q.schedule(at_ms(200), [] {});
  ++live;
  EXPECT_EQ(q.size(), live);
  for (int i = 1; i < 64; i += 3) {
    if (handles[static_cast<std::size_t>(i)].cancel()) --live;
    EXPECT_EQ(q.size(), live);
  }
  EXPECT_TRUE(late.cancel());
  --live;
  EXPECT_EQ(q.size(), live);
  std::size_t popped = 0;
  TimePoint prev = TimePoint::min();
  while (!q.empty()) {
    auto event = q.pop();
    EXPECT_GE(event.time, prev);
    prev = event.time;
    event.fn();
    ++popped;
  }
  EXPECT_EQ(popped, live);
  for (int i : fired) EXPECT_EQ(i % 3, 2);
}

}  // namespace
}  // namespace fdqos::sim
