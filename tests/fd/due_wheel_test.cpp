// DueWheel against the member-deadline heap it replaced.
//
// The reference below is a test-local copy of the FleetBank's former
// protocol: one (due, seq, member) binary min-heap, a push per report, and
// entries left behind when a member's deadline moves; a popped entry that
// no longer matches the member's latest report is skipped. Both queues
// see the same random report sequences — moves earlier and later,
// withdrawals, equal dues across members, dues at or before the clock,
// dues past the wheel's horizon and checks that re-report — and must
// yield the same sequence of live (due, member) checks and the same front
// after every step.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/arena.hpp"
#include "common/rng.hpp"
#include "fd/due_wheel.hpp"

namespace fdqos::fd {
namespace {

const Duration kEta = Duration::millis(500);

class ReferenceHeap {
 public:
  explicit ReferenceHeap(std::size_t members) : latest_(members) {}

  void set(std::uint32_t member, TimePoint due) {
    if (due == TimePoint::max()) {
      latest_[member].reset();
      return;
    }
    const Entry e{due, next_seq_++, member};
    latest_[member] = e;
    heap_.push_back(e);
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }

  TimePoint front() {
    drop_stale();
    return heap_.empty() ? TimePoint::max() : heap_.front().due;
  }

  std::uint32_t pop_front() {
    drop_stale();
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    const std::uint32_t member = heap_.back().member;
    heap_.pop_back();
    latest_[member].reset();
    return member;
  }

 private:
  struct Entry {
    TimePoint due;
    std::uint64_t seq;
    std::uint32_t member;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.due != b.due) return a.due > b.due;
      return a.seq > b.seq;
    }
  };

  void drop_stale() {
    while (!heap_.empty()) {
      const Entry& top = heap_.front();
      const auto& live = latest_[top.member];
      if (live && live->seq == top.seq) return;
      std::pop_heap(heap_.begin(), heap_.end(), Later{});
      heap_.pop_back();
    }
  }

  std::vector<Entry> heap_;
  std::vector<std::optional<Entry>> latest_;
  std::uint64_t next_seq_ = 0;
};

struct Check {
  std::int64_t due_ns;
  std::uint32_t member;
  bool operator==(const Check&) const = default;
};

// One random report: mostly about a period ahead (a heartbeat killing the
// row behind the deadline), sometimes earlier, equal to another member's
// due, at or before the clock, past the horizon, absurdly far, or a
// withdrawal.
TimePoint random_due(Rng& rng, TimePoint now, const std::vector<TimePoint>& recent) {
  const double pick = rng.next_double();
  if (pick < 0.45) {
    return now + kEta + Duration::from_millis_double(rng.uniform(0.0, 80.0));
  }
  if (pick < 0.60) {
    return now + Duration::from_millis_double(rng.uniform(0.0, 500.0));
  }
  if (pick < 0.72 && !recent.empty()) {
    return recent[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(recent.size()) - 1))];
  }
  if (pick < 0.78) return now;
  if (pick < 0.82) return now - Duration::millis(rng.uniform_int(1, 40));
  if (pick < 0.90) {
    return now + kEta * rng.uniform_int(4, 12) + Duration::nanos(rng.uniform_int(0, 999));
  }
  if (pick < 0.92) return now + kEta * 1'000'000;
  return TimePoint::max();
}

void expect_same_checks(std::uint64_t seed, std::size_t members,
                        std::size_t steps) {
  Rng rng(seed);
  common::MonotonicArena arena;
  const TimePoint epoch = TimePoint::origin() + Duration::millis(3);
  DueWheel wheel(epoch, kEta, arena);
  ReferenceHeap reference(members);
  for (std::size_t m = 0; m < members; ++m) wheel.add_member();

  TimePoint now = epoch;
  std::vector<TimePoint> recent;
  const auto report = [&](std::uint32_t member, TimePoint due) {
    wheel.set(member, due);
    reference.set(member, due);
    if (due != TimePoint::max()) {
      recent.push_back(due);
      if (recent.size() > 16) recent.erase(recent.begin());
    }
  };

  std::vector<Check> wheel_checks;
  std::vector<Check> reference_checks;
  for (std::size_t step = 0; step < steps; ++step) {
    if (rng.bernoulli(0.7)) {
      const auto member = static_cast<std::uint32_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(members) - 1));
      report(member, random_due(rng, now, recent));
    } else {
      // The clock moves on and every due up to it is checked; a check
      // re-reports its member later, as a hosted bank does.
      now = now + Duration::from_millis_double(rng.uniform(0.0, 60.0));
      while (wheel.front() <= now) {
        ASSERT_EQ(reference.front(), wheel.front());
        const TimePoint due = wheel.front();
        const std::uint32_t member = wheel.pop_front();
        wheel_checks.push_back({due.count_nanos(), member});
        const std::uint32_t ref_member = reference.pop_front();
        reference_checks.push_back({due.count_nanos(), ref_member});
        ASSERT_EQ(member, ref_member) << "step " << step;
        if (rng.bernoulli(0.8)) {
          report(member, now + kEta +
                             Duration::from_millis_double(rng.uniform(0.0, 50.0)));
        }
      }
    }
    ASSERT_EQ(reference.front(), wheel.front()) << "step " << step;
  }
  EXPECT_EQ(wheel_checks, reference_checks);
  EXPECT_GT(wheel_checks.size(), steps / 20);
}

TEST(DueWheelTest, MatchesReferenceHeapOnRandomReports) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    SCOPED_TRACE(seed);
    expect_same_checks(seed, 24, 20000);
  }
}

TEST(DueWheelTest, MatchesReferenceHeapAtFleetWidth) {
  expect_same_checks(11, 3000, 60000);
}

// A whole fleet due at one instant (cold start) fills one ready run; most
// of it then moves a period later, partly after some checks ran, which
// sweeps the superseded entries while live ones are still waiting.
TEST(DueWheelTest, SweepingTheReadyRunKeepsItsLiveEntries) {
  constexpr std::uint32_t kMembers = 600;
  common::MonotonicArena arena;
  DueWheel wheel(TimePoint::origin(), kEta, arena);
  ReferenceHeap reference(kMembers);
  const TimePoint due = TimePoint::origin() + kEta * 2;
  for (std::uint32_t m = 0; m < kMembers; ++m) {
    wheel.add_member();
    wheel.set(m, due);
    reference.set(m, due);
  }
  std::vector<std::uint32_t> wheel_order;
  std::vector<std::uint32_t> reference_order;
  const auto pop = [&](std::size_t n) {
    for (std::size_t i = 0; i < n && wheel.front() != TimePoint::max(); ++i) {
      ASSERT_EQ(wheel.front(), reference.front());
      wheel_order.push_back(wheel.pop_front());
      reference_order.push_back(reference.pop_front());
    }
  };
  pop(100);  // members 0..99, in report order
  std::size_t checks = kMembers;
  for (std::uint32_t m = 0; m < kMembers; ++m) {
    if (m % 3 == 0) continue;
    const TimePoint later = due + kEta + Duration::millis(m % 7);
    wheel.set(m, later);
    reference.set(m, later);
    if (m < 100) ++checks;  // already checked once: due again later
  }
  pop(2 * kMembers);
  EXPECT_EQ(wheel_order, reference_order);
  EXPECT_EQ(wheel_order.size(), checks);
}

TEST(DueWheelTest, EqualDuesLeaveInReportOrder) {
  common::MonotonicArena arena;
  DueWheel wheel(TimePoint::origin(), kEta, arena);
  for (int m = 0; m < 4; ++m) wheel.add_member();
  const TimePoint due = TimePoint::origin() + kEta * 2;
  wheel.set(2, due);
  wheel.set(0, due);
  wheel.set(3, due + kEta * 9);  // past the horizon
  wheel.set(1, due);
  wheel.set(0, due);  // a re-report goes to the back of its tie
  wheel.set(3, due);
  std::vector<std::uint32_t> order;
  while (wheel.front() != TimePoint::max()) order.push_back(wheel.pop_front());
  EXPECT_EQ(order, (std::vector<std::uint32_t>{2, 1, 0, 3}));
}

TEST(DueWheelTest, WithdrawnMembersAreNeverHandedOut) {
  common::MonotonicArena arena;
  DueWheel wheel(TimePoint::origin(), kEta, arena);
  for (int m = 0; m < 3; ++m) wheel.add_member();
  wheel.set(0, TimePoint::origin() + kEta);
  wheel.set(1, TimePoint::origin() + kEta * 20);  // overflow
  wheel.set(2, TimePoint::origin() + kEta);
  EXPECT_EQ(wheel.front(), TimePoint::origin() + kEta);  // loads the bucket
  wheel.set(0, TimePoint::max());
  wheel.set(1, TimePoint::max());
  EXPECT_EQ(wheel.pop_front(), 2u);
  EXPECT_EQ(wheel.front(), TimePoint::max());
}

}  // namespace
}  // namespace fdqos::fd
