#include "fd/due_wheel.hpp"

#include <algorithm>
#include <bit>
#include <limits>

#include "common/assert.hpp"

namespace fdqos::fd {
namespace {

constexpr std::uint32_t kNil = std::numeric_limits<std::uint32_t>::max();
constexpr std::uint32_t kMask = DueWheel::kBuckets - 1;
constexpr std::uint32_t kWords = DueWheel::kBuckets / 64;
// A sweep runs once superseded entries outnumber half the live ones (plus
// this slack): O(1) amortized per superseded entry, and a vector at most
// about 1.5× its live entries before it would reallocate.
constexpr std::size_t kCompactSlack = 32;

bool worth_sweeping(std::size_t entries, std::size_t live) {
  return entries > live + live / 2 + kCompactSlack;
}

static_assert(std::has_single_bit(DueWheel::kBucketsPerEta));
static_assert(DueWheel::kBuckets % 64 == 0);

}  // namespace

DueWheel::DueWheel(TimePoint epoch, Duration eta,
                   common::MonotonicArena& arena)
    : epoch_(epoch),
      width_ns_(std::max<std::int64_t>(1, eta.count_nanos() / kBucketsPerEta)) {
  FDQOS_REQUIRE(eta > Duration::zero());
  heads_ = static_cast<std::uint32_t*>(
      arena.allocate(kBuckets * sizeof(std::uint32_t), alignof(std::uint32_t)));
  std::fill_n(heads_, kBuckets, kNil);
  occupied_ = static_cast<std::uint64_t*>(
      arena.allocate(kWords * sizeof(std::uint64_t), alignof(std::uint64_t)));
  std::fill_n(occupied_, kWords, 0);
}

void DueWheel::add_member() {
  FDQOS_REQUIRE(slots_.size() < kNil);
  slots_.emplace_back();
}

std::int64_t DueWheel::tick(TimePoint due) const {
  if (due <= epoch_) return 0;
  const std::uint64_t ns = static_cast<std::uint64_t>(due.count_nanos()) -
                           static_cast<std::uint64_t>(epoch_.count_nanos());
  // Capped so tick arithmetic never overflows; such a due only ever
  // waits in the overflow heap.
  return static_cast<std::int64_t>(
      std::min<std::uint64_t>(ns / static_cast<std::uint64_t>(width_ns_),
                              std::numeric_limits<std::int64_t>::max() / 2));
}

bool DueWheel::current(const Entry& e, Where where) const {
  const Slot& s = slots_[e.member];
  return s.where == where && s.seq == e.seq;
}

void DueWheel::set(std::uint32_t member, TimePoint due) {
  FDQOS_REQUIRE(member < slots_.size());
  unplace(member);
  Slot& s = slots_[member];
  s.due = due;
  if (due == TimePoint::max()) return;
  s.seq = next_seq_++;
  place(member);
  compact_ready();
  compact(overflow_, Where::kOverflow, overflow_live_);
}

void DueWheel::place(std::uint32_t member) {
  const std::int64_t t = tick(slots_[member].due);
  if (t < loaded_) {
    // Report seqs only grow, so a due no earlier than the run's last one
    // extends the sorted run; anything earlier waits in the side heap.
    Slot& s = slots_[member];
    if (run_.empty() || s.due >= run_.back().due) {
      s.where = Where::kReady;
      run_.push_back({s.due, s.seq, member});
    } else {
      push(side_, member, Where::kReady);
    }
    ++ready_live_;
  } else if (t - loaded_ < kBuckets) {
    link(member, static_cast<std::uint32_t>(t) & kMask);
  } else {
    push(overflow_, member, Where::kOverflow);
    ++overflow_live_;
  }
}

void DueWheel::unplace(std::uint32_t member) {
  Slot& s = slots_[member];
  switch (s.where) {
    case Where::kWheel:
      unlink(member);
      break;
    case Where::kReady:
      --ready_live_;  // its run or side entry is now superseded
      break;
    case Where::kOverflow:
      --overflow_live_;
      break;
    case Where::kNone:
      break;
  }
  s.where = Where::kNone;
}

void DueWheel::link(std::uint32_t member, std::uint32_t bucket) {
  Slot& s = slots_[member];
  s.where = Where::kWheel;
  s.prev = kNil;
  s.next = heads_[bucket];
  if (s.next != kNil) slots_[s.next].prev = member;
  heads_[bucket] = member;
  occupied_[bucket / 64] |= std::uint64_t{1} << (bucket % 64);
}

void DueWheel::unlink(std::uint32_t member) {
  const Slot& s = slots_[member];
  const std::uint32_t bucket = static_cast<std::uint32_t>(tick(s.due)) & kMask;
  if (s.prev != kNil) {
    slots_[s.prev].next = s.next;
  } else {
    heads_[bucket] = s.next;
    if (s.next == kNil) {
      occupied_[bucket / 64] &= ~(std::uint64_t{1} << (bucket % 64));
    }
  }
  if (s.next != kNil) slots_[s.next].prev = s.prev;
}

void DueWheel::push(std::vector<Entry>& heap, std::uint32_t member,
                    Where where) {
  Slot& s = slots_[member];
  s.where = where;
  heap.push_back({s.due, s.seq, member});
  std::push_heap(heap.begin(), heap.end(), Later{});
}

void DueWheel::drop_superseded(std::vector<Entry>& heap, Where where) {
  while (!heap.empty() && !current(heap.front(), where)) {
    std::pop_heap(heap.begin(), heap.end(), Later{});
    heap.pop_back();
  }
}

void DueWheel::compact(std::vector<Entry>& heap, Where where,
                       std::size_t live) {
  if (!worth_sweeping(heap.size(), live)) return;
  std::erase_if(heap, [&](const Entry& e) { return !current(e, where); });
  std::make_heap(heap.begin(), heap.end(), Later{});
}

void DueWheel::compact_ready() {
  if (!worth_sweeping(run_.size() + side_.size(), ready_live_)) return;
  // Popped entries are superseded too, so this also drops the consumed
  // prefix; erase_if keeps the run sorted.
  const auto superseded = [&](const Entry& e) {
    return !current(e, Where::kReady);
  };
  std::erase_if(run_, superseded);
  cursor_ = 0;
  std::erase_if(side_, superseded);
  std::make_heap(side_.begin(), side_.end(), Later{});
}

std::int64_t DueWheel::next_occupied_tick() const {
  // Scan the bitmap circularly from loaded_'s bucket; the wheel holds
  // ticks [loaded_, loaded_ + kBuckets), one per bucket.
  const std::uint32_t start = static_cast<std::uint32_t>(loaded_) & kMask;
  for (std::uint32_t scanned = 0; scanned < kBuckets;) {
    const std::uint32_t bucket = (start + scanned) & kMask;
    const std::uint32_t bit = bucket % 64;
    const std::uint64_t word = occupied_[bucket / 64] >> bit;
    if (word != 0) {
      const std::uint32_t at = scanned + std::countr_zero(word);
      return at < kBuckets ? loaded_ + at : -1;
    }
    scanned += 64 - bit;
  }
  return -1;
}

bool DueWheel::advance() {
  // Nothing ready is live: the earliest due is in the first occupied
  // bucket or at the overflow front, whichever tick comes first.
  FDQOS_DASSERT(ready_live_ == 0);
  drop_superseded(overflow_, Where::kOverflow);
  const std::int64_t wheel_tick = next_occupied_tick();
  std::int64_t t = wheel_tick;
  if (!overflow_.empty()) {
    const std::int64_t overflow_tick = tick(overflow_.front().due);
    if (t < 0 || overflow_tick < t) t = overflow_tick;
  }
  if (t < 0) return false;

  run_.clear();
  cursor_ = 0;
  side_.clear();
  if (wheel_tick == t) {
    const std::uint32_t bucket = static_cast<std::uint32_t>(t) & kMask;
    for (std::uint32_t m = heads_[bucket]; m != kNil; m = slots_[m].next) {
      Slot& s = slots_[m];
      s.where = Where::kReady;
      run_.push_back({s.due, s.seq, m});
    }
    heads_[bucket] = kNil;
    occupied_[bucket / 64] &= ~(std::uint64_t{1} << (bucket % 64));
    // The list is newest first; reversed it is in report order, which is
    // already sorted when the bucket's dues are equal.
    std::reverse(run_.begin(), run_.end());
  }
  loaded_ = t + 1;
  // The horizon moved: overflow dues now inside it join the wheel, or the
  // run when they fall at or before tick t.
  while (!overflow_.empty()) {
    const Entry top = overflow_.front();
    if (current(top, Where::kOverflow)) {
      if (tick(top.due) - loaded_ >= kBuckets) break;
      --overflow_live_;
      if (tick(top.due) < loaded_) {
        slots_[top.member].where = Where::kReady;
        run_.push_back(top);
      } else {
        place(top.member);
      }
    }
    std::pop_heap(overflow_.begin(), overflow_.end(), Later{});
    overflow_.pop_back();
  }
  if (!std::is_sorted(run_.begin(), run_.end(), Earlier{})) {
    std::sort(run_.begin(), run_.end(), Earlier{});
  }
  ready_live_ = run_.size();
  return true;
}

const DueWheel::Entry* DueWheel::ready_front() {
  while (cursor_ < run_.size() && !current(run_[cursor_], Where::kReady)) {
    ++cursor_;
  }
  drop_superseded(side_, Where::kReady);
  const Entry* best = cursor_ < run_.size() ? &run_[cursor_] : nullptr;
  if (!side_.empty() && (best == nullptr || Later{}(*best, side_.front()))) {
    best = &side_.front();
  }
  return best;
}

TimePoint DueWheel::front() {
  for (;;) {
    if (const Entry* e = ready_front()) return e->due;
    if (!advance()) return TimePoint::max();
  }
}

std::uint32_t DueWheel::pop_front() {
  FDQOS_REQUIRE(front() != TimePoint::max());
  const Entry* e = ready_front();
  const std::uint32_t member = e->member;
  if (!side_.empty() && e == &side_.front()) {
    std::pop_heap(side_.begin(), side_.end(), Later{});
    side_.pop_back();
  } else {
    ++cursor_;
  }
  --ready_live_;
  Slot& s = slots_[member];
  s.where = Where::kNone;
  s.due = TimePoint::max();
  return member;
}

std::size_t DueWheel::memory_bytes() const {
  return slots_.capacity() * sizeof(Slot) +
         (run_.capacity() + side_.capacity() + overflow_.capacity()) *
             sizeof(Entry);
}

}  // namespace fdqos::fd
