// DueWheel — the fleet's member deadlines on a hashed timing wheel.
//
// A FleetBank keeps one armed simulator event per shard at the earliest
// live freshness deadline of any member (docs/fleet.md). Every member
// holds at most one deadline, and it changes on almost every heartbeat:
// the heartbeat kills the row behind it and moves it one period later.
// A binary heap over all M members pays a sift of depth log M per move;
// the wheel pays O(1) for the common move and keeps the expensive ordering
// work to the few members due next.
//
// Layout. All members share the σ grid, so deadlines hash onto a ring of
// kBuckets buckets of width η / kBucketsPerEta (a horizon of four
// periods). Each member has exactly one entry, in member-indexed slots
// (due, report seq, intrusive bucket links); the buckets are a fixed array
// of list heads plus an occupancy bitmap, so the footprint is O(M) plus a
// constant. The buckets not yet reached are [loaded_, loaded_ + kBuckets)
// in tick units; a due past that horizon waits in a small overflow heap
// (cold start, a diverged forecast).
//
// Ordering. front() moves the next occupied bucket (and any overflow due
// at or before it) into a ready run sorted by (due, report seq) — the
// order a single heap over every report gives — and answers from a cursor
// into it. A due reported into the loaded range later extends the run when
// it sorts last (equal dues do: report seqs only grow) and otherwise joins
// a small side heap; front() takes the lesser of the two heads. A member
// whose due changes while it is ready leaves its entry behind: the entry
// no longer matches the member's (where, seq), so the cursor steps over it
// (O(1), the common case: a heartbeat moves a member out of the front
// bucket) or the heap drops it unread when it surfaces. Entries are never
// handed out stale, and a sweep drops them once they outnumber half the
// live ones.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/arena.hpp"
#include "common/time.hpp"

namespace fdqos::fd {

class DueWheel {
 public:
  static constexpr std::uint32_t kBucketsPerEta = 256;
  static constexpr std::uint32_t kBuckets = 4 * kBucketsPerEta;

  // The bucket heads and bitmap (a fixed ~4 KB) are carved from `arena`,
  // which must outlive the wheel.
  DueWheel(TimePoint epoch, Duration eta, common::MonotonicArena& arena);

  // Appends member members() with no due.
  void add_member();
  // Sizes the slots and the ready run for `members`: at a cold start every
  // member's first due lands in one tick, so the run holds them all at once.
  void reserve(std::size_t members) {
    slots_.reserve(members);
    run_.reserve(members);
  }

  // Moves `member`'s single entry to `due`; TimePoint::max() withdraws it.
  // Each call draws a fresh report seq, the tie-break among equal dues.
  void set(std::uint32_t member, TimePoint due);

  // Earliest due of any member; TimePoint::max() when none. Not const:
  // it loads the next bucket once nothing ready is live.
  TimePoint front();
  // Removes the member at front() (which must not be max()) and returns it.
  std::uint32_t pop_front();

  // Heap-held bytes (slots, ready run and heaps); the arena-held heads are
  // counted by the arena's owner.
  std::size_t memory_bytes() const;

 private:
  enum class Where : std::uint8_t { kNone, kWheel, kReady, kOverflow };
  struct Slot {
    TimePoint due = TimePoint::max();
    std::uint64_t seq = 0;
    std::uint32_t next = 0;  // bucket list links, while kWheel
    std::uint32_t prev = 0;
    Where where = Where::kNone;
  };
  struct Entry {
    TimePoint due;
    std::uint64_t seq;
    std::uint32_t member;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.due != b.due) return a.due > b.due;  // min-heap
      return a.seq > b.seq;
    }
  };
  struct Earlier {
    bool operator()(const Entry& a, const Entry& b) const {
      return Later{}(b, a);
    }
  };

  std::int64_t tick(TimePoint due) const;
  bool current(const Entry& e, Where where) const;
  void place(std::uint32_t member);
  void unplace(std::uint32_t member);
  void link(std::uint32_t member, std::uint32_t bucket);
  void unlink(std::uint32_t member);
  void push(std::vector<Entry>& heap, std::uint32_t member, Where where);
  void drop_superseded(std::vector<Entry>& heap, Where where);
  void compact(std::vector<Entry>& heap, Where where, std::size_t live);
  void compact_ready();
  const Entry* ready_front();
  bool advance();
  std::int64_t next_occupied_tick() const;

  TimePoint epoch_;
  std::int64_t width_ns_;
  std::uint32_t* heads_;     // kBuckets list heads (arena-held)
  std::uint64_t* occupied_;  // kBuckets bits: bucket list non-empty
  std::vector<Slot> slots_;
  // Ready: ticks < loaded_. run_ is sorted by Earlier and read from
  // cursor_; side_ is a Later-heap of dues reported after the load.
  std::vector<Entry> run_;
  std::size_t cursor_ = 0;
  std::vector<Entry> side_;
  std::vector<Entry> overflow_;  // ticks ≥ loaded_ + kBuckets when placed
  std::size_t ready_live_ = 0;
  std::size_t overflow_live_ = 0;
  std::int64_t loaded_ = 0;  // first tick not yet made ready
  std::uint64_t next_seq_ = 0;
};

}  // namespace fdqos::fd
