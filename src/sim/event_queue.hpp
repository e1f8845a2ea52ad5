// Deterministic pending-event set for the discrete-event simulator.
//
// Events at equal timestamps fire in insertion order (a monotonically
// increasing sequence number breaks ties), which makes simulations
// bit-reproducible regardless of heap internals.
//
// Storage is a slab: every event lives in a slot of one vector, which holds
// its callback, a generation counter and the slot's position in an indexed
// binary min-heap of {time, seq, slot} entries. Freed slots go on a free
// list and are reused, and a callback whose captures fit std::function's
// in-place buffer (a `this` pointer plus one integer) is stored without a
// heap allocation — so a simulation in steady state schedules, re-arms,
// cancels and fires events without touching the allocator.
//
// An EventHandle is {queue, slot, generation}. Firing or cancelling an event
// bumps its slot's generation, so a handle to an event that is gone (even
// one whose slot now holds a newer event) reads as not pending and cancels
// nothing. cancel() removes the entry from the heap at once: there are no
// tombstones, and size()/empty() count exactly the events that will fire.
// reschedule() moves a live event to a new time in place (one sift) and
// draws a fresh sequence number, so it orders exactly like cancel followed
// by schedule — timeout-based failure detectors re-arm a timer on almost
// every heartbeat.
//
// Handle lifetime: a handle refers to its queue by pointer and must not be
// used (pending/time/cancel/reschedule) after the queue is destroyed.
// Timer owners (DetectorBank, FleetBank, PhiAccrualDetector) are destroyed
// before the Simulator that owns their queue.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/time.hpp"

namespace fdqos::sim {

using EventFn = std::function<void()>;

class EventQueue;

// Handle to a scheduled event; cancel() is idempotent and safe after the
// event fired. Default-constructed handles are inert.
class EventHandle {
 public:
  EventHandle() = default;

  // Returns true if the event was live and is now cancelled.
  bool cancel();
  bool pending() const;
  // Scheduled fire time of a live event; TimePoint::max() once the event
  // fired or was cancelled. Lets timer owners (e.g. the DetectorBank's
  // expiry rows) compare an armed deadline against a new one
  // without mirroring the timestamp themselves.
  TimePoint time() const;

 private:
  friend class EventQueue;
  EventHandle(EventQueue* queue, std::uint32_t slot, std::uint32_t gen)
      : queue_(queue), slot_(slot), gen_(gen) {}
  EventQueue* queue_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint32_t gen_ = 0;
};

class EventQueue {
 public:
  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  // Schedule `fn` to fire at `when`; the handle allows cancellation.
  // Debug builds abort when `when` lies behind the latest popped timestamp:
  // such an event would otherwise silently execute "in the past" on the next
  // pop, corrupting every downstream measurement. (Simulator::schedule_at
  // already rejects when < now(); this check also covers direct EventQueue
  // users.)
  EventHandle schedule(TimePoint when, EventFn fn);

  // Move the live event behind `handle` to `when`, keeping its callback.
  // It draws a fresh sequence number, so it fires after every event already
  // scheduled at `when` — the order cancel + schedule would give. Returns
  // false, changing nothing, when the handle is not pending (fired,
  // cancelled, default-constructed or from another queue). The same
  // past-time check as schedule() applies.
  bool reschedule(EventHandle& handle, TimePoint when);

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

  // Timestamp of the earliest live event; TimePoint::max() when empty.
  TimePoint next_time() const {
    return heap_.empty() ? TimePoint::max() : heap_.front().time;
  }

  // Pop and return the earliest live event. Precondition: !empty().
  struct Fired {
    TimePoint time;
    EventFn fn;
  };
  Fired pop();

 private:
  friend class EventHandle;

  struct Entry {
    TimePoint time;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  struct Slot {
    EventFn fn;
    std::uint32_t gen = 0;
    std::uint32_t pos = 0;  // index of this slot's entry in heap_
  };

  static bool before(const Entry& a, const Entry& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }
  bool live(std::uint32_t slot, std::uint32_t gen) const {
    return slots_[slot].gen == gen;
  }
  void check_not_past(TimePoint when) const;
  void place(std::size_t pos, const Entry& entry);
  void sift_up(std::size_t pos);
  void sift_down(std::size_t pos);
  // Re-establish heap order around `pos` after its entry changed.
  void restore(std::size_t pos);
  void remove_at(std::size_t pos);
  void release(std::uint32_t slot);
  void cancel_slot(std::uint32_t slot);

  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<Entry> heap_;
  std::uint64_t next_seq_ = 0;
  TimePoint last_popped_ = TimePoint::min();  // updated by pop()
};

inline bool EventHandle::pending() const {
  return queue_ != nullptr && queue_->live(slot_, gen_);
}

inline TimePoint EventHandle::time() const {
  if (!pending()) return TimePoint::max();
  return queue_->heap_[queue_->slots_[slot_].pos].time;
}

inline bool EventHandle::cancel() {
  if (!pending()) return false;
  queue_->cancel_slot(slot_);
  return true;
}

}  // namespace fdqos::sim
