// Deterministic pending-event set for the discrete-event simulator.
//
// Events at equal timestamps fire in insertion order (a monotonically
// increasing sequence number breaks ties), which makes simulations
// bit-reproducible regardless of heap internals. Cancellation is O(1)
// (tombstone flag) because timeout-based failure detectors cancel timers on
// every heartbeat.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "common/time.hpp"

namespace fdqos::sim {

using EventFn = std::function<void()>;

class EventHandle;

class EventQueue {
 public:
  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  // Diagnostic label used by the past-event debug check ("sim", "lp2/...").
  void set_name(std::string name) { name_ = std::move(name); }
  const std::string& name() const { return name_; }

  // Schedule `fn` to fire at `when`; the handle allows cancellation.
  // Debug builds abort when `when` lies behind the latest popped timestamp:
  // such an event would otherwise silently execute "in the past" on the next
  // pop, corrupting every downstream measurement. (Simulator::schedule_at
  // already rejects when < now(); this check also covers direct EventQueue
  // users and the LP mailbox drain.)
  EventHandle schedule(TimePoint when, EventFn fn);

  bool empty() const { return live_count_ == 0; }
  std::size_t size() const { return live_count_; }

  // Timestamp of the earliest live event; TimePoint::max() when empty.
  TimePoint next_time() const;

  // Pop and return the earliest live event. Precondition: !empty().
  struct Fired {
    TimePoint time;
    EventFn fn;
  };
  Fired pop();

 private:
  friend class EventHandle;

  struct Node {
    TimePoint time;
    std::uint64_t seq;
    EventFn fn;
    bool cancelled = false;
  };
  struct Compare {
    bool operator()(const std::shared_ptr<Node>& a,
                    const std::shared_ptr<Node>& b) const {
      if (a->time != b->time) return a->time > b->time;  // min-heap
      return a->seq > b->seq;
    }
  };

  void drop_cancelled_head();

  std::priority_queue<std::shared_ptr<Node>, std::vector<std::shared_ptr<Node>>,
                      Compare>
      heap_;
  std::uint64_t next_seq_ = 0;
  std::size_t live_count_ = 0;
  std::string name_ = "sim";
  TimePoint last_popped_ = TimePoint::min();  // updated by pop()
};

// Weak handle to a scheduled event; cancel() is idempotent and safe after
// the event fired or the queue died.
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
  EventHandle(std::weak_ptr<EventQueue::Node> node, EventQueue* queue)
      : node_(std::move(node)), queue_(queue) {}
  std::weak_ptr<EventQueue::Node> node_;
  EventQueue* queue_ = nullptr;
};

}  // namespace fdqos::sim
