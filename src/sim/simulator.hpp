// Discrete-event simulator with virtual time.
//
// The QoS experiment covers 13 runs × 10 000 s of virtual time; executing it
// in virtual time makes the full paper reproduction run in seconds and makes
// every run exactly repeatable from its seed. The same layer code also runs
// against the real UDP transport (see net/udp_transport.hpp) — the Neko
// property the experimental architecture depends on.
#pragma once

#include <cstdint>

#include "common/time.hpp"
#include "sim/event_queue.hpp"

namespace fdqos::sim {

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  TimePoint now() const { return now_; }

  EventHandle schedule_at(TimePoint when, EventFn fn);
  EventHandle schedule_after(Duration delay, EventFn fn);

  // Move the pending event behind `handle` to `when` (≥ now()) in place;
  // it orders exactly like cancel + schedule_at. Returns false, changing
  // nothing, when the handle is not pending.
  bool reschedule(EventHandle& handle, TimePoint when);

  // Run until the queue drains or `deadline` passes (events at exactly
  // `deadline` still fire), then advance the clock to a finite `deadline`.
  // Returns the number of events executed.
  std::uint64_t run_until(TimePoint deadline);

  // Run until the queue is completely drained. The clock stays at the last
  // executed event's time, so later schedule_after() calls stay finite.
  std::uint64_t run();

  // Execute at most one event; returns false when none is pending.
  bool step();

  std::uint64_t executed_events() const { return executed_; }
  std::size_t pending_events() const { return queue_.size(); }

  // Timestamp of the earliest pending event; TimePoint::max() when idle.
  // Used by the real-time driver to size its poll timeout.
  TimePoint next_event_time() const { return queue_.next_time(); }

 private:
  void check_not_past(TimePoint when, const char* op) const;
  void execute(EventQueue::Fired fired);

  EventQueue queue_;
  TimePoint now_ = TimePoint::origin();
  std::uint64_t executed_ = 0;
};

}  // namespace fdqos::sim
