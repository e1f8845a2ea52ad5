#include "sim/simulator.hpp"

#include <cstdio>

#include "common/assert.hpp"

namespace fdqos::sim {

void Simulator::check_not_past(TimePoint when, const char* op) const {
  if (when < now_) {
    std::fprintf(stderr,
                 "fdqos: simulator 'sim': %s targets the past "
                 "(when=%s < now=%s)\n",
                 op, when.to_string().c_str(), now_.to_string().c_str());
  }
  FDQOS_REQUIRE(when >= now_);
}

EventHandle Simulator::schedule_at(TimePoint when, EventFn fn) {
  check_not_past(when, "schedule_at");
  return queue_.schedule(when, std::move(fn));
}

bool Simulator::reschedule(EventHandle& handle, TimePoint when) {
  check_not_past(when, "reschedule");
  return queue_.reschedule(handle, when);
}

EventHandle Simulator::schedule_after(Duration delay, EventFn fn) {
  FDQOS_REQUIRE(delay >= Duration::zero());
  return queue_.schedule(now_ + delay, std::move(fn));
}

void Simulator::execute(EventQueue::Fired fired) {
  // The queue pops in timestamp order and schedule_at rejects past targets,
  // so a regressing event means the queue was fed behind the clock's back
  // (e.g. a raw EventQueue::schedule). Catch it here instead of silently
  // executing the event at a time it was never scheduled for.
#ifndef NDEBUG
  if (fired.time < now_) {
    std::fprintf(stderr,
                 "fdqos: simulator 'sim': event executes in the past "
                 "(event time=%s, clock=%s)\n",
                 fired.time.to_string().c_str(), now_.to_string().c_str());
  }
#endif
  FDQOS_DASSERT(fired.time >= now_);
  now_ = fired.time;
  fired.fn();
  ++executed_;
}

std::uint64_t Simulator::run_until(TimePoint deadline) {
  std::uint64_t count = 0;
  while (!queue_.empty() && queue_.next_time() <= deadline) {
    execute(queue_.pop());
    ++count;
  }
  // Advance the clock to a finite deadline even if no event lands exactly
  // there, so consecutive run_until calls observe monotonic time. An
  // unbounded run (run()) leaves it at the last event: parking it at max()
  // would overflow the next schedule_after().
  if (now_ < deadline && deadline != TimePoint::max()) now_ = deadline;
  return count;
}

std::uint64_t Simulator::run() { return run_until(TimePoint::max()); }

bool Simulator::step() {
  if (queue_.empty()) return false;
  execute(queue_.pop());
  return true;
}

}  // namespace fdqos::sim
