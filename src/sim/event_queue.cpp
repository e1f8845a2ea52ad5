#include "sim/event_queue.hpp"

#include <cstdio>

#include "common/assert.hpp"

namespace fdqos::sim {

EventHandle EventQueue::schedule(TimePoint when, EventFn fn) {
#ifndef NDEBUG
  if (when < last_popped_) {
    std::fprintf(stderr,
                 "fdqos: event queue 'sim': event scheduled in the past "
                 "(when=%s, latest executed=%s) — the scheduling layer must "
                 "never target a timestamp behind the clock\n",
                 when.to_string().c_str(), last_popped_.to_string().c_str());
  }
#endif
  FDQOS_DASSERT(when >= last_popped_);
  auto node = std::make_shared<Node>();
  node->time = when;
  node->seq = next_seq_++;
  node->fn = std::move(fn);
  heap_.push(node);
  ++live_count_;
  return EventHandle{node, this};
}

void EventQueue::drop_cancelled_head() {
  while (!heap_.empty() && heap_.top()->cancelled) {
    heap_.pop();
  }
}

TimePoint EventQueue::next_time() const {
  // const_cast-free variant: scan by copying is wasteful; instead rely on
  // drop_cancelled_head having been called by mutating operations and do a
  // lazy check here over the (possibly cancelled) head.
  auto* self = const_cast<EventQueue*>(this);
  self->drop_cancelled_head();
  if (heap_.empty()) return TimePoint::max();
  return heap_.top()->time;
}

EventQueue::Fired EventQueue::pop() {
  drop_cancelled_head();
  FDQOS_REQUIRE(!heap_.empty());
  auto node = heap_.top();
  heap_.pop();
  --live_count_;
  // The heap guarantees monotone pops; track the frontier so schedule() can
  // reject events that would land behind it (see header).
  last_popped_ = node->time;
  return Fired{node->time, std::move(node->fn)};
}

bool EventHandle::cancel() {
  auto node = node_.lock();
  if (!node || node->cancelled) return false;
  node->cancelled = true;
  node->fn = nullptr;  // release captured resources eagerly
  if (queue_ != nullptr) --queue_->live_count_;
  return true;
}

bool EventHandle::pending() const {
  auto node = node_.lock();
  return node && !node->cancelled;
}

TimePoint EventHandle::time() const {
  auto node = node_.lock();
  if (!node || node->cancelled) return TimePoint::max();
  return node->time;
}

}  // namespace fdqos::sim
