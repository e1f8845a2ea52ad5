#include "sim/event_queue.hpp"

#include <cstdio>

#include "common/assert.hpp"

namespace fdqos::sim {

void EventQueue::check_not_past(TimePoint when) const {
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
}

EventHandle EventQueue::schedule(TimePoint when, EventFn fn) {
  check_not_past(when);
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  slots_[slot].fn = std::move(fn);
  heap_.push_back(Entry{when, next_seq_++, slot});
  sift_up(heap_.size() - 1);
  return EventHandle{this, slot, slots_[slot].gen};
}

bool EventQueue::reschedule(EventHandle& handle, TimePoint when) {
  if (handle.queue_ != this || !live(handle.slot_, handle.gen_)) return false;
  check_not_past(when);
  const std::size_t pos = slots_[handle.slot_].pos;
  heap_[pos].time = when;
  heap_[pos].seq = next_seq_++;
  restore(pos);
  return true;
}

EventQueue::Fired EventQueue::pop() {
  FDQOS_REQUIRE(!heap_.empty());
  const Entry top = heap_.front();
  remove_at(0);
  // The heap guarantees monotone pops; track the frontier so schedule() can
  // reject events that would land behind it (see header).
  last_popped_ = top.time;
  Fired fired{top.time, std::move(slots_[top.slot].fn)};
  release(top.slot);
  return fired;
}

void EventQueue::place(std::size_t pos, const Entry& entry) {
  heap_[pos] = entry;
  slots_[entry.slot].pos = static_cast<std::uint32_t>(pos);
}

void EventQueue::sift_up(std::size_t pos) {
  const Entry entry = heap_[pos];
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 2;
    if (!before(entry, heap_[parent])) break;
    place(pos, heap_[parent]);
    pos = parent;
  }
  place(pos, entry);
}

void EventQueue::sift_down(std::size_t pos) {
  const Entry entry = heap_[pos];
  const std::size_t n = heap_.size();
  for (;;) {
    std::size_t child = 2 * pos + 1;
    if (child >= n) break;
    if (child + 1 < n && before(heap_[child + 1], heap_[child])) ++child;
    if (!before(heap_[child], entry)) break;
    place(pos, heap_[child]);
    pos = child;
  }
  place(pos, entry);
}

void EventQueue::remove_at(std::size_t pos) {
  const Entry last = heap_.back();
  heap_.pop_back();
  if (pos == heap_.size()) return;
  place(pos, last);
  restore(pos);
}

void EventQueue::restore(std::size_t pos) {
  if (pos > 0 && before(heap_[pos], heap_[(pos - 1) / 2])) {
    sift_up(pos);
  } else {
    sift_down(pos);
  }
}

void EventQueue::release(std::uint32_t slot) {
  slots_[slot].fn = nullptr;  // release captured resources eagerly
  ++slots_[slot].gen;
  free_slots_.push_back(slot);
}

void EventQueue::cancel_slot(std::uint32_t slot) {
  remove_at(slots_[slot].pos);
  release(slot);
}

}  // namespace fdqos::sim
