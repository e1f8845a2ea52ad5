#include "faultx/step_clock.hpp"

#include <algorithm>

namespace fdqos::faultx {

void StepClock::add_step(TimePoint at, Duration offset) {
  auto it = std::upper_bound(
      steps_.begin(), steps_.end(), at,
      [](TimePoint t, const auto& step) { return t < step.first; });
  steps_.insert(it, {at, offset});
}

Duration StepClock::error_at(TimePoint global) const {
  // Schedules hold a handful of jumps; a linear sum over the time-sorted
  // raw offsets beats maintaining cumulative state on insert.
  Duration error = Duration::zero();
  for (const auto& [at, offset] : steps_) {
    if (at > global) break;
    error += offset;
  }
  return error;
}

}  // namespace fdqos::faultx
