// StepClock — the monitored node's clock error as a step function.
//
// NTP slams, VM migrations and leap-second smears show up as discrete
// jumps, not smooth drift. Each step at time t adds `offset` to the clock
// error from t on; error_at sums every step at or before the queried
// instant. FaultSchedule uses it to inject clock jumps into the monitored
// node.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "common/time.hpp"

namespace fdqos::faultx {

class StepClock {
 public:
  // Register a jump of `offset` taking effect at `at` (global timeline).
  // Steps may be added in any order; queries see them sorted by time.
  void add_step(TimePoint at, Duration offset);

  // Accumulated clock error local(t) − t at global time t.
  Duration error_at(TimePoint global) const;

  TimePoint to_local(TimePoint global) const {
    return global + error_at(global);
  }

  std::size_t step_count() const { return steps_.size(); }
  bool empty() const { return steps_.empty(); }

 private:
  // (time, raw offset of this step), kept sorted by time.
  std::vector<std::pair<TimePoint, Duration>> steps_;
};

}  // namespace fdqos::faultx
