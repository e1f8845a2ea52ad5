// faultx — deterministic fault injection for the WAN simulation stack.
//
// The paper's detectors were evaluated on a "quite stable" Italy→Japan
// path; this subsystem asks what happens when the path misbehaves. A
// FaultSchedule is an immutable, time-indexed catalogue of fault events —
// delay spikes and ramps, Gilbert–Elliott burst-loss overrides, packet
// reorder and duplication windows, full partitions with heal, link flaps,
// and monitored-clock jumps — that the wrapper models in fault_models.hpp
// consult per message. The schedule itself holds no per-message state and
// draws no randomness of its own, so one schedule can be shared (const)
// across every concurrent experiment run: all stochastic fault decisions
// flow through the per-run RNG substreams the wrappers are handed, keeping
// chaos runs exactly as reproducible as nominal ones.
//
// All windows are half-open [start, start+duration) on the run's global
// virtual timeline.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/time.hpp"
#include "faultx/step_clock.hpp"
#include "wan/loss_model.hpp"

namespace fdqos::faultx {

// Constant additive delay while active — a congestion plateau or a route
// change onto a longer path.
struct DelaySpike {
  TimePoint start;
  Duration duration = Duration::zero();
  Duration extra = Duration::zero();
};

// Additive delay ramping linearly 0 → peak over the window, then vanishing
// — a queue slowly filling. The classic divergence trap for timeout
// estimators (Jain: each observation is stale by the time it is used).
struct DelayRamp {
  TimePoint start;
  Duration duration = Duration::zero();
  Duration peak = Duration::zero();
};

// While active, an *additional* Gilbert–Elliott chain (owned by the
// FaultyLoss wrapper) decides drops on top of the base loss model.
struct BurstLoss {
  TimePoint start;
  Duration duration = Duration::zero();
  wan::GilbertElliottLoss::Params chain;
};

// While active, each message independently receives `shuffle` extra delay
// with probability `prob` — late stragglers overtaking their successors.
struct ReorderBurst {
  TimePoint start;
  Duration duration = Duration::zero();
  double prob = 0.0;
  Duration shuffle = Duration::zero();
};

// While active, each message is duplicated with probability `prob`
// (violating the fair-lossy "never duplicates" assumption on purpose).
struct DuplicateBurst {
  TimePoint start;
  Duration duration = Duration::zero();
  double prob = 0.0;
};

// Full partition: every message sent in the window is dropped.
struct Partition {
  TimePoint start;
  Duration duration = Duration::zero();
};

// Link flapping: within the window the link cycles with `period`, down for
// the first duty_off fraction of each period, up for the rest.
struct LinkFlap {
  TimePoint start;
  Duration duration = Duration::zero();
  Duration period = Duration::seconds(1);
  double duty_off = 0.5;
};

// Monitored-node clock step at `at` by `offset` (local − global). A
// negative offset sets the clock back, which delays every subsequent
// heartbeat emission by |offset| as seen on the global timeline.
struct ClockJump {
  TimePoint at;
  Duration offset = Duration::zero();
};

class FaultSchedule {
 public:
  // Builder interface; every method validates its parameters (aborting via
  // FDQOS_REQUIRE on nonsense) and returns *this for chaining.
  FaultSchedule& spike(TimePoint start, Duration duration, Duration extra);
  FaultSchedule& ramp(TimePoint start, Duration duration, Duration peak);
  FaultSchedule& burst_loss(TimePoint start, Duration duration,
                            wan::GilbertElliottLoss::Params chain);
  FaultSchedule& reorder(TimePoint start, Duration duration, double prob,
                         Duration shuffle);
  FaultSchedule& duplicate(TimePoint start, Duration duration, double prob);
  FaultSchedule& partition(TimePoint start, Duration duration);
  FaultSchedule& flap(TimePoint start, Duration duration, Duration period,
                      double duty_off);
  FaultSchedule& clock_jump(TimePoint at, Duration offset);

  // --- Per-message queries (used by the wrapper models) ---

  // Sum of active spike plateaus and ramp levels. Pure in t.
  Duration deterministic_extra_delay(TimePoint t) const;

  // Reorder contribution: consumes one Bernoulli draw per active window,
  // and none when no window is active — outside fault windows the wrapped
  // model's RNG sequence is untouched.
  Duration reorder_extra(Rng& rng, TimePoint t) const;

  // Extra one-way delay induced by the monitored clock's current error:
  // −error (a clock set back delays emissions; a clock set forward sends
  // early, which the caller clamps at physics' floor of zero total delay).
  Duration clock_hold(TimePoint t) const { return -clock_.error_at(t); }

  // True when a partition or a flap's off-phase covers t.
  bool link_down(TimePoint t) const;

  // Probability that a message sent at t is duplicated (0 outside windows;
  // overlapping windows combine as independent coin flips).
  double duplicate_prob(TimePoint t) const;

  const std::vector<BurstLoss>& bursts() const { return bursts_; }
  const StepClock& clock() const { return clock_; }

  bool empty() const { return event_count() == 0; }
  std::size_t event_count() const;

  // Human-readable catalogue, one "t=..s  kind(...)" line per event.
  std::string describe() const;

 private:
  std::vector<DelaySpike> spikes_;
  std::vector<DelayRamp> ramps_;
  std::vector<BurstLoss> bursts_;
  std::vector<ReorderBurst> reorders_;
  std::vector<DuplicateBurst> duplicates_;
  std::vector<Partition> partitions_;
  std::vector<LinkFlap> flaps_;
  std::vector<ClockJump> jumps_;
  StepClock clock_;
};

}  // namespace fdqos::faultx
