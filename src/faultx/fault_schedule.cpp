#include "faultx/fault_schedule.hpp"

#include <cmath>
#include <cstdio>
#include <vector>

#include "common/assert.hpp"

namespace fdqos::faultx {
namespace {

bool in_window(TimePoint t, TimePoint start, Duration duration) {
  return t >= start && t < start + duration;
}

bool valid_prob(double p) { return p >= 0.0 && p <= 1.0; }

bool valid_chain(const wan::GilbertElliottLoss::Params& c) {
  return valid_prob(c.p_good_to_bad) && valid_prob(c.p_bad_to_good) &&
         valid_prob(c.loss_good) && valid_prob(c.loss_bad);
}

std::string window_str(TimePoint start, Duration duration) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "t=[%.1fs,%.1fs)",
                start.to_seconds_double(),
                (start + duration).to_seconds_double());
  return buf;
}

}  // namespace

FaultSchedule& FaultSchedule::spike(TimePoint start, Duration duration,
                                    Duration extra) {
  FDQOS_REQUIRE(duration >= Duration::zero());
  FDQOS_REQUIRE(extra >= Duration::zero());
  spikes_.push_back({start, duration, extra});
  return *this;
}

FaultSchedule& FaultSchedule::ramp(TimePoint start, Duration duration,
                                   Duration peak) {
  FDQOS_REQUIRE(duration > Duration::zero());
  FDQOS_REQUIRE(peak >= Duration::zero());
  ramps_.push_back({start, duration, peak});
  return *this;
}

FaultSchedule& FaultSchedule::burst_loss(TimePoint start, Duration duration,
                                         wan::GilbertElliottLoss::Params chain) {
  FDQOS_REQUIRE(duration >= Duration::zero());
  FDQOS_REQUIRE(valid_chain(chain));
  bursts_.push_back({start, duration, chain});
  return *this;
}

FaultSchedule& FaultSchedule::reorder(TimePoint start, Duration duration,
                                      double prob, Duration shuffle) {
  FDQOS_REQUIRE(duration >= Duration::zero());
  FDQOS_REQUIRE(valid_prob(prob));
  FDQOS_REQUIRE(shuffle >= Duration::zero());
  reorders_.push_back({start, duration, prob, shuffle});
  return *this;
}

FaultSchedule& FaultSchedule::duplicate(TimePoint start, Duration duration,
                                        double prob) {
  FDQOS_REQUIRE(duration >= Duration::zero());
  FDQOS_REQUIRE(valid_prob(prob));
  duplicates_.push_back({start, duration, prob});
  return *this;
}

FaultSchedule& FaultSchedule::partition(TimePoint start, Duration duration) {
  FDQOS_REQUIRE(duration >= Duration::zero());
  partitions_.push_back({start, duration});
  return *this;
}

FaultSchedule& FaultSchedule::flap(TimePoint start, Duration duration,
                                   Duration period, double duty_off) {
  FDQOS_REQUIRE(duration >= Duration::zero());
  FDQOS_REQUIRE(period > Duration::zero());
  FDQOS_REQUIRE(valid_prob(duty_off));
  flaps_.push_back({start, duration, period, duty_off});
  return *this;
}

FaultSchedule& FaultSchedule::clock_jump(TimePoint at, Duration offset) {
  jumps_.push_back({at, offset});
  clock_.add_step(at, offset);
  return *this;
}

Duration FaultSchedule::deterministic_extra_delay(TimePoint t) const {
  Duration extra = Duration::zero();
  for (const auto& s : spikes_) {
    if (in_window(t, s.start, s.duration)) extra += s.extra;
  }
  for (const auto& r : ramps_) {
    if (in_window(t, r.start, r.duration)) {
      const double frac = (t - r.start).to_seconds_double() /
                          r.duration.to_seconds_double();
      extra += r.peak.scaled(frac);
    }
  }
  return extra;
}

Duration FaultSchedule::reorder_extra(Rng& rng, TimePoint t) const {
  Duration extra = Duration::zero();
  for (const auto& r : reorders_) {
    if (in_window(t, r.start, r.duration) && rng.bernoulli(r.prob)) {
      extra += r.shuffle;
    }
  }
  return extra;
}

bool FaultSchedule::link_down(TimePoint t) const {
  for (const auto& p : partitions_) {
    if (in_window(t, p.start, p.duration)) return true;
  }
  for (const auto& f : flaps_) {
    if (!in_window(t, f.start, f.duration)) continue;
    const std::int64_t phase_ns =
        (t - f.start).count_nanos() % f.period.count_nanos();
    const double phase =
        static_cast<double>(phase_ns) /
        static_cast<double>(f.period.count_nanos());
    if (phase < f.duty_off) return true;
  }
  return false;
}

double FaultSchedule::duplicate_prob(TimePoint t) const {
  double p_none = 1.0;
  for (const auto& d : duplicates_) {
    if (in_window(t, d.start, d.duration)) p_none *= 1.0 - d.prob;
  }
  return 1.0 - p_none;
}

std::size_t FaultSchedule::event_count() const {
  return spikes_.size() + ramps_.size() + bursts_.size() + reorders_.size() +
         duplicates_.size() + partitions_.size() + flaps_.size() +
         jumps_.size();
}

std::string FaultSchedule::describe() const {
  std::string out;
  char buf[160];
  for (const auto& s : spikes_) {
    std::snprintf(buf, sizeof buf, "%s  spike(+%s)\n",
                  window_str(s.start, s.duration).c_str(),
                  s.extra.to_string().c_str());
    out += buf;
  }
  for (const auto& r : ramps_) {
    std::snprintf(buf, sizeof buf, "%s  ramp(0->%s)\n",
                  window_str(r.start, r.duration).c_str(),
                  r.peak.to_string().c_str());
    out += buf;
  }
  for (const auto& b : bursts_) {
    std::snprintf(buf, sizeof buf,
                  "%s  burst-loss(gb=%.2g,bg=%.2g,lg=%.2g,lb=%.2g)\n",
                  window_str(b.start, b.duration).c_str(),
                  b.chain.p_good_to_bad, b.chain.p_bad_to_good,
                  b.chain.loss_good, b.chain.loss_bad);
    out += buf;
  }
  for (const auto& r : reorders_) {
    std::snprintf(buf, sizeof buf, "%s  reorder(p=%.2f,+%s)\n",
                  window_str(r.start, r.duration).c_str(), r.prob,
                  r.shuffle.to_string().c_str());
    out += buf;
  }
  for (const auto& d : duplicates_) {
    std::snprintf(buf, sizeof buf, "%s  duplicate(p=%.2f)\n",
                  window_str(d.start, d.duration).c_str(), d.prob);
    out += buf;
  }
  for (const auto& p : partitions_) {
    std::snprintf(buf, sizeof buf, "%s  partition\n",
                  window_str(p.start, p.duration).c_str());
    out += buf;
  }
  for (const auto& f : flaps_) {
    std::snprintf(buf, sizeof buf, "%s  flap(period=%s,off=%.0f%%)\n",
                  window_str(f.start, f.duration).c_str(),
                  f.period.to_string().c_str(), f.duty_off * 100.0);
    out += buf;
  }
  for (const auto& j : jumps_) {
    std::snprintf(buf, sizeof buf, "t=%.1fs  clock-jump(%+.0fms)\n",
                  j.at.to_seconds_double(), j.offset.to_millis_double());
    out += buf;
  }
  return out;
}

}  // namespace fdqos::faultx
