// Strongly-typed time primitives for the fdqos virtual/real timeline.
//
// All simulation and detector arithmetic uses integer nanoseconds so that
// event ordering is exact and runs are bit-reproducible. `Duration` is a
// signed span; `TimePoint` is an instant on the experiment's global timeline
// (the paper assumes NTP-synchronized clocks, so one global timeline
// suffices; faultx::StepClock injects monitored-clock jumps on top of it).
#pragma once

#include <cstdint>
#include <compare>
#include <limits>
#include <string>

namespace fdqos {

class Duration {
 public:
  constexpr Duration() = default;
  static constexpr Duration nanos(std::int64_t n) { return Duration{n}; }
  static constexpr Duration micros(std::int64_t u) { return Duration{u * 1000}; }
  static constexpr Duration millis(std::int64_t m) { return Duration{m * 1'000'000}; }
  static constexpr Duration seconds(std::int64_t s) { return Duration{s * 1'000'000'000}; }
  // Fractional constructors (rounded to nearest nanosecond).
  static Duration from_millis_double(double ms);
  static Duration from_seconds_double(double s);
  static constexpr Duration zero() { return Duration{0}; }
  static constexpr Duration max() {
    return Duration{std::numeric_limits<std::int64_t>::max()};
  }

  constexpr std::int64_t count_nanos() const { return ns_; }
  constexpr double to_millis_double() const { return static_cast<double>(ns_) / 1e6; }
  constexpr double to_seconds_double() const { return static_cast<double>(ns_) / 1e9; }

  constexpr auto operator<=>(const Duration&) const = default;

  constexpr Duration operator+(Duration o) const { return Duration{ns_ + o.ns_}; }
  constexpr Duration operator-(Duration o) const { return Duration{ns_ - o.ns_}; }
  constexpr Duration operator-() const { return Duration{-ns_}; }
  constexpr Duration operator*(std::int64_t k) const { return Duration{ns_ * k}; }
  constexpr Duration operator/(std::int64_t k) const { return Duration{ns_ / k}; }
  Duration& operator+=(Duration o) { ns_ += o.ns_; return *this; }
  Duration& operator-=(Duration o) { ns_ -= o.ns_; return *this; }

  // Scale by a real factor, rounding to nearest nanosecond.
  Duration scaled(double factor) const;

  std::string to_string() const;  // human-readable, e.g. "203.17ms"

 private:
  constexpr explicit Duration(std::int64_t ns) : ns_(ns) {}
  std::int64_t ns_ = 0;
};

class TimePoint {
 public:
  constexpr TimePoint() = default;
  static constexpr TimePoint from_nanos(std::int64_t n) { return TimePoint{n}; }
  static constexpr TimePoint origin() { return TimePoint{0}; }
  static constexpr TimePoint max() {
    return TimePoint{std::numeric_limits<std::int64_t>::max()};
  }
  static constexpr TimePoint min() {
    return TimePoint{std::numeric_limits<std::int64_t>::min()};
  }

  constexpr std::int64_t count_nanos() const { return ns_; }
  constexpr double to_seconds_double() const { return static_cast<double>(ns_) / 1e9; }
  constexpr double to_millis_double() const { return static_cast<double>(ns_) / 1e6; }

  constexpr auto operator<=>(const TimePoint&) const = default;

  constexpr TimePoint operator+(Duration d) const {
    return TimePoint{ns_ + d.count_nanos()};
  }
  constexpr TimePoint operator-(Duration d) const {
    return TimePoint{ns_ - d.count_nanos()};
  }
  constexpr Duration operator-(TimePoint o) const {
    return Duration::nanos(ns_ - o.ns_);
  }
  TimePoint& operator+=(Duration d) { ns_ += d.count_nanos(); return *this; }

  std::string to_string() const;

 private:
  constexpr explicit TimePoint(std::int64_t ns) : ns_(ns) {}
  std::int64_t ns_ = 0;
};

}  // namespace fdqos
