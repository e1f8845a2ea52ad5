// Metrics registry (runtime observability, DESIGN.md §obs).
//
// The experiment harness measures failure detectors; this module measures
// the harness itself. Three instrument kinds in the Prometheus data model:
//
//   Counter    monotonically increasing u64 (events: heartbeats, refits)
//   Gauge      last-written double (levels: current run, suspecting count)
//   Histogram  fixed log-scale (1-2-5 decade) buckets (durations, sizes)
//
// Instruments live in labeled families inside a Registry. Registration
// takes a mutex; the returned reference is stable for the registry's
// lifetime, so hot paths register once, cache the handle, and then touch
// only relaxed atomics — no locks per event. A process-wide registry
// (`Registry::global()`) backs the built-in instrumentation; experiments
// and tests can also own private instances.
//
// Instrumentation is disabled by default: `obs::enabled()` is one relaxed
// atomic load, and every built-in instrumentation site checks it before
// touching clocks or instruments, so an un-observed run pays nothing
// measurable (see bench_overhead_microbench's obs/* series).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "stats/quantiles.hpp"

namespace fdqos::obs {

namespace detail {
inline std::atomic<bool> g_enabled{false};
}  // namespace detail

// Global instrumentation switch. Off by default; the CLI flips it on when
// any of --metrics-out / --trace-out / --progress is given.
inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}
inline void set_enabled(bool on) {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

// Label set of one instrument, e.g. {{"outcome", "accepted"}}. Keys are
// sorted at registration so equal sets always address the same instrument.
using Labels = std::vector<std::pair<std::string, std::string>>;

class Counter {
 public:
  void inc(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  void add(double delta);
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

// Histogram over 20 fixed log-scale buckets plus a +Inf overflow bucket.
// The bounds are chosen per family at registration: the default ladder is a
// 1-2-5 series per decade from 1 to 5e6 (built-in instruments observe
// microseconds and say so in the name); seconds_bounds() spans 10 µs to
// 20 s for families observed in seconds.
//
// Next to the buckets, every histogram carries three streaming P²
// quantile sketches (p50/p95/p99) so a live scrape gets sharp quantile
// summaries without Prometheus-side bucket interpolation. The sketches
// sit behind a small mutex — the only non-atomic state on the observe()
// path — which costs ~a CAS when uncontended and is only ever touched
// while obs is enabled (see bench obs/hist_observe_enabled).
class Histogram {
 public:
  static constexpr std::size_t kBucketCount = 20;  // finite bounds
  // Ascending finite upper bounds; bucket i counts observations v with
  // bound[i-1] < v <= bound[i] (Prometheus `le` semantics).
  using Bounds = std::array<double, kBucketCount>;
  // The quantiles every histogram summarizes, exposed in the text
  // exposition as gauge families `<name>_p50/_p95/_p99`.
  static constexpr std::array<double, 3> kSummaryQuantiles = {0.5, 0.95, 0.99};
  // The default ladder, 1 .. 5e6.
  static const Bounds& bucket_bounds();
  // 1-2-5 per decade over [1e-5, 20]: seconds from 10 µs to 20 s.
  static const Bounds& seconds_bounds();

  // `bounds` must have static storage duration (one of the ladders above).
  explicit Histogram(const Bounds& bounds = bucket_bounds())
      : bounds_(&bounds) {}

  const Bounds& bounds() const { return *bounds_; }
  void observe(double v);

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  // Non-cumulative count of bucket i; i == kBucketCount is the +Inf bucket.
  std::uint64_t bucket_count(std::size_t i) const;
  // Streaming estimate for one of kSummaryQuantiles (anything else
  // aborts); NaN before the first observation.
  double quantile_estimate(double q) const;

 private:
  const Bounds* bounds_;
  std::array<std::atomic<std::uint64_t>, kBucketCount + 1> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  mutable std::mutex sketch_mu_;
  stats::P2Quantile p50_{0.5};
  stats::P2Quantile p95_{0.95};
  stats::P2Quantile p99_{0.99};
};

enum class MetricType { kCounter, kGauge, kHistogram };

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  // Look up or create the instrument `name{labels}`. The same (name,
  // labels) always yields the same instrument; re-registering a name with
  // a different type aborts (it would corrupt the exposition).
  Counter& counter(const std::string& name, const std::string& help,
                   const Labels& labels = {});
  Gauge& gauge(const std::string& name, const std::string& help,
               const Labels& labels = {});
  // A family's bucket bounds are fixed by its first registration;
  // re-registering it with other bounds aborts.
  Histogram& histogram(const std::string& name, const std::string& help,
                       const Labels& labels = {},
                       const Histogram::Bounds& bounds =
                           Histogram::bucket_bounds());

  // Prometheus text exposition format (families sorted by name, label sets
  // sorted within a family — deterministic for golden tests).
  std::string to_prometheus() const;
  // One JSON object per line per instrument — the repo's JSONL convention
  // shared with stats::EventLog and obs::TraceWriter.
  std::string to_jsonl() const;

  bool save_prometheus(const std::string& path) const;
  bool save_jsonl(const std::string& path) const;

  std::size_t family_count() const;

  // The process-wide registry behind obs::instruments().
  static Registry& global();

 private:
  struct Instrument {
    Labels labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  struct Family {
    std::string help;
    MetricType type = MetricType::kCounter;
    const Histogram::Bounds* bounds = nullptr;  // histogram families only
    // Keyed by the canonical rendered label string ("" for no labels).
    std::map<std::string, Instrument> instruments;
  };

  Instrument& instrument(const std::string& name, const std::string& help,
                         MetricType type, const Labels& labels,
                         const Histogram::Bounds* bounds = nullptr);

  mutable std::mutex mu_;
  std::map<std::string, Family> families_;
};

// Renders labels canonically: `k1="v1",k2="v2"` sorted by key ("" when
// empty). Exposed for the exposition writers and tests.
std::string render_labels(const Labels& labels);

}  // namespace fdqos::obs
