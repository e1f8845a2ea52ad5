#include "record.hpp"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {
std::int64_t clock_ns(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

// JSON has no NaN/Inf; a value that is not finite is printed as 0 and the
// run is already marked incorrect by whoever produced it.
std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}
}  // namespace

std::int64_t process_cpu_ns() { return clock_ns(CLOCK_PROCESS_CPUTIME_ID); }
std::int64_t thread_cpu_ns() { return clock_ns(CLOCK_THREAD_CPUTIME_ID); }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void pin_current_thread(Role role) {
  const unsigned n = std::thread::hardware_concurrency();
  if (n < 3) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (unsigned cpu = 0; cpu < n; ++cpu) {
    if ((cpu + 2 < n) == (role == Role::kDaemon)) CPU_SET(cpu, &set);
  }
  pthread_setaffinity_np(pthread_self(), sizeof set, &set);
}

void sleep_until_ns(std::int64_t deadline_ns) {
  std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
      std::chrono::nanoseconds(deadline_ns)));
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

void Outcome::check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  failures.push_back(what);
}

void Outcome::set(const std::string& name, double value,
                  const std::string& unit) {
  metrics[name] = Metric{value, unit};
}

void print_outcome(const RunRecord& record, const Outcome& outcome) {
  for (const std::string& failure : outcome.failures) {
    std::fprintf(stderr, "perfbench: output check failed: %s\n",
                 failure.c_str());
  }
  std::printf(
      "{\"run_record\": {\"workload\": %s, \"commit\": %s, \"seed\": %llu, "
      "\"seconds\": %s, "
      "\"trace\": %s, \"nproc\": %u, \"compiler\": %s, \"build_type\": %s, "
      "\"traffic\": \"loopback\"}}\n",
      json_string(record.workload).c_str(), json_string(record.commit).c_str(),
      static_cast<unsigned long long>(record.seed),
      json_number(record.seconds).c_str(), record.trace ? "true" : "false",
      std::thread::hardware_concurrency(), json_string(__VERSION__).c_str(),
      json_string(PERFBENCH_BUILD_TYPE).c_str());

  std::string metrics;
  for (const auto& [name, metric] : outcome.metrics) {
    if (!metrics.empty()) metrics += ", ";
    metrics += json_string(name) + ": {\"value\": " +
               json_number(metric.value) +
               ", \"unit\": " + json_string(metric.unit) + "}";
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      outcome.correct ? "true" : "false",
      static_cast<unsigned long long>(outcome.attempted),
      static_cast<unsigned long long>(outcome.failed), metrics.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
