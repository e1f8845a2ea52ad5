// Shared plumbing of the benchmark: clocks, quantiles, the metric map and
// the result/run-record output.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

// steady_clock nanoseconds — the clock the daemon and the generator share.
std::int64_t now_ns();
// CPU time of the whole process / of the calling thread, nanoseconds.
std::int64_t process_cpu_ns();
std::int64_t thread_cpu_ns();
// Peak resident set of this process, MB (getrusage ru_maxrss).
double peak_rss_mb();
// Thread placement for the serve workloads, so the daemon never shares a
// CPU with the generator or the observer and its batching does not depend
// on where the scheduler happened to put the threads. With nproc ≥ 3 the
// generator and the observer share the last two CPUs and the daemon (and
// any thread it starts) gets the rest. With fewer CPUs threads stay
// unpinned.
enum class Role { kDaemon, kGenerator, kObserver };
void pin_current_thread(Role role);

// Sleeps until steady_clock reaches `deadline_ns` (absolute).
void sleep_until_ns(std::int64_t deadline_ns);

// Quantile with linear interpolation between order statistics, q in [0, 1].
// The input is copied; an empty input yields 0.
double quantile(std::vector<double> values, double q);
double median(const std::vector<double>& values);

// 64-bit FNV-1a of a byte string.
std::uint64_t fnv1a(const std::string& bytes);

struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

// What one workload run reports before it is printed.
struct Outcome {
  bool correct = true;
  std::vector<std::string> failures;  // one line per failed output check
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Metrics metrics;

  void check(bool ok, const std::string& what);
  void set(const std::string& name, double value, const std::string& unit);
};

struct RunRecord {
  std::string workload;
  std::string commit;  // git commit, or a digest of the sources when the
                       // checkout is not a git repository
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
};

// Prints the run record as one JSON line, then the result object as the
// last line of stdout.
void print_outcome(const RunRecord& record, const Outcome& outcome);

}  // namespace perfbench
