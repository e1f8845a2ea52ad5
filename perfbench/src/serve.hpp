// The serve workloads: an in-process fdqos serve daemon (serve::ServeDaemon)
// fed over loopback by the schedule-true generator, with the observer
// thread reading detection times from the daemon's obs counters.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "record.hpp"

namespace perfbench {

struct ServeWorkload {
  std::string name;
  std::size_t endpoints = 0;
  std::int64_t eta_ns = 0;
  bool packed = false;
  bool capture = false;
  double window_share = 0.8;  // of --seconds spent at the fixed rate
};

// `serve-fleet` / `serve-aggregate`; nullptr for any other name.
const ServeWorkload* find_serve_workload(const std::string& name);

// Runs one serve workload for about `seconds` and fills `outcome` with its
// end-to-end metrics (trace = false) or its per-layer metrics (trace =
// true). Capture segments go under `work_dir`.
void run_serve(const ServeWorkload& workload, std::uint64_t seed,
               double seconds, bool trace, const std::string& work_dir,
               Outcome& outcome);

}  // namespace perfbench
