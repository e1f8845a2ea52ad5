// Output checks. Each takes the facts a workload produced and returns one
// line per violated check (empty = all hold). They check only facts that
// are deterministic for a correct program; lost heartbeats and false
// suspicions are failed operations or QoS numbers, never check failures.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "exp/qos_experiment.hpp"

namespace perfbench {

// FNV-1a of exp::qos_report_fingerprint for the `paper` workload at seed
// 42 (13 runs × 10 000 cycles, the full paper suite).
inline constexpr std::uint64_t kPaperSeed42Fingerprint = 0x466da1de186c98d1ULL;

// Paper: every report satisfies exp::qos_invariant_violations, every
// report's fingerprint equals the first (the first is taken at
// jobs = nproc, the others at nproc and 1), and at seed 42 the fingerprint
// hash equals the pinned value.
//
// Crash consistency is checked exactly per run instead of with the
// invariant's pooled bound. qos_invariant_violations allows one crash
// still pending at run end per *report* (crashes ≤ resolved + 1), but each
// of a report's runs may end with one pending: at seed 42 two of the 13
// runs do, and the function flags a correct report. So `pending` (per run,
// from the crash probe) must hold 0 or 1 each, every detector must report
// exactly crashes = detections + missed + Σ pending, and the function's
// pooled-bound violation is not counted on top.
std::vector<std::string> check_paper(
    const std::vector<const fdqos::exp::QosReport*>& reports,
    const std::vector<std::string>& fingerprints,
    const std::vector<std::uint64_t>& pending, std::uint64_t seed);

struct ServeFacts {
  std::size_t endpoints = 0;        // M
  std::size_t admitted = 0;         // FleetIngest::admitted()
  std::uint64_t drops_decode = 0;
  std::uint64_t drops_capacity = 0;
  std::uint64_t offered = 0;        // heartbeats the generator sent
  std::uint64_t ingested = 0;       // Stats::heartbeats
  std::uint64_t datagrams_sent = 0;
  std::uint64_t datagrams_received = 0;  // Stats::datagrams
  bool capture = false;
  std::uint64_t captured = 0;
  std::vector<std::string> segments;  // finalised capture segments
};

// Serve: no decode or capacity drops, every endpoint admitted, ingested ≤
// offered, received ≤ sent; with capture on, captured == ingested and the
// segments reload through wan::load_trace with sample counts summing to
// captured (capture off: nothing captured).
std::vector<std::string> check_serve(const ServeFacts& facts);

}  // namespace perfbench
