// Live detection time (T_D) of crash-recovery blocks, read from outside
// the daemon.
//
// The observer thread polls two public obs counters while the daemon
// runs: the net number of suspicions (fd_transitions_to_suspect −
// fd_transitions_to_trust) and the datagrams the daemon has drained
// (serve_datagrams_total). It keeps one sample per change.
//
// Attribution afterwards. Block b's last heartbeat was sent at L_b in the
// burst that brought the generator's datagram count to n_b; the daemon has
// drained that burst at A_b, the first sample whose datagram count reaches
// n_b. A Last-predictor detector suspects no earlier than one period after
// it received the last heartbeat, and it received it after L_b, so the
// block's detection is searched in [L_b + η, A_b + η + width]. Blocks start
// more than `width` apart, so under a daemon that keeps up no other block
// is detected inside the window. The block counts as detected at the first
// sample where the net suspicion count stands at least size − tolerance
// above its running minimum since the window opened, and still does
// `persist` later. The minimum absorbs other blocks recovering (each a step
// down of one block) before the detection; during the persistence check
// the recoveries of earlier detected blocks (drained at their resume
// burst, count r_b) are added back. The persistence rejects false
// suspicions of a whole phase group, which share one burst and end as soon
// as the late burst is drained. T_D is the detection instant minus L_b. A
// block with no such sample is censored.
#pragma once

#include <time.h>

#include <atomic>
#include <cstdint>
#include <vector>

namespace perfbench {

struct CounterSample {
  std::int64_t t_ns = 0;
  std::int64_t suspected = 0;   // net suspicions since the observer started
  std::uint64_t datagrams = 0;  // datagrams drained since the observer started
};

// CPU clocks read every `cpu_every_ns`, so the daemon's CPU per
// heartbeat can be taken per sub-window.
struct CpuSample {
  std::int64_t t_ns = 0;
  std::int64_t process_ns = 0;
  std::int64_t generator_ns = 0;  // −1 once the generator has exited
  std::int64_t observer_ns = 0;
  std::uint64_t datagrams = 0;  // drained since the observer started
};

struct ObserverLog {
  std::vector<CounterSample> samples;
  std::vector<CpuSample> cpu;
  std::int64_t cpu_ns = 0;  // CPU time of the observer thread
};

// Polls the counters every `poll_ns` until `stop` is set; sets `ready`
// once the baselines are taken. `generator_clock` is the generator
// thread's CPU clock.
ObserverLog observe_counters(const std::atomic<bool>& stop,
                             std::atomic<bool>& ready, std::int64_t poll_ns,
                             clockid_t generator_clock,
                             std::int64_t cpu_every_ns);

struct BlockEvidence {
  std::int64_t last_send_ns = 0;     // L_b
  std::uint64_t datagrams = 0;       // n_b
  std::uint64_t resume_datagrams = 0;  // r_b
  std::size_t size = 0;              // endpoints in the block
};

struct AttributionParams {
  std::int64_t eta_ns = 0;
  std::int64_t width_ns = 0;
  std::int64_t persist_ns = 2'000'000;
  double tolerance_frac = 0.05;  // of the block size
};

struct BlockDetection {
  bool detected = false;
  double td_ms = 0.0;  // censored blocks: the window end − L_b (lower bound)
};

std::vector<BlockDetection> attribute_blocks(
    const std::vector<CounterSample>& samples,
    const std::vector<BlockEvidence>& blocks, const AttributionParams& params);

}  // namespace perfbench
