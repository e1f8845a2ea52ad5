// Internal engine surface of the QoS experiment — the per-unit simulation
// drivers behind exp::QosWorkload (exp/qos_workload.hpp).
//
// Everything here executes ONE independent seeded unit and returns its
// output by value; nothing reduces, prints or touches the report. The
// split (engines here, orchestration in QosWorkload, fan-out/join in
// run_workload) is the refactor seam that lets application workloads —
// leader election — reuse the exact engines and reductions
// without re-deriving the determinism rules.
//
// This header is internal to fdqos::exp and the workload layer: the
// `detail` namespace is the stability contract (no CLI or test should
// reach in except the byte-identity suite).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "exp/qos_experiment.hpp"
#include "faultx/fault_models.hpp"
#include "faultx/fault_schedule.hpp"
#include "obs/metrics.hpp"
#include "obs/progress.hpp"

namespace fdqos::exp::detail {

// Node ids of the two-process paper topology (Figure 3): every engine and
// every fleet endpoint uses this local pair on its own transport.
inline constexpr net::NodeId kMonitored = 0;
inline constexpr net::NodeId kMonitor = 1;

// Pooled per-detector accumulators across runs.
struct Pooled {
  stats::RunningStats td;
  stats::RunningStats tm;
  stats::RunningStats tmr;
  Duration up = Duration::zero();
  Duration wrong = Duration::zero();
  std::uint64_t crashes = 0;
  std::uint64_t detections = 0;
  std::uint64_t missed = 0;
  // One sample per run: that run's mean T_D / availability.
  stats::RunningStats per_run_td;
  stats::RunningStats per_run_availability;
};

// One finalized tracker folded into a pooled accumulator. Both engines
// (single endpoint, fleet) reduce through this one function in a fixed
// order, so the pooled moments never depend on the engine or on
// scheduling.
void merge_tracker(Pooled& p, const fd::QosTracker& tracker);

std::vector<FdQosResult> results_from_pooled(
    const std::vector<fd::FdSpec>& suite, const std::vector<Pooled>& pooled);

// Cached gauge handles for one detector lane, registered once per
// experiment and refreshed by the winning progress tick.
struct LaneGauges {
  obs::Gauge* suspect = nullptr;       // 1 while suspecting
  obs::Gauge* timeout_ms = nullptr;    // current δ = pred + sm
  obs::Gauge* mistakes = nullptr;      // recorded T_M samples so far
  obs::Gauge* detections = nullptr;    // detections so far
  obs::Gauge* recent_td_ms = nullptr;  // EWMA T_D (NaN until first crash)
  obs::Gauge* recent_tm_ms = nullptr;  // EWMA T_M (NaN until first mistake)
};

// Telemetry shared by every concurrent unit. The emitter's own mutex keeps
// single calls atomic; `mu` additionally serializes the due()+emit() pair
// and the gauge refresh so a status line and the gauges it reflects stay
// consistent with each other.
struct ProgressState {
  explicit ProgressState(obs::ProgressEmitter::Options opts)
      : emitter(std::move(opts)) {}

  obs::ProgressEmitter emitter;
  std::mutex mu;
  std::atomic<std::size_t> runs_started{0};
  std::atomic<std::size_t> runs_done{0};
  std::atomic<std::uint64_t> crashes_done{0};  // crashes in completed runs

  // Per-detector gauges (index-aligned with the suite; empty when obs is
  // off). Concurrent runs share the handles: the tick that wins `mu`
  // publishes its own run's lane state and stamps source_run so a scrape
  // knows which run it is looking at.
  std::vector<LaneGauges> lanes;
  obs::Gauge* source_run = nullptr;
  obs::Gauge* timer_lag_ms = nullptr;  // next freshness deadline − now
};

// Everything one run produces, extracted so runs can execute on pool
// threads and be reduced in run order afterwards.
struct RunOutput {
  std::vector<fd::QosTracker> trackers;  // finalized, index-aligned w/ suite
  std::uint64_t crash_count = 0;
  std::uint64_t hb_sent = 0;
  std::uint64_t hb_delivered = 0;
  faultx::FaultyTransport::Stats chaos;  // zero when no scenario active
  fd::DetectorBank::Counters bank;       // engine counters for this run
};

// Everything one (run, shard) fleet unit produces.
struct FleetShardOutput {
  std::vector<std::vector<fd::QosTracker>> trackers;  // [local ep][lane]
  std::vector<std::uint64_t> crash_count;             // per local endpoint
  std::vector<std::uint64_t> hb_sent;
  std::vector<std::uint64_t> hb_delivered;
  faultx::FaultyTransport::Stats chaos;  // summed over the block
  fd::DetectorBank::Counters bank;       // summed member counters
  fd::FleetBank::Counters fleet;         // shard-level engine counters
};

// One self-contained seeded simulation (paper run).
RunOutput run_one(const QosExperimentConfig& config,
                  const std::vector<fd::FdSpec>& suite,
                  const std::shared_ptr<const std::vector<Duration>>& trace,
                  const std::shared_ptr<const faultx::FaultSchedule>& faults,
                  std::size_t run, const Rng& base_rng, TimePoint run_end,
                  ProgressState* progress);

// Shard s of S owns endpoints [begin(s), begin(s+1)): contiguous blocks,
// remainders spread over the first shards. A pure function of (M, S).
std::size_t fleet_shard_begin(std::size_t endpoints, std::size_t shards,
                              std::size_t s);

// One (run, shard) fleet unit.
FleetShardOutput run_fleet_shard(
    const QosExperimentConfig& config, const std::vector<fd::FdSpec>& suite,
    const std::shared_ptr<const std::vector<Duration>>& trace,
    const std::shared_ptr<const faultx::FaultSchedule>& faults,
    std::size_t run, std::size_t shards, std::size_t shard, TimePoint run_end,
    ProgressState* progress);

}  // namespace fdqos::exp::detail
