// The QoS experiment (paper §5.2, Figures 4–8).
//
// Architecture per run (paper Figure 3), all in virtual time:
//
//   Monitored node:  Heartbeater(η) → SimCrash(MTTC, TTR) → network
//   Monitor node:    network → MultiPlexer → DetectorBank (30 lanes)
//
// Every detector lane receives the identical arrival stream; the whole
// suite runs on one batched fd::DetectorBank that evaluates each distinct
// predictor once per heartbeat. A QosTracker per lane consumes its suspect
// transitions plus the injector's crash/restore ground truth. Results pool
// the T_D, T_M and T_MR samples across the configured number of runs.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "fd/detector_bank.hpp"
#include "fd/fleet_bank.hpp"
#include "fd/qos_tracker.hpp"
#include "fd/suite.hpp"
#include "obs/progress.hpp"
#include "stats/running_stats.hpp"
#include "wan/italy_japan.hpp"
#include "wan/tracestore.hpp"

namespace fdqos::exp {

struct QosExperimentConfig {
  std::size_t runs = 13;            // paper: 13 experiment runs
  std::int64_t num_cycles = 10000;  // NumCycles heartbeat cycles per run
  Duration eta = Duration::seconds(1);
  Duration mttc = Duration::seconds(300);
  Duration ttr = Duration::seconds(30);
  Duration warmup = Duration::seconds(60);  // no samples recorded before this
  Duration cold_start_timeout = Duration::seconds(1);
  std::uint64_t seed = 42;
  wan::ItalyJapanParams link{};
  // When set, heartbeat delays come from this recorded trace (.fdt binary
  // or CSV, see docs/tracestore.md) instead of the synthetic link — the
  // paper's §6 plan of re-running the comparison on other WAN connections,
  // using delays captured from a real path. Loss is then whatever the
  // trace encoded (a lost heartbeat simply is not in the trace) plus none.
  std::string trace_path;
  // What replay does at trace end. kTruncate (default) ends the experiment
  // with the trace: num_cycles is clamped to the trace length so every run
  // replays a prefix and never re-reads a sample. kExtend resamples the
  // tail from a model fitted to the recorded delays. Ignored when
  // trace_path is empty.
  wan::ReplayPolicy replay_policy = wan::ReplayPolicy::kTruncate;
  // When set, every run records the delay stream its link actually
  // produced — with chaos active this is the *faulted* stream, so a chaos
  // scenario becomes a replayable artifact. Each run records into its own
  // hub shard keyed by run index; merge with record_hub->merged() after
  // the experiment returns (deterministic run order, any jobs value).
  std::shared_ptr<wan::TraceRecorderHub> record_hub;
  fd::PaperParams params{};
  // Optionally append the constant-margin (NFD-E-style) baselines.
  bool include_constant_baseline = false;
  double baseline_margin_ms = 100.0;
  // Additional detectors to run next to the paper suite (extensions,
  // configured NFD-E instances, ...). Names must be unique across the whole
  // assembled suite — results, figures and the bank's lanes are keyed by
  // name, so a duplicate would silently alias two detectors. Enforced (with
  // a clear stderr message) before any run starts.
  std::vector<fd::FdSpec> extra_specs;
  // Replace the 30-detector paper suite entirely (extra_specs still
  // appended) — for focused sweeps that don't need the full grid.
  bool include_paper_suite = true;
  // When > 0, emit a progress/telemetry line to stderr every this many
  // wall-clock seconds (run i/N, cycles done, crashes, heartbeat counts,
  // detectors currently suspecting). See docs/observability.md.
  double progress_interval_s = 0.0;
  // Telemetry identity (obs v2): the (run, suite) labels stamped on live
  // per-detector gauges, trace spans, progress JSONL records and the /runs
  // registry row, so one invocation's telemetry joins across all three
  // planes. Empty = derived deterministically: run_id from
  // "<run_verb>-seed<seed>", suite_label from the chaos scenario (or
  // "paper" when nominal). Purely observational — never reaches reports.
  std::string run_id;
  std::string run_verb = "qos";
  std::string suite_label;
  // Optional machine-readable mirror of the progress stream (one JSON
  // record per emitted line, atomic per line). Not owned; must outlive the
  // experiment. nullptr = stderr only.
  obs::JsonlSink* progress_jsonl = nullptr;
  // Worker threads for the run loop: runs are independent seeded
  // simulations (base_rng.fork(run)) executed concurrently, with pooled
  // statistics merged in run order after the join — the report is
  // byte-identical at every jobs value. 0 = exec::default_jobs()
  // (hardware concurrency), 1 = fully serial. See docs/parallelism.md.
  std::size_t jobs = 0;
  // Chaos injection (faultx): name of a scenario from
  // faultx::scenario_names(). When set, every run wraps its link models in
  // FaultyDelay/FaultyLoss and the monitored node's transport in
  // FaultyTransport, all driven by the same schedule (built once from the
  // warmup end and run horizon). Empty = nominal network.
  // See docs/fault_injection.md.
  std::string chaos_scenario;
  // Fleet mode (docs/fleet.md): monitor `endpoints` independent processes,
  // each with its own link, crash injector and full detector suite, sharded
  // over `fleet_shards` fd::FleetBank shards (contiguous endpoint blocks).
  // Endpoint e's stochastic streams derive from fleet_endpoint_seed(seed,
  // e), and endpoint 0's seed IS the experiment seed — so endpoints = 1
  // runs the exact single-endpoint path with byte-identical reports
  // at every jobs value. Fleet mode requires no record_hub; the
  // (run, shard) units run in parallel under `jobs`.
  std::size_t endpoints = 1;
  // 0 = min(endpoints, exec::default_jobs()); always clamped to endpoints.
  std::size_t fleet_shards = 0;
  // Test hook: route even endpoints = 1 through the FleetBank engine (the
  // equivalence suite proves FleetBank M=1 ≡ DetectorBank this way).
  bool force_fleet_engine = false;
  // Test/diagnostic hook: invoked on every suspect transition as
  // (run, detector index, time, suspecting), in simulation order within a
  // run. May be called concurrently from worker threads, but only with
  // distinct `run` values — per-run consumers need no locking. In fleet
  // mode the detector index is endpoint·suite_width + lane, concurrency is
  // per distinct (run, endpoint-shard) pair, and per-(run, endpoint)
  // streams stay time-ordered. Null = off.
  std::function<void(std::size_t run, std::size_t detector, TimePoint t,
                     bool suspecting)>
      transition_probe;
  // Test/workload hook: the crash injector's ground truth, invoked as
  // (run, endpoint, time, crashed) on every crash/restore toggle, in
  // simulation order within a run (endpoint is 0 outside fleet mode).
  // Same concurrency contract as transition_probe: concurrent calls only
  // with distinct `run` (fleet: distinct (run, endpoint-shard)) values.
  // Null = off.
  std::function<void(std::size_t run, std::size_t endpoint, TimePoint t,
                     bool crashed)>
      crash_probe;
};

struct FdQosResult {
  std::string name;
  std::string predictor_label;
  std::string margin_label;
  fd::QosMetrics metrics;  // pooled over all runs
  // Run-to-run variability: per-run mean T_D / P_A across the experiment's
  // runs (count == number of runs that produced samples). The paper pools
  // 13 runs; this exposes how stable each configuration is between runs.
  stats::Summary per_run_td_mean_ms;
  stats::Summary per_run_availability;
};

struct QosReport {
  QosExperimentConfig config;
  std::vector<FdQosResult> results;
  std::uint64_t total_crashes = 0;      // per run set (same injector for all)
  std::uint64_t heartbeats_delivered = 0;
  std::uint64_t heartbeats_sent = 0;
  // Chaos accounting (zero when chaos_scenario is empty), summed over runs.
  std::uint64_t chaos_fault_events = 0;  // scheduled events per run
  std::uint64_t chaos_dropped = 0;       // eaten by partitions/flaps
  std::uint64_t chaos_duplicated = 0;    // extra copies injected
  // Detector-engine counters summed over runs (on the paper suite:
  // 5 predictor_updates and 30 lane_updates per heartbeat).
  // Not part of any report table — flushed into the fdqos::obs registry.
  fd::DetectorBank::Counters bank;

  // Fleet mode only (empty/zero otherwise): per-endpoint pooled results
  // (endpoint-major; the top-level `results` pool across endpoints AND
  // runs) plus per-endpoint tallies summed over runs, and the fleet
  // shard-level counters summed over runs and shards.
  std::vector<std::vector<FdQosResult>> endpoint_results;
  std::vector<std::uint64_t> endpoint_crashes;
  std::vector<std::uint64_t> endpoint_hb_sent;
  std::vector<std::uint64_t> endpoint_hb_delivered;
  fd::FleetBank::Counters fleet;
};

QosReport run_qos_experiment(const QosExperimentConfig& config);

// Look up a result by detector name; nullptr if absent.
const FdQosResult* find_result(const QosReport& report, const std::string& name);

// Fleet helpers (docs/fleet.md).
//
// The seed endpoint e's whole stochastic stack forks from; endpoint 0's is
// the experiment seed itself, so a 1-endpoint fleet is bit-for-bit the
// legacy experiment and endpoint e of a fleet run equals a standalone run
// seeded with fleet_endpoint_seed(seed, e).
std::uint64_t fleet_endpoint_seed(std::uint64_t seed, std::size_t endpoint);
// Resolved shard count for a config (applies the 0 = auto rule).
std::size_t resolve_fleet_shards(const QosExperimentConfig& config);
// A single-endpoint-shaped view of one fleet endpoint: results, crash and
// heartbeat tallies of endpoint e with the config rewritten to the
// equivalent standalone experiment (seed swapped, endpoints = 1) — its
// qos_report_fingerprint() is directly comparable to that standalone run.
QosReport fleet_endpoint_view(const QosReport& report, std::size_t endpoint);

}  // namespace fdqos::exp
