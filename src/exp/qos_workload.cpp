#include "exp/qos_workload.hpp"

#include <cstdio>
#include <unordered_set>

#include "common/assert.hpp"
#include "common/log.hpp"
#include "exp/chaos.hpp"
#include "exp/report.hpp"
#include "faultx/scenarios.hpp"
#include "obs/instruments.hpp"
#include "wan/trace.hpp"

namespace fdqos::exp {

using detail::FleetShardOutput;
using detail::LaneGauges;
using detail::Pooled;
using detail::ProgressState;
using detail::RunOutput;

QosWorkload::QosWorkload(QosExperimentConfig config)
    : config_(std::move(config)) {}

QosWorkload::~QosWorkload() = default;

const std::string& QosWorkload::name() const {
  static const std::string kName = "qos";
  return kName;
}

void QosWorkload::prepare() {
  FDQOS_REQUIRE(config_.runs > 0);
  FDQOS_REQUIRE(config_.num_cycles > 0);
  FDQOS_REQUIRE(config_.endpoints > 0);

  fleet_mode_ = config_.endpoints > 1 || config_.force_fleet_engine;
  if (fleet_mode_) {
    if (config_.record_hub != nullptr) {
      std::fprintf(stderr,
                   "fdqos: fleet mode cannot record traces (the recorder hub "
                   "shards by run index only)\n");
      FDQOS_REQUIRE(!"fleet mode is incompatible with record_hub");
    }
    shards_ = resolve_fleet_shards(config_);
  }

  // Telemetry identity. Derived deterministically (never from wall clocks
  // or PIDs) so goldens and re-runs carry stable labels; derivation is
  // unconditional so the echoed report config is independent of whether
  // telemetry happens to be enabled.
  if (config_.run_id.empty()) {
    config_.run_id = config_.run_verb + "-seed" + std::to_string(config_.seed);
  }
  if (config_.suite_label.empty()) {
    config_.suite_label =
        config_.chaos_scenario.empty() ? "paper" : config_.chaos_scenario;
  }
  if (obs::enabled()) {
    obs::set_run_context(config_.run_id, config_.suite_label);
    // Seed the /runs row before any work: a run that dies before its first
    // progress tick still appears, and the RAII guard marks the row
    // finished (and clears the context) on *every* exit path — including
    // an exception unwinding out of the run loop, which parallel_for
    // rethrows on this thread. tests/obs/run_registry_test.cpp pins this.
    obs::RunStatus st;
    st.id = config_.run_id;
    st.verb = config_.run_verb;
    st.suite = config_.suite_label;
    st.runs_total = config_.runs;
    obs::RunRegistry::global().update(st);
    run_guard_.emplace(config_.run_id);
  }

  // Load the replay trace once; every run shares the immutable data.
  if (!config_.trace_path.empty()) {
    wan::TraceLoadResult loaded = wan::load_trace(config_.trace_path);
    if (!loaded.ok()) {
      std::fprintf(stderr, "fdqos: cannot load trace: %s\n",
                   loaded.error.c_str());
      FDQOS_REQUIRE(!"trace load failed in run_qos_experiment");
    }
    trace_data_ = loaded.trace;
    // Aliasing share: the delay column lives inside the loaded Trace.
    trace_ = std::shared_ptr<const std::vector<Duration>>(
        trace_data_, &trace_data_->delays);
    if (config_.replay_policy == wan::ReplayPolicy::kTruncate &&
        static_cast<std::uint64_t>(config_.num_cycles) > trace_data_->size()) {
      // The experiment ends with the trace: every run replays a strict
      // prefix and no sample is ever re-read (wrap/extend opt out).
      FDQOS_LOG_INFO(
          "trace %s has %zu samples; truncating NumCycles %lld -> %zu",
          config_.trace_path.c_str(), trace_data_->size(),
          static_cast<long long>(config_.num_cycles), trace_data_->size());
      config_.num_cycles = static_cast<std::int64_t>(trace_data_->size());
    }
  }

  if (config_.include_paper_suite) {
    suite_ = fd::make_paper_suite(config_.params);
  }
  if (config_.include_constant_baseline) {
    auto baselines = fd::make_constant_margin_suite(config_.baseline_margin_ms,
                                                    config_.params);
    for (auto& spec : baselines) suite_.push_back(std::move(spec));
  }
  for (const auto& spec : config_.extra_specs) suite_.push_back(spec);
  FDQOS_REQUIRE(!suite_.empty());

  // Names key results, figure cells and the bank's lanes; a duplicate (or
  // empty) name would silently alias two detectors. Reject loudly up front.
  std::unordered_set<std::string> seen_names;
  for (const auto& spec : suite_) {
    if (spec.name.empty()) {
      std::fprintf(stderr,
                   "fdqos: qos suite contains a detector with an empty name "
                   "(predictor=%s margin=%s); every spec needs a unique "
                   "non-empty name\n",
                   spec.predictor_label.c_str(), spec.margin_label.c_str());
      FDQOS_REQUIRE(!"empty detector name in qos suite");
    }
    if (!seen_names.insert(spec.name).second) {
      std::fprintf(stderr,
                   "fdqos: duplicate detector name '%s' in qos suite "
                   "(extra_specs and the paper/baseline suites share one "
                   "namespace); names must be unique\n",
                   spec.name.c_str());
      FDQOS_REQUIRE(!"duplicate detector name in qos suite");
    }
  }

  report_ = QosReport{};
  report_.config = config_;

  base_rng_.emplace(config_.seed);
  run_end_ = TimePoint::origin() + config_.eta * config_.num_cycles +
             config_.ttr + Duration::seconds(5);

  // Build the fault schedule once; every run overlays the same immutable
  // event timeline (per-run randomness lives in the wrapper models).
  if (!config_.chaos_scenario.empty()) {
    FDQOS_REQUIRE(faultx::is_scenario(config_.chaos_scenario));
    faultx::ScenarioParams sp;
    sp.active_start = TimePoint::origin() + config_.warmup;
    sp.horizon = run_end_;
    faults_ = std::make_shared<const faultx::FaultSchedule>(
        faultx::make_scenario(config_.chaos_scenario, sp));
  }

  if (config_.progress_interval_s > 0.0) {
    obs::ProgressEmitter::Options opts;
    opts.interval_s = config_.progress_interval_s;
    opts.prefix = "[fdqos " + config_.run_verb + "]";
    opts.jsonl = config_.progress_jsonl;
    opts.run_id = config_.run_id;
    progress_ = std::make_unique<ProgressState>(std::move(opts));
    // Fleet runs can hold endpoints × suite lanes — far too many gauge
    // series; their ticks publish shard aggregates instead (see
    // install_fleet_progress), so the per-lane handles are skipped.
    if (obs::enabled() && !fleet_mode_) {
      // Register the per-detector gauge handles once, up front; ticks then
      // touch only relaxed atomics. Labels carry (detector, run, suite) so
      // concurrent invocations in one process stay distinguishable.
      auto& reg = obs::Registry::global();
      const obs::Labels run_labels = {{"run", config_.run_id},
                                      {"suite", config_.suite_label}};
      progress_->lanes.reserve(suite_.size());
      for (const auto& spec : suite_) {
        obs::Labels labels = run_labels;
        labels.emplace_back("detector", spec.name);
        LaneGauges g;
        g.suspect = &reg.gauge("fdqos_detector_suspect",
                               "1 while the detector suspects the monitored "
                               "process, 0 while it trusts it",
                               labels);
        g.timeout_ms = &reg.gauge("fdqos_detector_timeout_ms",
                                  "Current freshness timeout delta = "
                                  "prediction + safety margin, milliseconds",
                                  labels);
        g.mistakes = &reg.gauge("fdqos_detector_mistakes",
                                "Mistake (wrong suspicion) samples recorded "
                                "so far in the source run",
                                labels);
        g.detections = &reg.gauge("fdqos_detector_detections",
                                  "Crash detections recorded so far in the "
                                  "source run",
                                  labels);
        g.recent_td_ms = &reg.gauge("fdqos_detector_recent_td_ms",
                                    "EWMA (alpha=0.2) of recent detection "
                                    "times T_D, milliseconds; NaN before "
                                    "the first detection",
                                    labels);
        g.recent_tm_ms = &reg.gauge("fdqos_detector_recent_tm_ms",
                                    "EWMA (alpha=0.2) of recent mistake "
                                    "durations T_M, milliseconds; NaN "
                                    "before the first mistake",
                                    labels);
        progress_->lanes.push_back(g);
      }
      progress_->source_run = &reg.gauge(
          "fdqos_detector_source_run",
          "Run index whose state the per-detector gauges currently show",
          run_labels);
      progress_->timer_lag_ms = &reg.gauge(
          "fdqos_freshness_timer_lag_ms",
          "Next armed freshness-timer deadline minus current virtual time "
          "in the source run, milliseconds; NaN while no timer is armed",
          run_labels);
    }
  }

  if (fleet_mode_) {
    // Register the fdqos_fleet_* families before any run starts, so a
    // mid-run scrape already sees them; the shard counters are flushed
    // from the reduction totals at the end (per-invocation artifacts, not
    // live increments — the live view is the /runs row and the gauges).
    shard_heartbeats_.assign(shards_, nullptr);
    shard_timer_events_.assign(shards_, nullptr);
    shard_coalesced_.assign(shards_, nullptr);
    if (obs::enabled()) {
      auto& reg = obs::Registry::global();
      const obs::Labels run_labels = {{"run", config_.run_id},
                                      {"suite", config_.suite_label}};
      reg.gauge("fdqos_fleet_endpoints",
                "Monitored endpoints in the fleet experiment", run_labels)
          .set(static_cast<double>(config_.endpoints));
      reg.gauge("fdqos_fleet_shards",
                "FleetBank shards the endpoints are split over", run_labels)
          .set(static_cast<double>(shards_));
      for (std::size_t s = 0; s < shards_; ++s) {
        obs::Labels labels = run_labels;
        labels.emplace_back("shard", std::to_string(s));
        shard_heartbeats_[s] =
            &reg.counter("fdqos_fleet_heartbeats_total",
                         "Heartbeats ingested by the fleet shard, summed over "
                         "runs",
                         labels);
        shard_timer_events_[s] =
            &reg.counter("fdqos_fleet_timer_events_total",
                         "Shard-level armed timer events fired, summed over "
                         "runs",
                         labels);
        shard_coalesced_[s] =
            &reg.counter("fdqos_fleet_coalesced_events_total",
                         "Member simulator events avoided by shard-level "
                         "coalescing, summed over runs",
                         labels);
      }
    }
    fleet_outputs_.resize(config_.runs);
    for (auto& per_run : fleet_outputs_) per_run.resize(shards_);
    shards_left_ =
        std::make_unique<std::atomic<std::size_t>[]>(config_.runs);
    for (std::size_t r = 0; r < config_.runs; ++r) {
      shards_left_[r].store(shards_, std::memory_order_relaxed);
    }
  } else {
    outputs_.resize(config_.runs);
  }
}

std::size_t QosWorkload::unit_count() const {
  return fleet_mode_ ? config_.runs * shards_ : config_.runs;
}

void QosWorkload::run_unit(std::size_t unit) {
  if (!fleet_mode_) {
    outputs_[unit] = detail::run_one(config_, suite_, trace_, faults_, unit,
                                     *base_rng_, run_end_, progress_.get());
    return;
  }

  // Flattened (run, shard) grid: every unit is an independent seeded
  // simulation, reduced in fixed order afterwards.
  const std::size_t run = unit / shards_;
  const std::size_t shard = unit % shards_;
  if (progress_ != nullptr && shard == 0) {
    progress_->runs_started.fetch_add(1, std::memory_order_relaxed);
  }
  fleet_outputs_[run][shard] =
      detail::run_fleet_shard(config_, suite_, trace_, faults_, run, shards_,
                              shard, run_end_, progress_.get());
  if (progress_ == nullptr) return;
  std::uint64_t crashes = 0;
  for (const std::uint64_t c : fleet_outputs_[run][shard].crash_count) {
    crashes += c;
  }
  progress_->crashes_done.fetch_add(crashes, std::memory_order_relaxed);
  if (shards_left_[run].fetch_sub(1, std::memory_order_acq_rel) == 1) {
    progress_->runs_done.fetch_add(1, std::memory_order_relaxed);
  }
}

void QosWorkload::reduce_single() {
  // Ordered reduction: identical merge sequence as the serial loop.
  std::vector<Pooled> pooled(suite_.size());
  for (std::size_t run = 0; run < config_.runs; ++run) {
    const RunOutput& out = outputs_[run];
    for (std::size_t i = 0; i < suite_.size(); ++i) {
      detail::merge_tracker(pooled[i], out.trackers[i]);
    }
    report_.total_crashes += out.crash_count;
    report_.heartbeats_sent += out.hb_sent;
    report_.heartbeats_delivered += out.hb_delivered;
    report_.bank.add(out.bank);
    if (faults_ != nullptr) {
      report_.chaos_fault_events += faults_->event_count();
      report_.chaos_dropped += out.chaos.fault_dropped;
      report_.chaos_duplicated += out.chaos.duplicated;
    }
  }
  report_.results = detail::results_from_pooled(suite_, pooled);
}

void QosWorkload::reduce_fleet() {
  // Ordered reduction. Within a run, shards ascend and local endpoints
  // ascend within a shard, so endpoints merge in global index order.
  const std::size_t M = config_.endpoints;
  std::vector<Pooled> pooled(suite_.size());
  std::vector<std::vector<Pooled>> pooled_ep(
      M, std::vector<Pooled>(suite_.size()));
  report_.endpoint_crashes.assign(M, 0);
  report_.endpoint_hb_sent.assign(M, 0);
  report_.endpoint_hb_delivered.assign(M, 0);
  for (std::size_t run = 0; run < config_.runs; ++run) {
    for (std::size_t s = 0; s < shards_; ++s) {
      const FleetShardOutput& out = fleet_outputs_[run][s];
      const std::size_t ep_begin = detail::fleet_shard_begin(M, shards_, s);
      for (std::size_t le = 0; le < out.trackers.size(); ++le) {
        const std::size_t e = ep_begin + le;
        for (std::size_t i = 0; i < suite_.size(); ++i) {
          detail::merge_tracker(pooled[i], out.trackers[le][i]);
          detail::merge_tracker(pooled_ep[e][i], out.trackers[le][i]);
        }
        report_.total_crashes += out.crash_count[le];
        report_.heartbeats_sent += out.hb_sent[le];
        report_.heartbeats_delivered += out.hb_delivered[le];
        report_.endpoint_crashes[e] += out.crash_count[le];
        report_.endpoint_hb_sent[e] += out.hb_sent[le];
        report_.endpoint_hb_delivered[e] += out.hb_delivered[le];
      }
      report_.bank.add(out.bank);
      report_.fleet.add(out.fleet);
      if (faults_ != nullptr) {
        report_.chaos_dropped += out.chaos.fault_dropped;
        report_.chaos_duplicated += out.chaos.duplicated;
      }
    }
    // One schedule overlays every run, as in the single-endpoint engine.
    if (faults_ != nullptr) {
      report_.chaos_fault_events += faults_->event_count();
    }
  }

  report_.results = detail::results_from_pooled(suite_, pooled);
  report_.endpoint_results.reserve(M);
  for (std::size_t e = 0; e < M; ++e) {
    report_.endpoint_results.push_back(
        detail::results_from_pooled(suite_, pooled_ep[e]));
  }

  if (obs::enabled()) {
    for (std::size_t s = 0; s < shards_; ++s) {
      fd::FleetBank::Counters total;
      for (std::size_t run = 0; run < config_.runs; ++run) {
        total.add(fleet_outputs_[run][s].fleet);
      }
      shard_heartbeats_[s]->inc(total.heartbeats);
      shard_timer_events_[s]->inc(total.timer_events);
      shard_coalesced_[s]->inc(total.coalesced_events);
    }
  }
}

void QosWorkload::reduce() {
  if (fleet_mode_) {
    reduce_fleet();
  } else {
    reduce_single();
  }

  if (obs::enabled()) {
    auto& m = obs::instruments();
    m.bank_predictor_updates.inc(report_.bank.predictor_updates);
    m.bank_lane_updates.inc(report_.bank.lane_updates);
    m.bank_coalesced_timers.inc(report_.bank.coalesced_timers);
    m.bank_dispatch_errors.inc(report_.bank.dispatch_errors);
  }

  if (progress_ != nullptr) {
    progress_->emitter.emit(
        "done: %zu runs, %llu crashes, %llu heartbeats sent, %llu delivered",
        config_.runs, static_cast<unsigned long long>(report_.total_crashes),
        static_cast<unsigned long long>(report_.heartbeats_sent),
        static_cast<unsigned long long>(report_.heartbeats_delivered));
  }
  if (obs::enabled()) {
    // Final /runs row: whole-invocation totals, marked finished so a
    // scrape arriving after the join still sees a consistent summary.
    obs::RunStatus st;
    st.id = config_.run_id;
    st.verb = config_.run_verb;
    st.suite = config_.suite_label;
    st.runs_total = config_.runs;
    st.runs_started = config_.runs;
    st.runs_done = config_.runs;
    st.crashes = report_.total_crashes;
    st.heartbeats_sent = report_.heartbeats_sent;
    st.detectors = suite_.size() * config_.endpoints;
    st.suspecting = 0;
    st.sim_time_s = run_end_.to_seconds_double();
    st.finished = true;
    obs::RunRegistry::global().update(st);
  }
  // Finish the /runs row and clear the run context now, not at workload
  // destruction — an embedding workload (leader election) may keep this
  // object alive long after its runs are over.
  run_guard_.reset();
}

std::vector<ReportSection> QosWorkload::report_sections() const {
  std::vector<ReportSection> sections;
  if (!config_.chaos_scenario.empty()) {
    ReportSection chaos;
    chaos.title = "chaos";
    chaos.table = chaos_table(report_);
    sections.push_back(std::move(chaos));
  }
  for (const QosMetricKind kind :
       {QosMetricKind::kTd, QosMetricKind::kTdU, QosMetricKind::kTm,
        QosMetricKind::kTmr, QosMetricKind::kPa}) {
    ReportSection section;
    section.title = metric_name(kind);
    section.table = qos_metric_table(report_, kind);
    sections.push_back(std::move(section));
  }
  ReportSection tallies;
  tallies.title = "totals";
  tallies.table = stats::TableWriter("Totals");
  tallies.table.set_columns({"crashes", "hb sent", "hb delivered"});
  tallies.table.add_row({std::to_string(report_.total_crashes),
                         std::to_string(report_.heartbeats_sent),
                         std::to_string(report_.heartbeats_delivered)});
  sections.push_back(std::move(tallies));
  return sections;
}

}  // namespace fdqos::exp
