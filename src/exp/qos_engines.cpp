#include "exp/qos_engines.hpp"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <functional>
#include <limits>
#include <optional>
#include <unordered_map>

#include "common/assert.hpp"
#include "common/log.hpp"
#include "faultx/scenarios.hpp"
#include "fd/freshness_detector.hpp"
#include "net/lp_transport.hpp"
#include "net/sim_transport.hpp"
#include "obs/instruments.hpp"
#include "obs/runs.hpp"
#include "runtime/heartbeater.hpp"
#include "runtime/multiplexer.hpp"
#include "runtime/process_node.hpp"
#include "runtime/sim_crash.hpp"
#include "sim/simulator.hpp"
#include "wan/trace.hpp"

namespace fdqos::exp::detail {

fd::QosMetrics pooled_metrics(const Pooled& p) {
  fd::QosMetrics m;
  m.detection_time_ms = p.td.summary();
  m.mistake_duration_ms = p.tm.summary();
  m.mistake_recurrence_ms = p.tmr.summary();
  m.crashes_observed = p.crashes;
  m.detections = p.detections;
  m.missed_detections = p.missed;
  m.mistakes = p.tm.count();
  if (p.up > Duration::zero()) {
    m.availability =
        1.0 - p.wrong.to_seconds_double() / p.up.to_seconds_double();
  }
  if (p.tmr.count() > 0 && p.tmr.mean() > 0.0) {
    m.query_accuracy =
        std::max(0.0, (p.tmr.mean() - p.tm.mean()) / p.tmr.mean());
  } else {
    m.query_accuracy = m.availability;
  }
  return m;
}

void merge_tracker(Pooled& p, const fd::QosTracker& tracker) {
  p.td.merge(tracker.td_stats());
  p.tm.merge(tracker.tm_stats());
  p.tmr.merge(tracker.tmr_stats());
  p.up += tracker.observed_up_time();
  p.wrong += tracker.wrong_suspicion_time();
  p.crashes += tracker.crash_count();
  p.detections += tracker.detection_count();
  p.missed += tracker.missed_detection_count();
  if (tracker.td_stats().count() > 0) {
    p.per_run_td.add(tracker.td_stats().mean());
  }
  p.per_run_availability.add(tracker.metrics().availability);
}

std::vector<FdQosResult> results_from_pooled(
    const std::vector<fd::FdSpec>& suite, const std::vector<Pooled>& pooled) {
  std::vector<FdQosResult> results;
  results.reserve(suite.size());
  for (std::size_t i = 0; i < suite.size(); ++i) {
    FdQosResult result;
    result.name = suite[i].name;
    result.predictor_label = suite[i].predictor_label;
    result.margin_label = suite[i].margin_label;
    result.metrics = pooled_metrics(pooled[i]);
    result.per_run_td_mean_ms = pooled[i].per_run_td.summary();
    result.per_run_availability = pooled[i].per_run_availability.summary();
    results.push_back(std::move(result));
  }
  return results;
}

namespace {

// The per-run link stack, identical under both engines: trace replay or the
// synthetic Italy→Japan models, optionally wrapped by chaos and recording.
// RNG forks are pure functions of (parent, name), so sharing this builder
// keeps the two engines' draw sequences aligned by construction.
net::SimTransport::LinkConfig make_link_config(
    const QosExperimentConfig& config,
    const std::shared_ptr<const std::vector<Duration>>& trace,
    const std::shared_ptr<const faultx::FaultSchedule>& faults,
    std::size_t run) {
  net::SimTransport::LinkConfig link;
  if (trace == nullptr) {
    link.delay = wan::make_italy_japan_delay(config.link);
    link.loss = wan::make_italy_japan_loss(config.link);
  } else {
    // Each run replays the identical trace (loaded once, shared
    // immutably; the replay cursor is per-instance); runs differ only in
    // the crash schedule. With the default truncate policy the caller has
    // already clamped num_cycles to the trace length.
    link.delay =
        std::make_unique<wan::TraceReplayDelay>(trace, config.replay_policy);
  }
  if (faults != nullptr) {
    // Chaos: the same immutable schedule overlays every run; all per-run
    // fault state (burst chains, duplication draws) lives in the wrappers.
    link.delay =
        std::make_unique<faultx::FaultyDelay>(std::move(link.delay), faults);
    link.loss =
        std::make_unique<faultx::FaultyLoss>(std::move(link.loss), faults);
  }
  if (config.record_hub != nullptr) {
    // Tracestore hook: capture the delay stream exactly as the link
    // produced it — outside the fault wrapper, so a chaos run records the
    // faulted delays and becomes a replayable artifact. One shard per run
    // index keeps parallel runs race-free and the merge order fixed.
    link.delay = std::make_unique<wan::RecordingDelay>(
        std::move(link.delay), config.record_hub, run);
  }
  return link;
}

}  // namespace

RunOutput run_one(const QosExperimentConfig& config,
                  const std::vector<fd::FdSpec>& suite,
                  const std::shared_ptr<const std::vector<Duration>>& trace,
                  const std::shared_ptr<const faultx::FaultSchedule>& faults,
                  std::size_t run, const Rng& base_rng, TimePoint run_end,
                  ProgressState* progress) {
  Rng run_rng = base_rng.fork(run);
  if (progress != nullptr) {
    progress->runs_started.fetch_add(1, std::memory_order_relaxed);
  }

  sim::Simulator simulator;
  net::SimTransport transport(simulator, run_rng.fork("net"));
  transport.set_link(kMonitored, kMonitor,
                     make_link_config(config, trace, faults, run));

  // Transport-level faults (partitions, flaps, duplication, clock stamps)
  // wrap only the monitored node's view of the network.
  std::optional<faultx::FaultyTransport> chaos_net;
  net::Transport* monitored_net = &transport;
  if (faults != nullptr) {
    chaos_net.emplace(transport, faults, run_rng.fork("faultx"));
    monitored_net = &*chaos_net;
  }

  // Monitored node: Heartbeater over SimCrash.
  runtime::ProcessNode monitored(*monitored_net, kMonitored);
  auto& crash_layer = monitored.push(std::make_unique<runtime::SimCrashLayer>(
      simulator,
      runtime::SimCrashLayer::Config{config.mttc, config.ttr},
      run_rng.fork("crash")));
  runtime::HeartbeaterLayer::Config hb_config;
  hb_config.eta = config.eta;
  hb_config.self = kMonitored;
  hb_config.monitor = kMonitor;
  hb_config.max_cycles = config.num_cycles;
  auto& heartbeater = monitored.push(
      std::make_unique<runtime::HeartbeaterLayer>(simulator, hb_config));

  // Monitor node: MultiPlexer fanning out to every detector.
  runtime::ProcessNode monitor(transport, kMonitor);
  auto& mux = monitor.push(std::make_unique<runtime::MultiPlexerLayer>());

  const TimePoint warmup_end = TimePoint::origin() + config.warmup;
  std::vector<fd::QosTracker> trackers;
  trackers.reserve(suite.size());
  for (std::size_t i = 0; i < suite.size(); ++i) {
    trackers.emplace_back(warmup_end);
  }
  // Both engines funnel transitions through the same per-lane sink, so the
  // tracker update sequence (and the optional probe stream) is identical.
  auto on_transition = [&trackers, &config, run](std::size_t i, TimePoint t,
                                                 bool suspecting) {
    if (suspecting) {
      trackers[i].suspect_started(t);
    } else {
      trackers[i].suspect_ended(t);
    }
    if (config.transition_probe) config.transition_probe(run, i, t, suspecting);
  };

  std::unique_ptr<fd::DetectorBank> bank;                 // batched engine
  std::vector<std::unique_ptr<fd::FreshnessDetector>> detectors;  // legacy
  if (config.use_detector_bank) {
    fd::DetectorBank::Config bank_config;
    bank_config.eta = config.eta;
    bank_config.monitored = kMonitored;
    bank_config.cold_start_timeout = config.cold_start_timeout;
    bank_config.name = "qos-bank";
    bank = std::make_unique<fd::DetectorBank>(simulator, bank_config);
    // One predictor group per distinct non-empty predictor_key; an empty
    // key never shares (the spec made no identical-behaviour promise).
    std::unordered_map<std::string, std::size_t> group_by_key;
    for (const auto& spec : suite) {
      std::size_t group;
      const auto it = spec.predictor_key.empty()
                          ? group_by_key.end()
                          : group_by_key.find(spec.predictor_key);
      if (it != group_by_key.end()) {
        group = it->second;
      } else {
        group = bank->add_group(spec.make_predictor());
        if (!spec.predictor_key.empty()) {
          group_by_key.emplace(spec.predictor_key, group);
        }
      }
      bank->add_lane(spec.name, group, spec.make_margin());
    }
    bank->set_observer(
        [&on_transition](std::size_t lane, TimePoint t, bool suspecting) {
          on_transition(lane, t, suspecting);
        });
    monitor.attach_unowned(mux, *bank);
  } else {
    detectors.reserve(suite.size());
    for (std::size_t i = 0; i < suite.size(); ++i) {
      fd::FreshnessDetector::Config fd_config;
      fd_config.eta = config.eta;
      fd_config.monitored = kMonitored;
      fd_config.cold_start_timeout = config.cold_start_timeout;
      fd_config.name = suite[i].name;
      auto detector = std::make_unique<fd::FreshnessDetector>(
          simulator, fd_config, suite[i].make_predictor(),
          suite[i].make_margin());
      detector->set_observer([&on_transition, i](TimePoint t, bool suspecting) {
        on_transition(i, t, suspecting);
      });
      monitor.attach_unowned(mux, *detector);
      detectors.push_back(std::move(detector));
    }
  }
  auto suspecting_count = [&bank, &detectors]() {
    if (bank != nullptr) return bank->suspecting_count();
    std::size_t n = 0;
    for (const auto& d : detectors) {
      if (d->suspecting()) ++n;
    }
    return n;
  };

  crash_layer.set_observer([&trackers, &config, run](TimePoint t,
                                                     bool crashed) {
    for (auto& tracker : trackers) {
      if (crashed) {
        tracker.process_crashed(t);
      } else {
        tracker.process_restored(t);
      }
    }
    if (config.crash_probe) config.crash_probe(run, 0, t, crashed);
  });

  monitored.start();
  monitor.start();

  // Telemetry tick: a repeating virtual-time event that emits a status
  // line whenever enough *wall* time has passed. Virtual runs execute
  // thousands of simulated seconds per wall second, so the tick is cheap
  // and the wall-clock rate limiter in ProgressEmitter does the pacing.
  std::function<void()> progress_tick;
  if (progress != nullptr) {
    const Duration tick_every = config.eta * 5;
    // tick_every by value: the tick outlives this block.
    progress_tick = [&, run, tick_every] {
      std::unique_lock<std::mutex> lock(progress->mu, std::try_to_lock);
      // A tick that loses the race simply skips this line; another run's
      // tick just emitted one.
      if (lock.owns_lock() && progress->emitter.due()) {
        const std::size_t suspecting = suspecting_count();
        const std::size_t started =
            progress->runs_started.load(std::memory_order_relaxed);
        const std::size_t done =
            progress->runs_done.load(std::memory_order_relaxed);
        const auto& hb_stats = transport.link_stats(kMonitored, kMonitor);
        if (obs::enabled()) {
          // Aggregated, not per-run, so concurrent runs never fight over
          // the gauges: runs in flight and completed-run crash totals.
          obs::instruments().experiment_run.set(static_cast<double>(started));
          obs::instruments().fd_suspecting.set(
              static_cast<double>(suspecting));
          // Per-detector live QoS gauges: this run won the tick, so it
          // publishes its lane states wholesale and stamps source_run.
          for (std::size_t i = 0; i < progress->lanes.size(); ++i) {
            const LaneGauges& g = progress->lanes[i];
            const bool susp = bank != nullptr ? bank->lane_suspecting(i)
                                              : detectors[i]->suspecting();
            const double delta = bank != nullptr
                                     ? bank->lane_delta_ms(i)
                                     : detectors[i]->current_delta_ms();
            g.suspect->set(susp ? 1.0 : 0.0);
            g.timeout_ms->set(delta);
            g.mistakes->set(static_cast<double>(trackers[i].tm_stats().count()));
            g.detections->set(
                static_cast<double>(trackers[i].detection_count()));
            g.recent_td_ms->set(trackers[i].recent_td_ms());
            g.recent_tm_ms->set(trackers[i].recent_tm_ms());
          }
          if (progress->source_run != nullptr) {
            progress->source_run->set(static_cast<double>(run));
          }
          if (progress->timer_lag_ms != nullptr) {
            TimePoint deadline = TimePoint::max();
            if (bank != nullptr) {
              deadline = bank->next_timer_deadline();
            } else {
              for (const auto& d : detectors) {
                deadline = std::min(deadline, d->next_timer_deadline());
              }
            }
            progress->timer_lag_ms->set(
                deadline == TimePoint::max()
                    ? std::numeric_limits<double>::quiet_NaN()
                    : (deadline - simulator.now()).to_millis_double());
          }
          // Refresh this invocation's /runs row. Crashes count completed
          // runs plus the reporting run (other in-flight runs report on
          // their own winning ticks).
          obs::RunStatus st;
          st.id = config.run_id;
          st.verb = config.run_verb;
          st.suite = config.suite_label;
          st.runs_total = config.runs;
          st.runs_started = started;
          st.runs_done = done;
          st.crashes = progress->crashes_done.load(std::memory_order_relaxed) +
                       crash_layer.crash_count();
          st.heartbeats_sent = hb_stats.sent;
          st.detectors = suite.size();
          st.suspecting = suspecting;
          st.sim_time_s = simulator.now().to_seconds_double();
          obs::RunRegistry::global().update(st);
        }
        progress->emitter.emit(
            "run %zu/%zu (%zu done) t=%.0fs cycles=%lld/%lld crashes=%llu "
            "hb sent=%llu delivered=%llu lost=%llu suspecting=%zu/%zu",
            run + 1, config.runs, done,
            simulator.now().to_seconds_double(),
            static_cast<long long>(heartbeater.cycles_sent()),
            static_cast<long long>(config.num_cycles),
            static_cast<unsigned long long>(crash_layer.crash_count()),
            static_cast<unsigned long long>(hb_stats.sent),
            static_cast<unsigned long long>(hb_stats.delivered),
            static_cast<unsigned long long>(hb_stats.sent -
                                            hb_stats.delivered),
            suspecting, suite.size());
      }
      simulator.schedule_after(tick_every, progress_tick);
    };
    simulator.schedule_after(tick_every, progress_tick);
  }

  simulator.run_until(run_end);

  for (auto& tracker : trackers) tracker.finalize(run_end);

  RunOutput out;
  out.crash_count = crash_layer.crash_count();
  const auto& hb_stats = transport.link_stats(kMonitored, kMonitor);
  out.hb_sent = hb_stats.sent;
  out.hb_delivered = hb_stats.delivered;
  if (chaos_net.has_value()) out.chaos = chaos_net->stats();
  if (bank != nullptr) {
    out.bank = bank->counters();
  } else {
    for (const auto& d : detectors) out.bank.add(d->counters());
  }
  out.trackers = std::move(trackers);

  if (progress != nullptr) {
    progress->runs_done.fetch_add(1, std::memory_order_relaxed);
    progress->crashes_done.fetch_add(out.crash_count,
                                     std::memory_order_relaxed);
  }
  FDQOS_LOG_INFO("qos run %zu/%zu: %llu crashes", run + 1, config.runs,
                 static_cast<unsigned long long>(out.crash_count));
  return out;
}

// ---------------------------------------------------------------------------
// LP-partitioned engine (SimEngine::kLp; sim/parallel_simulator.hpp and
// docs/pdes.md).
//
// Partition per run: LP0 owns the whole sender stack — heartbeater, crash
// injector, fault wrappers and every link RNG draw — and LPs 1..lps-1 each
// own a shard of the detector suite behind their own MultiPlexer. The only
// cross-LP channel is heartbeat delivery LP0→shard, whose lookahead is the
// link's minimum one-way delay, so shards run concurrently with the sender
// up to one delay floor ahead.
//
// QosTrackers are pure folds over timestamped records, so instead of
// notifying them live across LPs (which would need zero-lookahead channels
// and serialize everything), each shard records its (lane, t, suspecting)
// transitions and LP0 records the (t, crashed) ground truth; both replay
// into the trackers after the run. Trackers are per-lane, so cross-lane
// order is irrelevant and the replay is deterministic for every lps,
// lp_jobs and machine — byte-identical reports.

namespace {

// Suspect transition captured on a shard LP (chronological per shard).
struct TransitionRecord {
  std::size_t lane;  // global suite index
  TimePoint t;
  bool suspecting;
};

struct CrashRecord {
  TimePoint t;
  bool crashed;
};

// Greedy least-loaded assignment of predictor groups to shards: groups in
// creation order, each to the shard with the fewest lanes so far (ties →
// lowest shard id). A pure function of the suite, so the partition never
// depends on jobs, timing or machine.
std::vector<std::size_t> partition_groups(
    const std::vector<std::size_t>& group_lanes, std::size_t shard_count) {
  std::vector<std::size_t> shard_of_group(group_lanes.size());
  std::vector<std::size_t> load(shard_count, 0);
  for (std::size_t g = 0; g < group_lanes.size(); ++g) {
    std::size_t best = 0;
    for (std::size_t s = 1; s < shard_count; ++s) {
      if (load[s] < load[best]) best = s;
    }
    shard_of_group[g] = best;
    load[best] += group_lanes[g];
  }
  return shard_of_group;
}

}  // namespace

RunOutput run_one_lp(const QosExperimentConfig& config,
                     const std::vector<fd::FdSpec>& suite,
                     const std::shared_ptr<const std::vector<Duration>>& trace,
                     const std::shared_ptr<const faultx::FaultSchedule>& faults,
                     std::size_t run, const Rng& base_rng, TimePoint run_end,
                     ProgressState* progress, std::size_t lp_jobs) {
  Rng run_rng = base_rng.fork(run);
  if (progress != nullptr) {
    progress->runs_started.fetch_add(1, std::memory_order_relaxed);
  }

  const std::size_t lps = config.lps == 0 ? 1 : config.lps;
  // lps = 1 keeps sender and detectors on one LP (the PDES baseline);
  // otherwise LP0 sends and every other LP holds one detector shard.
  const std::size_t shard_count = lps >= 2 ? lps - 1 : 1;
  const auto shard_lp = [lps](std::size_t s) { return lps >= 2 ? 1 + s : s; };

  sim::ParallelSimulator::Options po;
  po.lps = lps;
  po.jobs = lp_jobs;
  // One LP cannot backlog cross-LP mail, so the window cap buys nothing:
  // run the whole horizon as a single window (the PDES baseline then pays
  // no per-round coordination at all).
  if (lps < 2) po.max_window = Duration::zero();
  po.roles.push_back("sender");
  for (std::size_t i = 1; i < lps; ++i) po.roles.push_back("detectors");
  sim::ParallelSimulator psim(std::move(po));
  sim::Lp& sender_lp = psim.lp(0);

  net::LpSenderTransport transport(psim, 0, run_rng.fork("net"));
  transport.set_link(kMonitored, kMonitor,
                     make_link_config(config, trace, faults, run));

  // Transport-level faults wrap only the monitored node's view, exactly as
  // in the sequential engine; every fault draw stays on the sender LP.
  std::optional<faultx::FaultyTransport> chaos_net;
  net::Transport* monitored_net = &transport;
  if (faults != nullptr) {
    chaos_net.emplace(transport, faults, run_rng.fork("faultx"));
    monitored_net = &*chaos_net;
  }

  runtime::ProcessNode monitored(*monitored_net, kMonitored);
  auto& crash_layer = monitored.push(std::make_unique<runtime::SimCrashLayer>(
      sender_lp, runtime::SimCrashLayer::Config{config.mttc, config.ttr},
      run_rng.fork("crash")));
  runtime::HeartbeaterLayer::Config hb_config;
  hb_config.eta = config.eta;
  hb_config.self = kMonitored;
  hb_config.monitor = kMonitor;
  hb_config.max_cycles = config.num_cycles;
  auto& heartbeater = monitored.push(
      std::make_unique<runtime::HeartbeaterLayer>(sender_lp, hb_config));

  // lps = 1 keeps every layer on one LP, so observer callbacks already
  // fire in global simulation order — trackers update inline, exactly like
  // the sequential engine, and the record/merge machinery below is skipped
  // (the PDES baseline then costs what seq costs). Multi-LP runs defer.
  const bool single_lp = lps < 2;
  const TimePoint warmup_end = TimePoint::origin() + config.warmup;
  std::vector<fd::QosTracker> trackers;
  trackers.reserve(suite.size());
  for (std::size_t i = 0; i < suite.size(); ++i) {
    trackers.emplace_back(warmup_end);
  }

  // Ground-truth crash toggles: applied inline on the single-LP layout,
  // recorded on LP0 and replayed after the run otherwise. Either way the
  // crash_probe stream fires here, on the sender LP, in simulation order.
  std::vector<CrashRecord> crash_records;
  if (single_lp) {
    crash_layer.set_observer([&trackers, &config, run](TimePoint t,
                                                       bool crashed) {
      for (auto& tracker : trackers) {
        if (crashed) {
          tracker.process_crashed(t);
        } else {
          tracker.process_restored(t);
        }
      }
      if (config.crash_probe) config.crash_probe(run, 0, t, crashed);
    });
  } else {
    crash_layer.set_observer([&crash_records, &config, run](TimePoint t,
                                                            bool crashed) {
      crash_records.push_back({t, crashed});
      if (config.crash_probe) config.crash_probe(run, 0, t, crashed);
    });
  }

  // Partition the suite, predictor groups kept whole (a shared predictor
  // must see one arrival stream on one LP). Group ids replicate run_one's
  // first-seen-key order; the legacy engine shares nothing, so every lane
  // is its own group.
  std::vector<std::size_t> group_of(suite.size());
  std::vector<std::size_t> group_lanes;
  if (config.use_detector_bank) {
    std::unordered_map<std::string, std::size_t> group_by_key;
    for (std::size_t i = 0; i < suite.size(); ++i) {
      const auto& key = suite[i].predictor_key;
      const auto it =
          key.empty() ? group_by_key.end() : group_by_key.find(key);
      if (it != group_by_key.end()) {
        group_of[i] = it->second;
      } else {
        group_of[i] = group_lanes.size();
        group_lanes.push_back(0);
        if (!key.empty()) group_by_key.emplace(key, group_of[i]);
      }
      ++group_lanes[group_of[i]];
    }
  } else {
    group_lanes.assign(suite.size(), 1);
    for (std::size_t i = 0; i < suite.size(); ++i) group_of[i] = i;
  }
  // More shards than predictor groups would leave some with a zero-lane
  // bank (DetectorBank requires width > 0): cap the shard count at the
  // group count — the surplus LPs simply stay idle for the whole run.
  const std::size_t active_shards = std::min(
      shard_count, std::max<std::size_t>(group_lanes.size(), 1));
  const std::vector<std::size_t> shard_of_group =
      partition_groups(group_lanes, active_shards);

  struct Shard {
    std::unique_ptr<net::LpShardTransport> transport;
    std::unique_ptr<runtime::ProcessNode> node;
    runtime::MultiPlexerLayer* mux = nullptr;  // owned by node
    std::unique_ptr<fd::DetectorBank> bank;
    std::vector<std::unique_ptr<fd::FreshnessDetector>> detectors;  // legacy
    std::vector<std::size_t> local_to_global;  // bank lane → suite index
    std::vector<TransitionRecord> transitions;
  };
  std::vector<Shard> shards(active_shards);
  // Live "how many lanes suspect right now" for the progress tick; shard
  // observers update it from their own LP threads.
  std::atomic<std::size_t> suspecting_now{0};

  for (std::size_t s = 0; s < active_shards; ++s) {
    Shard& shard = shards[s];
    shard.transport =
        std::make_unique<net::LpShardTransport>(psim, shard_lp(s));
    transport.add_shard(kMonitor, *shard.transport);
    shard.node =
        std::make_unique<runtime::ProcessNode>(*shard.transport, kMonitor);
    shard.mux =
        &shard.node->push(std::make_unique<runtime::MultiPlexerLayer>());

    Shard* sp = &shard;
    if (config.use_detector_bank) {
      fd::DetectorBank::Config bank_config;
      bank_config.eta = config.eta;
      bank_config.monitored = kMonitored;
      bank_config.cold_start_timeout = config.cold_start_timeout;
      bank_config.name = "qos-bank";
      shard.bank =
          std::make_unique<fd::DetectorBank>(psim.lp(shard_lp(s)), bank_config);
      // Suite order within the shard: the first lane of a group here is
      // also the group's globally-first spec (groups are never split), so
      // predictor construction matches run_one exactly.
      std::unordered_map<std::size_t, std::size_t> local_group;
      for (std::size_t i = 0; i < suite.size(); ++i) {
        if (shard_of_group[group_of[i]] != s) continue;
        std::size_t lg;
        const auto it = local_group.find(group_of[i]);
        if (it != local_group.end()) {
          lg = it->second;
        } else {
          lg = shard.bank->add_group(suite[i].make_predictor());
          local_group.emplace(group_of[i], lg);
        }
        shard.bank->add_lane(suite[i].name, lg, suite[i].make_margin());
        shard.local_to_global.push_back(i);
      }
      if (single_lp) {
        shard.bank->set_observer([sp, &trackers, &config, run,
                                  &suspecting_now](std::size_t lane,
                                                   TimePoint t, bool susp) {
          const std::size_t i = sp->local_to_global[lane];
          if (susp) {
            trackers[i].suspect_started(t);
            suspecting_now.fetch_add(1, std::memory_order_relaxed);
          } else {
            trackers[i].suspect_ended(t);
            suspecting_now.fetch_sub(1, std::memory_order_relaxed);
          }
          if (config.transition_probe) {
            config.transition_probe(run, i, t, susp);
          }
        });
      } else {
        shard.bank->set_observer(
            [sp, &suspecting_now](std::size_t lane, TimePoint t, bool susp) {
              sp->transitions.push_back({sp->local_to_global[lane], t, susp});
              if (susp) {
                suspecting_now.fetch_add(1, std::memory_order_relaxed);
              } else {
                suspecting_now.fetch_sub(1, std::memory_order_relaxed);
              }
            });
      }
      shard.node->attach_unowned(*shard.mux, *shard.bank);
    } else {
      for (std::size_t i = 0; i < suite.size(); ++i) {
        if (shard_of_group[group_of[i]] != s) continue;
        fd::FreshnessDetector::Config fd_config;
        fd_config.eta = config.eta;
        fd_config.monitored = kMonitored;
        fd_config.cold_start_timeout = config.cold_start_timeout;
        fd_config.name = suite[i].name;
        auto detector = std::make_unique<fd::FreshnessDetector>(
            psim.lp(shard_lp(s)), fd_config, suite[i].make_predictor(),
            suite[i].make_margin());
        if (single_lp) {
          detector->set_observer([&trackers, &config, run, i,
                                  &suspecting_now](TimePoint t, bool susp) {
            if (susp) {
              trackers[i].suspect_started(t);
              suspecting_now.fetch_add(1, std::memory_order_relaxed);
            } else {
              trackers[i].suspect_ended(t);
              suspecting_now.fetch_sub(1, std::memory_order_relaxed);
            }
            if (config.transition_probe) {
              config.transition_probe(run, i, t, susp);
            }
          });
        } else {
          detector->set_observer(
              [sp, i, &suspecting_now](TimePoint t, bool susp) {
                sp->transitions.push_back({i, t, susp});
                if (susp) {
                  suspecting_now.fetch_add(1, std::memory_order_relaxed);
                } else {
                  suspecting_now.fetch_sub(1, std::memory_order_relaxed);
                }
              });
        }
        shard.node->attach_unowned(*shard.mux, *detector);
        shard.detectors.push_back(std::move(detector));
      }
    }
  }

  // The one cross-LP channel: heartbeat delivery. Its lookahead is the
  // link's hard delay floor, already shrunk by chaos clock jumps
  // (FaultyDelay::min_delay) and zero for unconfigured/floorless links —
  // the coordinator's stall rule keeps even that case correct.
  if (lps >= 2) {
    const Duration lookahead =
        transport.link_lookahead(kMonitored, kMonitor);
    for (std::size_t s = 0; s < active_shards; ++s) {
      psim.set_lookahead(0, shard_lp(s), lookahead);
    }
  }

  monitored.start();
  for (auto& shard : shards) shard.node->start();

  // Reduced LP-mode telemetry tick on the sender LP: mid-run shard state
  // (per-lane gauges, timer deadlines) belongs to other LPs, so the tick
  // publishes only sender-local counts and the shard-maintained atomic
  // suspecting count. See docs/pdes.md.
  std::function<void()> progress_tick;
  if (progress != nullptr) {
    const Duration tick_every = config.eta * 5;
    // tick_every by value: the tick outlives this block.
    progress_tick = [&, run, tick_every] {
      std::unique_lock<std::mutex> lock(progress->mu, std::try_to_lock);
      if (lock.owns_lock() && progress->emitter.due()) {
        const std::size_t suspecting =
            suspecting_now.load(std::memory_order_relaxed);
        const std::size_t started =
            progress->runs_started.load(std::memory_order_relaxed);
        const std::size_t done =
            progress->runs_done.load(std::memory_order_relaxed);
        const auto hb_stats = transport.link_stats(kMonitored, kMonitor);
        if (obs::enabled()) {
          obs::instruments().experiment_run.set(static_cast<double>(started));
          obs::instruments().fd_suspecting.set(
              static_cast<double>(suspecting));
          obs::RunStatus st;
          st.id = config.run_id;
          st.verb = config.run_verb;
          st.suite = config.suite_label;
          st.runs_total = config.runs;
          st.runs_started = started;
          st.runs_done = done;
          st.crashes = progress->crashes_done.load(std::memory_order_relaxed) +
                       crash_layer.crash_count();
          st.heartbeats_sent = hb_stats.sent;
          st.detectors = suite.size();
          st.suspecting = suspecting;
          st.sim_time_s = sender_lp.now().to_seconds_double();
          obs::RunRegistry::global().update(st);
        }
        progress->emitter.emit(
            "run %zu/%zu (%zu done) t=%.0fs cycles=%lld/%lld crashes=%llu "
            "hb sent=%llu delivered=%llu lost=%llu suspecting=%zu/%zu",
            run + 1, config.runs, done, sender_lp.now().to_seconds_double(),
            static_cast<long long>(heartbeater.cycles_sent()),
            static_cast<long long>(config.num_cycles),
            static_cast<unsigned long long>(crash_layer.crash_count()),
            static_cast<unsigned long long>(hb_stats.sent),
            static_cast<unsigned long long>(hb_stats.delivered),
            static_cast<unsigned long long>(hb_stats.sent -
                                            hb_stats.delivered),
            suspecting, suite.size());
      }
      sender_lp.schedule_after(tick_every, progress_tick);
    };
    sender_lp.schedule_after(tick_every, progress_tick);
  }

  psim.run_until(run_end);

  // Multi-LP: replay the recorded streams into the trackers. A lane's
  // transitions live on exactly one shard, appended in that LP's execution
  // order — chronological — so a per-lane two-stream merge with the crash
  // toggles reproduces the live update sequence. Equal-instant ties replay
  // crash-first (fixed, engine-independent order; the determinism suite
  // pins the resulting bytes). Single-LP runs updated inline above.
  if (!single_lp) {
    std::vector<std::vector<const TransitionRecord*>> by_lane(suite.size());
    for (const auto& shard : shards) {
      for (const auto& rec : shard.transitions) {
        by_lane[rec.lane].push_back(&rec);
      }
    }
    for (std::size_t i = 0; i < suite.size(); ++i) {
      fd::QosTracker& tracker = trackers[i];
      const auto& lane = by_lane[i];
      std::size_t c = 0;
      std::size_t t = 0;
      while (c < crash_records.size() || t < lane.size()) {
        const bool take_crash =
            t >= lane.size() ||
            (c < crash_records.size() && crash_records[c].t <= lane[t]->t);
        if (take_crash) {
          if (crash_records[c].crashed) {
            tracker.process_crashed(crash_records[c].t);
          } else {
            tracker.process_restored(crash_records[c].t);
          }
          ++c;
        } else {
          if (lane[t]->suspecting) {
            tracker.suspect_started(lane[t]->t);
          } else {
            tracker.suspect_ended(lane[t]->t);
          }
          if (config.transition_probe) {
            // Note: under this layout the probe fires post-run, grouped by
            // lane (time-ordered within a lane), not globally interleaved.
            config.transition_probe(run, i, lane[t]->t, lane[t]->suspecting);
          }
          ++t;
        }
      }
    }
  }
  for (auto& tracker : trackers) tracker.finalize(run_end);

  RunOutput out;
  out.crash_count = crash_layer.crash_count();
  const auto hb_stats = transport.link_stats(kMonitored, kMonitor);
  out.hb_sent = hb_stats.sent;
  out.hb_delivered = hb_stats.delivered;
  if (chaos_net.has_value()) out.chaos = chaos_net->stats();
  for (const auto& shard : shards) {
    if (shard.bank != nullptr) out.bank.add(shard.bank->counters());
    for (const auto& d : shard.detectors) out.bank.add(d->counters());
  }
  out.sim = psim.stats();
  out.trackers = std::move(trackers);

  if (progress != nullptr) {
    progress->runs_done.fetch_add(1, std::memory_order_relaxed);
    progress->crashes_done.fetch_add(out.crash_count,
                                     std::memory_order_relaxed);
  }
  FDQOS_LOG_INFO(
      "qos run %zu/%zu (lp engine, %zu lps): %llu crashes", run + 1,
      config.runs, lps, static_cast<unsigned long long>(out.crash_count));
  return out;
}

// ---------------------------------------------------------------------------
// Fleet engine (fd::FleetBank; docs/fleet.md).
//
// `endpoints` independent monitored processes, each with its own link,
// crash injector and full detector suite, sharded into contiguous blocks.
// Each (run, shard) unit owns one simulator (one LP under kLp), one
// FleetBank and the block's endpoint stacks. Endpoint e's whole stochastic
// tree forks from fleet_endpoint_seed(seed, e) with the same fork names as
// run_one, and every endpoint uses the local node-id pair (0, 1) on its
// own transport — so endpoint e of any fleet run is bit-for-bit a
// standalone run seeded with its fleet seed, regardless of M, the shard
// count, jobs or engine. The equivalence suite (`ctest -L fleet`) pins it.

namespace {

// One monitored endpoint's stack inside a shard.
struct FleetEndpoint {
  std::unique_ptr<net::SimTransport> transport;
  std::optional<faultx::FaultyTransport> chaos_net;
  std::unique_ptr<runtime::ProcessNode> monitored;
  std::unique_ptr<runtime::ProcessNode> monitor;
  runtime::SimCrashLayer* crash = nullptr;           // owned by `monitored`
  runtime::HeartbeaterLayer* heartbeater = nullptr;  // owned by `monitored`
  runtime::MultiPlexerLayer* mux = nullptr;          // owned by `monitor`
  fd::DetectorBank* bank = nullptr;  // owned by the fleet's arena
  std::vector<fd::QosTracker> trackers;  // index-aligned with the suite
};

struct FleetShardContext {
  std::unique_ptr<fd::FleetBank> fleet;
  // deque: endpoint addresses must stay stable while later endpoints are
  // appended (bank/crash observers capture them).
  std::deque<FleetEndpoint> endpoints;
  std::function<void()> progress_tick;  // keeps the tick closure alive
};

void build_fleet_shard(
    sim::Simulator& simulator, const QosExperimentConfig& config,
    const std::vector<fd::FdSpec>& suite,
    const std::shared_ptr<const std::vector<Duration>>& trace,
    const std::shared_ptr<const faultx::FaultSchedule>& faults,
    std::size_t run, std::size_t ep_begin, std::size_t ep_end,
    FleetShardContext& ctx) {
  fd::FleetBank::Config fleet_config;
  fleet_config.eta = config.eta;
  fleet_config.cold_start_timeout = config.cold_start_timeout;
  fleet_config.name = "qos-fleet";
  fleet_config.expected_endpoints = ep_end - ep_begin;
  ctx.fleet = std::make_unique<fd::FleetBank>(simulator, fleet_config);

  const TimePoint warmup_end = TimePoint::origin() + config.warmup;
  for (std::size_t e = ep_begin; e < ep_end; ++e) {
    FleetEndpoint& ep = ctx.endpoints.emplace_back();
    // The endpoint's RNG tree is rooted exactly like a standalone run
    // seeded with its fleet seed; every named fork below matches run_one.
    Rng ep_rng = Rng(fleet_endpoint_seed(config.seed, e)).fork(run);
    ep.transport =
        std::make_unique<net::SimTransport>(simulator, ep_rng.fork("net"));
    ep.transport->set_link(kMonitored, kMonitor,
                           make_link_config(config, trace, faults, run));
    net::Transport* monitored_net = ep.transport.get();
    if (faults != nullptr) {
      ep.chaos_net.emplace(*ep.transport, faults, ep_rng.fork("faultx"));
      monitored_net = &*ep.chaos_net;
    }

    ep.monitored =
        std::make_unique<runtime::ProcessNode>(*monitored_net, kMonitored);
    ep.crash = &ep.monitored->push(std::make_unique<runtime::SimCrashLayer>(
        simulator, runtime::SimCrashLayer::Config{config.mttc, config.ttr},
        ep_rng.fork("crash")));
    runtime::HeartbeaterLayer::Config hb_config;
    hb_config.eta = config.eta;
    hb_config.self = kMonitored;
    hb_config.monitor = kMonitor;
    hb_config.max_cycles = config.num_cycles;
    ep.heartbeater = &ep.monitored->push(
        std::make_unique<runtime::HeartbeaterLayer>(simulator, hb_config));

    ep.monitor =
        std::make_unique<runtime::ProcessNode>(*ep.transport, kMonitor);
    ep.mux = &ep.monitor->push(std::make_unique<runtime::MultiPlexerLayer>());

    // Member bank: the same group/lane assembly as run_one. Per-node
    // attachment — the member sits on its endpoint's own stack, so the
    // shared monitored id never needs fleet routing.
    fd::DetectorBank& bank = ctx.fleet->add_member(kMonitored, "qos-bank");
    bank.reserve_lanes(suite.size());
    std::unordered_map<std::string, std::size_t> group_by_key;
    for (const auto& spec : suite) {
      std::size_t group;
      const auto it = spec.predictor_key.empty()
                          ? group_by_key.end()
                          : group_by_key.find(spec.predictor_key);
      if (it != group_by_key.end()) {
        group = it->second;
      } else {
        group = bank.add_group(spec.make_predictor());
        if (!spec.predictor_key.empty()) {
          group_by_key.emplace(spec.predictor_key, group);
        }
      }
      bank.add_lane(spec.name, group, spec.make_margin());
    }
    ep.bank = &bank;

    ep.trackers.reserve(suite.size());
    for (std::size_t i = 0; i < suite.size(); ++i) {
      ep.trackers.emplace_back(warmup_end);
    }
    FleetEndpoint* epp = &ep;
    const std::size_t width = suite.size();
    bank.set_observer([epp, &config, run, e, width](std::size_t lane,
                                                    TimePoint t, bool susp) {
      if (susp) {
        epp->trackers[lane].suspect_started(t);
      } else {
        epp->trackers[lane].suspect_ended(t);
      }
      if (config.transition_probe) {
        config.transition_probe(run, e * width + lane, t, susp);
      }
    });
    ep.crash->set_observer([epp, &config, run, e](TimePoint t, bool crashed) {
      for (auto& tracker : epp->trackers) {
        if (crashed) {
          tracker.process_crashed(t);
        } else {
          tracker.process_restored(t);
        }
      }
      if (config.crash_probe) config.crash_probe(run, e, t, crashed);
    });
    ep.monitor->attach_unowned(*ep.mux, bank);

    // Start order within an endpoint matches run_one (monitored, then
    // monitor — which runs the member's begin_cycle(0) inline).
    // Cross-endpoint interleaving is irrelevant: endpoints share no state.
    ep.monitored->start();
    ep.monitor->start();
  }
  // The shared cycle tick is scheduled after every member computed cycle 0
  // and before the simulator runs, so at each σ_k the begin-cycle work
  // still precedes any same-instant heartbeat send — every member keeps
  // its standalone event order.
  ctx.fleet->start();
}

FleetShardOutput drain_fleet_shard(FleetShardContext& ctx, TimePoint run_end) {
  FleetShardOutput out;
  out.fleet = ctx.fleet->counters();
  out.bank = ctx.fleet->member_counters();
  out.trackers.reserve(ctx.endpoints.size());
  out.crash_count.reserve(ctx.endpoints.size());
  out.hb_sent.reserve(ctx.endpoints.size());
  out.hb_delivered.reserve(ctx.endpoints.size());
  for (FleetEndpoint& ep : ctx.endpoints) {
    for (auto& tracker : ep.trackers) tracker.finalize(run_end);
    out.crash_count.push_back(ep.crash->crash_count());
    const auto& hb = ep.transport->link_stats(kMonitored, kMonitor);
    out.hb_sent.push_back(hb.sent);
    out.hb_delivered.push_back(hb.delivered);
    // Per-node attachment delivers heartbeats straight into each member
    // (never through the fleet's routed path), so the shard's heartbeat
    // counter is accounted here from the links — fdqos_fleet_heartbeats_-
    // total stays meaningful in experiment mode, not just raw-coordinator.
    out.fleet.heartbeats += hb.delivered;
    if (ep.chaos_net.has_value()) {
      const auto stats = ep.chaos_net->stats();
      out.chaos.sent += stats.sent;
      out.chaos.fault_dropped += stats.fault_dropped;
      out.chaos.duplicated += stats.duplicated;
    }
    out.trackers.push_back(std::move(ep.trackers));
  }
  return out;
}

// Fleet telemetry tick, installed on one shard per invocation (run 0 is
// usually first but any shard 0 may win the emitter's rate limiter). A
// shard can hold thousands of endpoint stacks, so the tick publishes
// shard-aggregate numbers — the emitted crash/heartbeat figures are the
// reporting shard's own block, a sample, not a fleet total; the final
// report and /runs row carry the totals.
void install_fleet_progress(const QosExperimentConfig& config,
                            ProgressState* progress, FleetShardContext& ctx,
                            sim::Simulator& simulator, std::size_t run,
                            std::size_t suite_width, std::size_t ep_begin) {
  const Duration tick_every = config.eta * 5;
  ctx.progress_tick = [&config, progress, &ctx, &simulator, run, suite_width,
                       ep_begin, tick_every] {
    std::unique_lock<std::mutex> lock(progress->mu, std::try_to_lock);
    if (lock.owns_lock() && progress->emitter.due()) {
      const std::size_t suspecting = ctx.fleet->suspecting_count();
      const std::size_t started =
          progress->runs_started.load(std::memory_order_relaxed);
      const std::size_t done =
          progress->runs_done.load(std::memory_order_relaxed);
      std::uint64_t sent = 0;
      std::uint64_t delivered = 0;
      std::uint64_t crashes = 0;
      for (const FleetEndpoint& ep : ctx.endpoints) {
        const auto& hb = ep.transport->link_stats(kMonitored, kMonitor);
        sent += hb.sent;
        delivered += hb.delivered;
        crashes += ep.crash->crash_count();
      }
      if (obs::enabled()) {
        obs::instruments().experiment_run.set(static_cast<double>(started));
        obs::instruments().fd_suspecting.set(static_cast<double>(suspecting));
        obs::RunStatus st;
        st.id = config.run_id;
        st.verb = config.run_verb;
        st.suite = config.suite_label;
        st.runs_total = config.runs;
        st.runs_started = started;
        st.runs_done = done;
        st.crashes = progress->crashes_done.load(std::memory_order_relaxed) +
                     crashes;
        st.heartbeats_sent = sent;
        st.detectors = suite_width * config.endpoints;
        st.suspecting = suspecting;
        st.sim_time_s = simulator.now().to_seconds_double();
        obs::RunRegistry::global().update(st);
      }
      progress->emitter.emit(
          "run %zu/%zu (%zu done) t=%.0fs fleet ep[%zu..%zu): crashes=%llu "
          "hb sent=%llu delivered=%llu lost=%llu suspecting=%zu/%zu",
          run + 1, config.runs, done, simulator.now().to_seconds_double(),
          ep_begin, ep_begin + ctx.endpoints.size(),
          static_cast<unsigned long long>(crashes),
          static_cast<unsigned long long>(sent),
          static_cast<unsigned long long>(delivered),
          static_cast<unsigned long long>(sent - delivered), suspecting,
          ctx.fleet->total_lanes());
    }
    simulator.schedule_after(tick_every, ctx.progress_tick);
  };
  simulator.schedule_after(tick_every, ctx.progress_tick);
}

}  // namespace

std::size_t fleet_shard_begin(std::size_t endpoints, std::size_t shards,
                              std::size_t s) {
  const std::size_t base = endpoints / shards;
  const std::size_t rem = endpoints % shards;
  return s * base + std::min(s, rem);
}

FleetShardOutput run_fleet_shard(
    const QosExperimentConfig& config, const std::vector<fd::FdSpec>& suite,
    const std::shared_ptr<const std::vector<Duration>>& trace,
    const std::shared_ptr<const faultx::FaultSchedule>& faults,
    std::size_t run, std::size_t shards, std::size_t shard, TimePoint run_end,
    ProgressState* progress) {
  const std::size_t ep_begin = fleet_shard_begin(config.endpoints, shards, shard);
  const std::size_t ep_end =
      fleet_shard_begin(config.endpoints, shards, shard + 1);
  sim::Simulator simulator;
  FleetShardContext ctx;
  build_fleet_shard(simulator, config, suite, trace, faults, run, ep_begin,
                    ep_end, ctx);
  if (progress != nullptr && shard == 0) {
    install_fleet_progress(config, progress, ctx, simulator, run, suite.size(),
                           ep_begin);
  }
  simulator.run_until(run_end);
  return drain_fleet_shard(ctx, run_end);
}

std::vector<FleetShardOutput> run_fleet_run_lp(
    const QosExperimentConfig& config, const std::vector<fd::FdSpec>& suite,
    const std::shared_ptr<const std::vector<Duration>>& trace,
    const std::shared_ptr<const faultx::FaultSchedule>& faults,
    std::size_t run, std::size_t shards, TimePoint run_end,
    ProgressState* progress, std::size_t lp_jobs) {
  sim::ParallelSimulator::Options po;
  po.lps = shards;
  po.jobs = lp_jobs;
  po.max_window = Duration::zero();
  po.roles.assign(shards, "fleet");
  sim::ParallelSimulator psim(std::move(po));

  std::vector<FleetShardContext> ctxs(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    build_fleet_shard(psim.lp(s), config, suite, trace, faults, run,
                      fleet_shard_begin(config.endpoints, shards, s),
                      fleet_shard_begin(config.endpoints, shards, s + 1),
                      ctxs[s]);
  }
  if (progress != nullptr) {
    install_fleet_progress(config, progress, ctxs[0], psim.lp(0), run,
                           suite.size(), 0);
  }
  psim.run_until(run_end);

  std::vector<FleetShardOutput> outs;
  outs.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    outs.push_back(drain_fleet_shard(ctxs[s], run_end));
  }
  outs[0].sim = psim.stats();
  return outs;
}

}  // namespace fdqos::exp::detail
