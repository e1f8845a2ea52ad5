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

// The per-run link stack, shared by run_one and every fleet endpoint: trace
// replay or the synthetic Italy→Japan models, optionally wrapped by chaos
// and recording. RNG forks are pure functions of (parent, name), so sharing
// this builder keeps the two engines' draw sequences aligned by
// construction.
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

  // The whole suite on one batched bank.
  fd::DetectorBank::Config bank_config;
  bank_config.eta = config.eta;
  bank_config.monitored = kMonitored;
  bank_config.cold_start_timeout = config.cold_start_timeout;
  bank_config.name = "qos-bank";
  fd::DetectorBank bank(simulator, bank_config);
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
      group = bank.add_group(spec.make_predictor());
      if (!spec.predictor_key.empty()) {
        group_by_key.emplace(spec.predictor_key, group);
      }
    }
    bank.add_lane(spec.name, group, spec.make_margin());
  }
  bank.set_observer([&trackers, &config, run](std::size_t i, TimePoint t,
                                              bool suspecting) {
    if (suspecting) {
      trackers[i].suspect_started(t);
    } else {
      trackers[i].suspect_ended(t);
    }
    if (config.transition_probe) config.transition_probe(run, i, t, suspecting);
  });
  monitor.attach_unowned(mux, bank);

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
        const std::size_t suspecting = bank.suspecting_count();
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
            g.suspect->set(bank.lane_suspecting(i) ? 1.0 : 0.0);
            g.timeout_ms->set(bank.lane_delta_ms(i));
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
            const TimePoint deadline = bank.next_timer_deadline();
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
  out.bank = bank.counters();
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
// Fleet engine (fd::FleetBank; docs/fleet.md).
//
// `endpoints` independent monitored processes, each with its own link,
// crash injector and full detector suite, sharded into contiguous blocks.
// Each (run, shard) unit owns one simulator, one FleetBank and the
// block's endpoint stacks. Endpoint e's whole stochastic
// tree forks from fleet_endpoint_seed(seed, e) with the same fork names as
// run_one, and every endpoint uses the local node-id pair (0, 1) on its
// own transport — so endpoint e of any fleet run is bit-for-bit a
// standalone run seeded with its fleet seed, regardless of M, the shard
// count or jobs. The equivalence suite (`ctest -L fleet`) pins it.

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

}  // namespace fdqos::exp::detail
