#include "serve.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <thread>

#include <pthread.h>

#include "attribution.hpp"
#include "checks.hpp"
#include "fd/fleet_bank.hpp"
#include "generator.hpp"
#include "layers.hpp"
#include "obs/instruments.hpp"
#include "obs/metrics.hpp"
#include "schedule.hpp"
#include "serve/daemon.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kGroups = 100;       // phase groups; a block is 1%
constexpr std::size_t kBlocksPerRun = 110;  // ≥ 100 after group conflicts
constexpr std::size_t kBlocksPerProbe = 20;
constexpr std::int64_t kPollNs = 50'000;   // observer poll interval
constexpr std::int64_t kMs = 1'000'000;
constexpr std::int64_t kCpuWindowNs = 500 * kMs;  // hb_cpu_ns sub-window

struct SessionConfig {
  ScheduleConfig schedule;
  bool capture = false;
  std::string capture_dir;
  bool obs = true;          // obs counters on, as with --serve-metrics
  AttributionParams attribution;
};

struct SessionResult {
  bool started = false;  // init() and the generator socket succeeded
  int run_rc = -1;
  fdqos::serve::ServeDaemon::Stats stats;
  fdqos::fd::FleetBank::Counters fleet;
  std::size_t admitted = 0;
  std::size_t fleet_bytes = 0;
  std::vector<std::string> segments;
  std::uint64_t offered = 0;  // heartbeats of the whole schedule
  GeneratorLog gen;
  std::vector<BlockDetection> detections;
  std::uint64_t transitions_to_suspect = 0;
  std::uint64_t transitions_to_trust = 0;
  std::int64_t run_wall_ns = 0;
  std::int64_t daemon_cpu_ns = 0;  // process CPU − generator − observer
  // Daemon CPU per heartbeat of each sub-window after the warm-up (obs on).
  std::vector<double> window_hb_cpu_ns;

  double lost_frac() const;
  // Daemon CPU per ingested heartbeat over the whole run.
  double run_hb_cpu_ns() const;
  // Lower quartile over the sub-windows when there are any, else the
  // whole run. Other tenants of a shared host slow the daemon for seconds
  // at a time; the lower quartile discounts those episodes, and a change
  // to the daemon's own cost moves every sub-window alike.
  double hb_cpu_ns() const;
  // T_D of every block in ms, censored blocks at their lower bound.
  std::vector<double> td_ms() const;
  std::size_t censored() const;
};

// Block spacing and the attribution window it allows.
struct BlockPlan {
  std::int64_t spacing_ns = 0;
  AttributionParams attribution;
};
BlockPlan plan_blocks(std::int64_t eta_ns, std::size_t groups,
                      std::int64_t spacing_ns);

// One daemon lifetime: init, run under the schedule, stop, collect. Output
// checks are recorded into `outcome`; the daemon's capture segments are
// deleted once checked.
SessionResult run_session(const SessionConfig& config, Outcome& outcome);

const ServeWorkload kWorkloads[] = {
    // Per-datagram cost: one 36-byte FDQ1 datagram per heartbeat, 100 k/s.
    {"serve-fleet", 10'000, 100 * kMs, false, false, 0.8},
    // Fleet cost: 10^5 members, packed 256 per datagram, capture on.
    {"serve-aggregate", 100'000, 500 * kMs, true, true, 0.9},
};

fdqos::serve::ServeConfig daemon_config(const SessionConfig& config) {
  fdqos::serve::ServeConfig sc;
  sc.max_endpoints = config.schedule.endpoints;
  sc.eta = fdqos::Duration::nanos(config.schedule.eta_ns);
  sc.capture = config.capture;
  sc.capture_dir = config.capture_dir;
  sc.capture_prefix = "perfbench";
  sc.suite = "lite";
  sc.run_id = "perfbench";
  return sc;
}

void remove_files(const std::vector<std::string>& paths) {
  for (const std::string& path : paths) {
    std::error_code ec;
    std::filesystem::remove(path, ec);
  }
}

// Warm-up periods before the first block: admission, cold start and the
// margins' first samples settle.
std::int64_t warm_periods(std::int64_t eta_ns) {
  return std::max<std::int64_t>(3, (300 * kMs + eta_ns - 1) / eta_ns);
}

// Periods after the last block starts: its silence (≤ 4 skipped
// heartbeats) plus two periods for the detection window.
constexpr std::int64_t kTailPeriods = 7;

SessionConfig session_config(const ServeWorkload& w, std::int64_t eta_ns,
                             std::int64_t periods, std::int64_t spacing_ns,
                             std::uint64_t seed, const std::string& work_dir) {
  SessionConfig c;
  c.schedule.endpoints = w.endpoints;
  c.schedule.eta_ns = eta_ns;
  c.schedule.groups = kGroups;
  c.schedule.packed = w.packed;
  c.schedule.periods = periods;
  c.schedule.warm_periods = warm_periods(eta_ns);
  c.schedule.seed = seed;
  const BlockPlan plan = plan_blocks(eta_ns, kGroups, spacing_ns);
  c.schedule.block_spacing_ns = plan.spacing_ns;
  c.attribution = plan.attribution;
  c.capture = w.capture;
  c.capture_dir = work_dir;
  return c;
}

// The fixed-rate session: `window_s` of schedule with ≥ 100 blocks where
// the window allows it, spaced 0.2 η to 0.7 η apart (closer blocks would
// silence much of the fleet at once).
SessionConfig fixed_session(const ServeWorkload& w, double window_s,
                            std::uint64_t seed, const std::string& work_dir) {
  const std::int64_t periods = std::max<std::int64_t>(
      warm_periods(w.eta_ns) + kTailPeriods + 1,
      static_cast<std::int64_t>(window_s * 1e9 / static_cast<double>(w.eta_ns)));
  const std::int64_t usable =
      (periods - warm_periods(w.eta_ns) - kTailPeriods) * w.eta_ns;
  const std::int64_t spacing =
      std::clamp<std::int64_t>(usable / static_cast<std::int64_t>(kBlocksPerRun),
                               w.eta_ns / 5, 7 * w.eta_ns / 10);
  return session_config(w, w.eta_ns, periods, spacing, seed, work_dir);
}

// A ceiling probe at `rate` hb/s: the same fleet with η = M / rate, so the
// work per heartbeat stays the same, and kBlocksPerProbe blocks 0.35 η
// apart — wide enough windows to see T_D up to about 1.3 η + the lag.
SessionConfig probe_session(const ServeWorkload& w, double rate,
                            std::uint64_t seed, const std::string& work_dir) {
  const auto eta = static_cast<std::int64_t>(
      static_cast<double>(w.endpoints) * 1e9 / rate);
  const std::int64_t spacing = 35 * eta / 100;
  const std::int64_t periods =
      warm_periods(eta) + kTailPeriods +
      (static_cast<std::int64_t>(kBlocksPerProbe) * spacing + eta - 1) / eta;
  return session_config(w, eta, periods, spacing, seed, work_dir);
}

// Probe verdict: the generator kept to the schedule (p99 lateness ≤ 10% of
// η; otherwise the rate was not offered), lost share ≤ 0.001, and p90 T_D
// ≤ 1.5 η — at least 90% of the blocks detected within 1.5 η, censored
// blocks counting as misses.
bool probe_holds(const SessionConfig& c, const SessionResult& r) {
  if (!r.started || r.run_rc != 0 || r.detections.empty()) return false;
  const double eta_ms = static_cast<double>(c.schedule.eta_ns) / 1e6;
  const auto in_time = std::count_if(
      r.detections.begin(), r.detections.end(), [&](const BlockDetection& d) {
        return d.detected && d.td_ms <= 1.5 * eta_ms;
      });
  return quantile(r.gen.late_us, 0.99) <= 0.1 * eta_ms * 1e3 &&
         r.lost_frac() <= 0.001 &&
         static_cast<double>(in_time) >=
             0.9 * static_cast<double>(r.detections.size());
}

double median_init_s(const SessionConfig& config, std::size_t repeats,
                     Outcome& outcome) {
  std::vector<double> times;
  for (std::size_t i = 0; i < repeats; ++i) {
    fdqos::serve::ServeDaemon daemon(daemon_config(config));
    const std::int64_t start = now_ns();
    const bool ok = daemon.init();
    times.push_back(static_cast<double>(now_ns() - start) / 1e9);
    outcome.check(ok, "serve: ServeDaemon::init failed");
  }
  return median(times);
}

// Highest offered rate that holds the probe verdict, by doubling (or
// halving) from the fixed rate and then bisecting geometrically until
// neighbouring probes are ≤ 5% apart.
double find_ceiling(const ServeWorkload& w, bool fixed_holds,
                    std::uint64_t seed, const std::string& work_dir,
                    Outcome& outcome) {
  const double fixed_rate =
      static_cast<double>(w.endpoints) * 1e9 / static_cast<double>(w.eta_ns);
  std::uint64_t probe_seed = seed;
  const auto holds = [&](double rate) {
    const SessionConfig c = probe_session(w, rate, ++probe_seed, work_dir);
    const SessionResult r = run_session(c, outcome);
    const bool ok = probe_holds(c, r);
    std::fprintf(stderr,
                 "perfbench: probe %.0f hb/s (eta %.1f ms): %s; lost %.5f, "
                 "%zu of %zu blocks censored, generator late p99 %.0f us\n",
                 rate, static_cast<double>(c.schedule.eta_ns) / 1e6,
                 ok ? "holds" : "fails", r.lost_frac(), r.censored(),
                 r.detections.size(), quantile(r.gen.late_us, 0.99));
    return ok;
  };
  double lo = 0.0, hi = 0.0;
  if (fixed_holds) {
    lo = fixed_rate;
    for (int i = 0; i < 5 && hi == 0.0; ++i) {
      if (holds(lo * 2)) lo *= 2; else hi = lo * 2;
    }
  } else {
    hi = fixed_rate;
    for (int i = 0; i < 5 && lo == 0.0; ++i) {
      if (holds(hi / 2)) lo = hi / 2; else hi /= 2;
    }
  }
  if (lo == 0.0 || hi == 0.0) return lo;
  while (hi / lo > 1.05) {
    const double mid = std::sqrt(lo * hi);
    if (holds(mid)) lo = mid; else hi = mid;
  }
  return lo;
}

BlockPlan plan_blocks(std::int64_t eta_ns, std::size_t groups,
                      std::int64_t spacing_ns) {
  BlockPlan plan;
  plan.spacing_ns = spacing_ns;
  plan.attribution.eta_ns = eta_ns;
  // Consecutive blocks start ≥ spacing − one group step apart.
  plan.attribution.width_ns = 8 * spacing_ns / 10 -
                              eta_ns / static_cast<std::int64_t>(groups);
  return plan;
}

double SessionResult::lost_frac() const {
  if (offered == 0) return 1.0;
  return static_cast<double>(offered - std::min(offered, stats.heartbeats)) /
         static_cast<double>(offered);
}

double SessionResult::run_hb_cpu_ns() const {
  if (stats.heartbeats == 0) return 0.0;
  return static_cast<double>(daemon_cpu_ns) /
         static_cast<double>(stats.heartbeats);
}

double SessionResult::hb_cpu_ns() const {
  return window_hb_cpu_ns.empty() ? run_hb_cpu_ns()
                                  : quantile(window_hb_cpu_ns, 0.25);
}

std::vector<double> SessionResult::td_ms() const {
  std::vector<double> out;
  for (const BlockDetection& d : detections) out.push_back(d.td_ms);
  return out;
}

std::size_t SessionResult::censored() const {
  return static_cast<std::size_t>(std::count_if(
      detections.begin(), detections.end(),
      [](const BlockDetection& d) { return !d.detected; }));
}

SessionResult run_session(const SessionConfig& config, Outcome& outcome) {
  fdqos::obs::set_enabled(config.obs);
  const Schedule schedule(config.schedule);
  SessionResult result;
  result.offered = schedule.total_heartbeats();

  fdqos::serve::ServeDaemon daemon(daemon_config(config));
  if (!daemon.init()) {
    outcome.check(false, "serve: ServeDaemon::init failed");
    return result;
  }
  Generator generator(schedule, daemon.udp_port());
  if (!generator.ok()) {
    outcome.check(false, "serve: generator socket failed");
    return result;
  }
  result.started = true;

  auto& ins = fdqos::obs::instruments();
  const std::uint64_t suspect0 = ins.fd_transitions_to_suspect.value();
  const std::uint64_t trust0 = ins.fd_transitions_to_trust.value();
  const std::uint64_t dgrams0 = ins.serve_datagrams_total.value();

  std::atomic<bool> stop_obs{false}, ready{false};
  std::atomic<std::int64_t> t0{0};
  ObserverLog observer;
  const std::int64_t cpu0 = process_cpu_ns();
  std::thread daemon_thread([&] {
    pin_current_thread(Role::kDaemon);
    t0.store(now_ns());
    result.run_rc = daemon.run();
  });
  while (t0.load() == 0) std::this_thread::yield();
  // The generator waits until the observer has its baselines.
  std::thread generator_thread([&] {
    pin_current_thread(Role::kGenerator);
    while (!ready.load()) std::this_thread::yield();
    result.gen = generator.run(t0.load());
  });
  std::thread observer_thread;
  if (config.obs) {
    clockid_t generator_clock{};
    pthread_getcpuclockid(generator_thread.native_handle(), &generator_clock);
    observer_thread = std::thread([&, generator_clock] {
      pin_current_thread(Role::kObserver);
      observer = observe_counters(stop_obs, ready, kPollNs, generator_clock,
                                  kCpuWindowNs);
    });
  } else {
    ready.store(true);
  }
  generator_thread.join();

  // Let the last detection windows close, then wait (bounded) for the
  // daemon to drain what is still queued.
  sleep_until_ns(result.gen.end_ns + config.attribution.width_ns +
                 config.attribution.persist_ns + 10 * kMs);
  if (config.obs) {
    const std::int64_t give_up = now_ns() + 2'000 * kMs;
    while (ins.serve_datagrams_total.value() - dgrams0 <
               result.gen.datagrams_sent &&
           now_ns() < give_up) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  daemon.request_stop();
  daemon_thread.join();
  const std::int64_t cpu1 = process_cpu_ns();
  result.run_wall_ns = now_ns() - t0.load();
  stop_obs.store(true);
  if (observer_thread.joinable()) observer_thread.join();

  result.daemon_cpu_ns = cpu1 - cpu0 - result.gen.cpu_ns - observer.cpu_ns;
  result.stats = daemon.stats();
  result.fleet = daemon.fleet().counters();
  result.admitted = daemon.ingest().admitted();
  result.fleet_bytes = daemon.fleet().memory_bytes();
  result.segments = daemon.capture_segments();
  result.transitions_to_suspect =
      ins.fd_transitions_to_suspect.value() - suspect0;
  result.transitions_to_trust = ins.fd_transitions_to_trust.value() - trust0;

  if (config.obs) {
    std::vector<BlockEvidence> evidence;
    const auto& blocks = schedule.blocks();
    for (std::size_t b = 0; b < result.gen.block_send_ns.size(); ++b) {
      evidence.push_back(BlockEvidence{result.gen.block_send_ns[b],
                                       result.gen.block_datagrams[b],
                                       result.gen.block_resume_datagrams[b],
                                       blocks[b].size});
    }
    result.detections =
        attribute_blocks(observer.samples, evidence, config.attribution);

    // Heartbeats per datagram is fixed by the schedule's packing.
    const double per_datagram =
        static_cast<double>(result.gen.heartbeats_sent) /
        static_cast<double>(std::max<std::uint64_t>(1, result.gen.datagrams_sent));
    const std::int64_t warm_end =
        t0.load() + config.schedule.warm_periods * config.schedule.eta_ns;
    for (std::size_t i = 1; i < observer.cpu.size(); ++i) {
      const CpuSample& a = observer.cpu[i - 1];
      const CpuSample& b = observer.cpu[i];
      if (a.t_ns < warm_end || a.generator_ns < 0 || b.generator_ns < 0 ||
          b.datagrams <= a.datagrams) {
        continue;
      }
      const auto daemon_cpu = static_cast<double>(
          (b.process_ns - a.process_ns) - (b.generator_ns - a.generator_ns) -
          (b.observer_ns - a.observer_ns));
      result.window_hb_cpu_ns.push_back(
          daemon_cpu / (static_cast<double>(b.datagrams - a.datagrams) *
                        per_datagram));
    }
  }

  outcome.check(result.run_rc == 0, "serve: ServeDaemon::run failed");
  ServeFacts facts;
  facts.endpoints = config.schedule.endpoints;
  facts.admitted = result.admitted;
  facts.drops_decode = result.stats.drops_decode;
  facts.drops_capacity = result.stats.drops_capacity;
  facts.offered = result.gen.heartbeats_sent;
  facts.ingested = result.stats.heartbeats;
  facts.datagrams_sent = result.gen.datagrams_sent;
  facts.datagrams_received = result.stats.datagrams;
  facts.capture = config.capture;
  facts.captured = result.stats.captured;
  facts.segments = result.segments;
  for (const std::string& failure : check_serve(facts)) {
    outcome.check(false, failure);
  }
  remove_files(result.segments);
  return result;
}

}  // namespace

const ServeWorkload* find_serve_workload(const std::string& name) {
  for (const ServeWorkload& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

void run_serve(const ServeWorkload& w, std::uint64_t seed, double seconds,
               bool trace, const std::string& work_dir, Outcome& outcome) {
  std::filesystem::create_directories(work_dir);
  if (!trace) {
    const SessionConfig fixed =
        fixed_session(w, w.window_share * seconds, seed, work_dir);
    outcome.set("setup_s", median_init_s(fixed, 9, outcome), "s");
    const SessionResult r = run_session(fixed, outcome);
    if (r.detections.size() < 100) {
      std::fprintf(stderr, "perfbench: only %zu blocks in the window\n",
                   r.detections.size());
    }
    outcome.attempted = r.offered;
    outcome.failed = r.offered - std::min(r.offered, r.stats.heartbeats);
    outcome.set("hb_cpu_ns", r.hb_cpu_ns(), "ns");
    const std::vector<double> td = r.td_ms();
    std::fprintf(stderr,
                 "perfbench: %s fixed rate: %zu blocks (%zu censored), lost "
                 "%.5f, kernel drops %llu, generator late p99 %.0f us\n",
                 w.name.c_str(), r.detections.size(), r.censored(),
                 r.lost_frac(),
                 static_cast<unsigned long long>(r.gen.datagrams_sent -
                                                 r.stats.datagrams),
                 quantile(r.gen.late_us, 0.99));
    outcome.set("td_p50_ms", quantile(td, 0.5), "ms");
    outcome.set("td_p90_ms", quantile(td, 0.9), "ms");
    outcome.set("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }

  // Traced run: the fixed-rate session again (counters, obs on), the same
  // session with obs off (its cost), each layer re-driven alone, and the
  // ceiling search.
  const SessionConfig fixed =
      fixed_session(w, 0.4 * seconds, seed, work_dir);
  const SessionResult r = run_session(fixed, outcome);
  SessionConfig quiet = fixed_session(w, 0.2 * seconds, seed, work_dir);
  quiet.obs = false;
  const SessionResult q = run_session(quiet, outcome);
  fdqos::obs::set_enabled(false);
  outcome.attempted = r.offered;
  outcome.failed = r.offered - std::min(r.offered, r.stats.heartbeats);

  std::size_t blocked = 0;
  const Schedule schedule(fixed.schedule);
  for (const Block& b : schedule.blocks()) blocked += b.size;
  outcome.set("serve.batches", static_cast<double>(r.stats.batches), "count");
  outcome.set("serve.datagrams_per_batch",
              r.stats.batches ? static_cast<double>(r.stats.datagrams) /
                                    static_cast<double>(r.stats.batches)
                              : 0.0,
              "count");
  outcome.set("serve.busy_frac",
              static_cast<double>(r.daemon_cpu_ns) /
                  static_cast<double>(r.run_wall_ns),
              "ratio");
  outcome.set("serve.lost_frac", r.lost_frac(), "ratio");
  outcome.set("serve.blocked_endpoints", static_cast<double>(blocked),
              "count");
  outcome.set("serve.td_censored", static_cast<double>(r.censored()),
              "count");
  outcome.set("net.kernel_drops",
              static_cast<double>(r.gen.datagrams_sent - r.stats.datagrams),
              "count");
  outcome.set("fd.fleet.timer_events",
              static_cast<double>(r.fleet.timer_events), "count");
  outcome.set("fd.fleet.member_checks",
              static_cast<double>(r.fleet.member_checks), "count");
  outcome.set("fd.fleet.coalesced_events",
              static_cast<double>(r.fleet.coalesced_events), "count");
  outcome.set("fd.fleet.bytes_per_endpoint",
              static_cast<double>(r.fleet_bytes) /
                  static_cast<double>(w.endpoints),
              "B");
  outcome.set("fd.transitions_to_suspect",
              static_cast<double>(r.transitions_to_suspect), "count");
  outcome.set("fd.transitions_to_trust",
              static_cast<double>(r.transitions_to_trust), "count");
  outcome.set("gen.late_us_p99", quantile(r.gen.late_us, 0.99), "us");
  // Whole-run figures on both sides: the obs-off run has no observer and
  // so no sub-windows.
  outcome.set("obs.trace_overhead_frac",
              (r.run_hb_cpu_ns() - q.run_hb_cpu_ns()) / q.run_hb_cpu_ns(),
              "ratio");

  const ServeLayerTimes layers =
      measure_serve_layers(fixed.schedule, w.capture, work_dir, outcome);
  outcome.set("net.recv_batch_ns", layers.recv_batch_ns, "ns");
  outcome.set("net.decode_ns_per_hb", layers.decode_ns_per_hb, "ns");
  outcome.set("fd.ingest.offer_ns", layers.offer_ns, "ns");
  outcome.set("fd.fleet.ingest_ns_per_hb", layers.fleet_ingest_ns, "ns");
  outcome.set("fd.fleet.timer_ns_per_hb", layers.fleet_timer_ns, "ns");
  outcome.set("wan.capture_append_ns", layers.capture_append_ns, "ns");
  // offer_ns already contains the ingest_columns flush.
  const double explained = layers.recv_ns_per_hb + layers.decode_ns_per_hb +
                           layers.offer_ns + layers.fleet_timer_ns +
                           layers.capture_append_ns;
  outcome.set("serve.unexplained_ns_per_hb", r.hb_cpu_ns() - explained, "ns");

  outcome.set("serve.ceiling_hbps",
              find_ceiling(w, probe_holds(fixed, r), seed, work_dir, outcome),
              "1/s");
}

}  // namespace perfbench
