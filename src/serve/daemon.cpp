#include "serve/daemon.hpp"

#include <poll.h>

#include <algorithm>
#include <chrono>
#include <optional>
#include <thread>
#include <unordered_map>

#include "common/assert.hpp"
#include "common/log.hpp"
#include "fd/suite.hpp"
#include "net/codec.hpp"
#include "net/udp_transport.hpp"
#include "obs/instruments.hpp"
#include "obs/runs.hpp"

namespace fdqos::serve {
namespace {

std::int64_t wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Groups-then-lanes assembly shared with the experiment engines: one
// predictor group per distinct predictor_key, every lane hung off its
// group, so e.g. the paper suite evaluates 5 shared predictors per
// endpoint, not 30.
void assemble_member(fd::DetectorBank& bank,
                     const std::vector<fd::FdSpec>& specs) {
  std::unordered_map<std::string, std::size_t> group_of;
  for (const auto& spec : specs) {
    std::size_t group;
    auto it = spec.predictor_key.empty() ? group_of.end()
                                         : group_of.find(spec.predictor_key);
    if (it != group_of.end()) {
      group = it->second;
    } else {
      group = bank.add_group(spec.make_predictor());
      if (!spec.predictor_key.empty()) group_of.emplace(spec.predictor_key, group);
    }
    bank.add_lane(spec.name, group, spec.make_margin());
  }
}

// lite = one Last+CI_low lane: the cheapest paper-family detector, enough
// for liveness monitoring at fleet scale. paper = the full 30-lane family.
std::vector<fd::FdSpec> suite_specs(const std::string& suite) {
  if (suite == "paper") return fd::make_paper_suite();
  if (suite == "lite") {
    fd::FdSpec spec;
    spec.name = "Last+CI_low";
    spec.predictor_label = "Last";
    spec.margin_label = "CI_low";
    spec.predictor_key = fd::paper_predictor_key("Last");
    spec.make_predictor = fd::make_paper_predictor("Last");
    spec.make_margin = fd::make_paper_margin("CI_low");
    return {std::move(spec)};
  }
  return {};
}

void offer(const IngestPath& path, const net::HeartbeatFrame& frame,
           std::int64_t recv_ns) {
  if (!path.ingest.offer(frame.from, frame.seq)) {
    ++path.stats.drops_capacity;
    return;
  }
  ++path.stats.heartbeats;
  if (path.capture != nullptr) {
    // The sender stamps send_ns on its own steady clock; on one host
    // (loopback, the bench) that is the daemon's clock too. Clamp the
    // delay at zero — the .fdt contract rejects negative delays, and a
    // cross-host clock offset must degrade the capture, not kill it.
    const std::int64_t send_ns = frame.send_time.count_nanos();
    const std::int64_t delay_ns =
        std::max<std::int64_t>(0, recv_ns - send_ns);
    path.capture->append(TimePoint::from_nanos(send_ns - path.clock_base_ns),
                         Duration::nanos(delay_ns));
    ++path.stats.captured;
  }
}

}  // namespace

ServeDaemon::ServeDaemon(ServeConfig config) : config_(std::move(config)) {}

ServeDaemon::~ServeDaemon() = default;

std::uint16_t ServeDaemon::udp_port() const {
  return socket_ != nullptr ? socket_->local_port() : 0;
}

std::vector<std::string> ServeDaemon::capture_segments() const {
  return capture_ != nullptr ? capture_->segments()
                             : std::vector<std::string>{};
}

bool ServeDaemon::init() {
  FDQOS_REQUIRE(!initialized_);
  FDQOS_REQUIRE(config_.max_endpoints > 0);
  FDQOS_REQUIRE(config_.eta > Duration::zero());

  const std::vector<fd::FdSpec> specs = suite_specs(config_.suite);
  if (specs.empty()) {
    FDQOS_LOG_ERROR("serve: unknown suite '%s' (want lite or paper)",
                    config_.suite.c_str());
    return false;
  }

  net::UdpIngestSocket::Options sopts;
  sopts.host = config_.host;
  sopts.port = config_.port;
  sopts.batch = config_.batch;
  sopts.force_single_recv = config_.force_single_recv;
  socket_ = std::make_unique<net::UdpIngestSocket>(sopts);
  if (!socket_->ok()) return false;
  drained_.reserve(config_.batch);

  fd::FleetBank::Config fc;
  fc.eta = config_.eta;
  fc.epoch = TimePoint::origin();
  fc.cold_start_timeout = config_.eta;
  fc.name = "serve";
  fc.expected_endpoints = config_.max_endpoints;
  fleet_ = std::make_unique<fd::FleetBank>(simulator_, fc);
  // Pre-allocate every admission slot: the FleetBank member set is fixed
  // at start(), so admission capacity is decided here, not under load.
  for (std::size_t slot = 0; slot < config_.max_endpoints; ++slot) {
    assemble_member(
        fleet_->add_member(static_cast<net::NodeId>(slot)), specs);
  }
  fleet_->start();
  ingest_ = std::make_unique<fd::FleetIngest>(*fleet_, config_.max_endpoints);

  if (config_.capture) {
    wan::RotatingFdtWriter::Options copts;
    copts.directory = config_.capture_dir;
    copts.prefix = config_.capture_prefix;
    copts.max_samples = config_.segment_samples;
    copts.meta.clock_base_ns = 0;  // send-time column is daemon-relative
    copts.meta.source = "fdqos serve " + config_.host + ":" +
                        std::to_string(socket_->local_port()) + " suite=" +
                        config_.suite;
    capture_ = std::make_unique<wan::RotatingFdtWriter>(std::move(copts));
    if (!capture_->ok()) {
      FDQOS_LOG_ERROR("serve: capture setup failed: %s",
                      capture_->error().c_str());
      return false;
    }
  }

  initialized_ = true;
  return true;
}

void ingest_in_arrival_order(const IngestPath& path,
                             std::span<const DrainedDatagram> batch,
                             TimePoint drain) {
  sim::Simulator& simulator = path.simulator;
  FDQOS_REQUIRE(drain >= simulator.now());
  ServeStats& stats = path.stats;
  const ServeStats before = stats;
  TimePoint oldest = drain;
  net::PackedBatchView packed;
  net::HeartbeatFrame frame;
  for (const DrainedDatagram& datagram : batch) {
    oldest = std::min(oldest, datagram.arrival);
    const TimePoint at = std::clamp(datagram.arrival, simulator.now(), drain);
    if (at > simulator.now()) {
      path.ingest.flush();
      simulator.run_until(at);
    }
    const std::int64_t recv_ns = path.clock_base_ns + at.count_nanos();
    if (net::decode_packed_batch(datagram.wire, packed)) {
      for (std::uint32_t j = 0; j < packed.count(); ++j) {
        packed.get(j, frame);
        offer(path, frame, recv_ns);
      }
    } else if (net::decode_heartbeat_frame(datagram.wire, frame)) {
      offer(path, frame, recv_ns);
    } else {
      ++stats.drops_decode;
    }
  }
  path.ingest.flush();
  ++stats.batches;
  stats.datagrams += batch.size();
  if (obs::enabled()) {
    auto& ins = obs::instruments();
    ins.serve_batches_total.inc();
    ins.serve_datagrams_total.inc(batch.size());
    ins.serve_batch_size.observe(static_cast<double>(batch.size()));
    ins.serve_lag_seconds.observe((drain - oldest).to_seconds_double());
    // One delta-flush per batch keeps the per-heartbeat path free of
    // shared-cacheline traffic even with obs on.
    if (stats.drops_decode != before.drops_decode) {
      ins.serve_drops_decode.inc(stats.drops_decode - before.drops_decode);
    }
    if (stats.drops_capacity != before.drops_capacity) {
      ins.serve_drops_capacity.inc(stats.drops_capacity -
                                   before.drops_capacity);
    }
  }
}

void ServeDaemon::process_batch(std::size_t drained, TimePoint drain,
                                std::int64_t wall_start_ns) {
  drained_.clear();
  for (std::size_t i = 0; i < drained; ++i) {
    // Without a kernel stamp the drain instant is the best arrival known.
    const std::optional<std::int64_t> stamp = socket_->arrival(i);
    drained_.push_back(
        {socket_->datagram(i),
         stamp ? TimePoint::from_nanos(*stamp - wall_start_ns) : drain});
  }
  ingest_in_arrival_order(
      {simulator_, *ingest_, capture_.get(), wall_start_ns, stats_}, drained_,
      drain);
  const std::uint64_t kernel_drops = socket_->kernel_drops();
  if (kernel_drops != stats_.kernel_drops) {
    if (obs::enabled()) {
      obs::instruments().serve_kernel_drops.inc(kernel_drops -
                                                stats_.kernel_drops);
    }
    stats_.kernel_drops = kernel_drops;
  }
}

void ServeDaemon::publish_status(bool finished) {
  obs::RunStatus row;
  row.id = config_.run_id;
  row.verb = "serve";
  row.suite = config_.suite;
  row.runs_total = 1;
  row.runs_started = 1;
  row.runs_done = finished ? 1 : 0;
  row.heartbeats_sent = stats_.heartbeats;
  row.detectors = fleet_->total_lanes();
  row.suspecting = fleet_->suspecting_count();
  row.sim_time_s = simulator_.now().to_seconds_double();
  row.finished = finished;
  obs::RunRegistry::global().update(row);
}

int ServeDaemon::run() {
  if (!initialized_) {
    FDQOS_LOG_ERROR("serve: run() without successful init()");
    return 1;
  }
  const std::int64_t wall_start_ns = wall_ns();
  const TimePoint deadline = config_.duration > Duration::zero()
                                 ? TimePoint::origin() + config_.duration
                                 : TimePoint::max();
  // Status heartbeat rides the simulator like every other timer: one
  // event per interval refreshing the /runs row.
  std::function<void()> tick = [&] {
    publish_status(false);
    simulator_.schedule_at(simulator_.now() + config_.status_interval, tick);
  };
  simulator_.schedule_at(TimePoint::origin() + config_.status_interval, tick);
  publish_status(false);
  obs::RunFinalizer finalizer(config_.run_id);

  const auto virtual_now = [wall_start_ns] {
    return TimePoint::from_nanos(wall_ns() - wall_start_ns);
  };
  // The gather window: at most 0.2% of η added to when a suspicion is
  // raised (never to whether: arrivals replay against the timers), and at
  // most M/500 datagrams of backlog at one heartbeat per datagram.
  const Duration gather = config_.eta / 500;
  while (!stop_requested()) {
    const std::size_t drained = socket_->recv_batch();
    const TimePoint drain = std::min(virtual_now(), deadline);
    if (drained > 0) {
      process_batch(drained, drain, wall_start_ns);
      if (capture_ != nullptr && !capture_->ok()) {
        FDQOS_LOG_ERROR("serve: capture failed: %s",
                        capture_->error().c_str());
        publish_status(true);
        return 1;
      }
    }
    if (drain >= deadline) break;
    // A full drain may have left datagrams queued that arrived before
    // timers due by now: take them first.
    if (drained == config_.batch) continue;
    simulator_.run_until(drain);
    // Idle: sleep in poll() until new data, the next detector deadline,
    // or the run deadline — whichever lands first. Woken by data, let the
    // rest of the burst land before draining it.
    const TimePoint next = std::min(simulator_.next_event_time(), deadline);
    const int timeout_ms = net::clamp_poll_timeout_ms(next - virtual_now());
    pollfd pfd{socket_->fd(), POLLIN, 0};
    if (::poll(&pfd, 1, timeout_ms) > 0 && gather > Duration::zero()) {
      std::this_thread::sleep_for(
          std::chrono::nanoseconds(gather.count_nanos()));
    }
  }

  bool clean = true;
  if (capture_ != nullptr) {
    if (!capture_->finalize()) {
      FDQOS_LOG_ERROR("serve: capture finalize failed: %s",
                      capture_->error().c_str());
      clean = false;
    }
  }
  publish_status(true);
  return clean ? 0 : 1;
}

}  // namespace fdqos::serve
