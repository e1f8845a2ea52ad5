// serve::ServeDaemon — the `fdqos serve` live heavy-traffic ingest daemon
// (ROADMAP item 4).
//
// One long-running process that turns the repo's simulation-first stack
// into a production service mode:
//
//   UdpIngestSocket ──recvmmsg batches──▶ codec fast paths ──▶ FleetIngest
//        │         + kernel arrival stamps     │                   │
//        │                              (decode drops)      (capacity drops)
//        ▼                                     ▼                   ▼
//   poll() idle wait                  obs serve_* families   FleetBank shard
//   + η/500 gather                                                │
//                              RotatingFdtWriter ◀── delay capture ┘
//
// The daemon drives a real-time loop in the RealTimeDriver idiom: virtual
// time tracks the wall clock (steady_clock). Each socket drain is decoded
// without allocation and ingested in kernel-arrival order against the
// detector timers (ingest_in_arrival_order): a timer due before a
// datagram's arrival fires before it, one due after does not, however
// late the drain. When an idle poll() wakes for data the loop sleeps η/500
// first, so a burst is read in full batches. Unknown sources are admitted
// onto pre-allocated member slots on first sight; beyond --max-endpoints
// they are counted and dropped. Every heartbeat's (send_time, delay)
// lands in rotating .fdt segments, each independently replayable through
// `fdqos replay` while the daemon is still running.
//
// Wire formats accepted (net/codec.hpp): single "FDQ1" heartbeat
// datagrams (what UdpTransport peers send) and packed "FDQB" batches
// (what a high-rate sender uses). Anything else counts as a decode drop.
//
// Shutdown: request_stop() is async-signal-safe (one relaxed atomic
// store) — the CLI wires SIGINT/SIGTERM straight to it — and run()
// finalizes capture segments and the /runs row before returning, so a
// signalled daemon never leaves a truncated live segment behind.
// See docs/serve.md.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/time.hpp"
#include "fd/fleet_bank.hpp"
#include "fd/fleet_ingest.hpp"
#include "net/udp_ingest.hpp"
#include "sim/simulator.hpp"
#include "wan/tracestore.hpp"

namespace fdqos::serve {

struct ServeConfig {
  std::string host = "127.0.0.1";  // IPv4 literal (net/udp_ingest.hpp)
  std::uint16_t port = 0;          // 0 = kernel-assigned
  std::size_t max_endpoints = 1024;
  Duration eta = Duration::millis(1000);  // fleet heartbeat period
  std::size_t batch = 32;                 // datagrams per recvmmsg drain
  bool force_single_recv = false;         // portable recv() path (tests)

  // Continuous capture (off => no segments are written).
  bool capture = true;
  std::string capture_dir = ".";
  std::string capture_prefix = "serve";
  std::uint64_t segment_samples = 1'000'000;

  // lite: one Last+CI_low lane per endpoint — the cheap liveness suite.
  // paper: the full 30-lane paper family per endpoint.
  std::string suite = "lite";

  Duration duration = Duration::zero();  // zero = run until stopped
  Duration status_interval = Duration::seconds(1);
  std::string run_id = "serve";
};

struct ServeStats {
  std::uint64_t batches = 0;      // non-empty socket drains
  std::uint64_t datagrams = 0;    // datagrams received
  std::uint64_t heartbeats = 0;   // heartbeats ingested into the fleet
  std::uint64_t drops_decode = 0;    // undecodable datagrams
  std::uint64_t drops_capacity = 0;  // heartbeats beyond max-endpoints
  std::uint64_t captured = 0;        // samples written to segments
  // Datagrams the kernel dropped at the socket (receive queue full), as
  // of the last batch: lost before the daemon could see them.
  std::uint64_t kernel_drops = 0;
};

// One drained datagram: its bytes and when it arrived, in daemon virtual
// time (steady ns minus the run's start).
struct DrainedDatagram {
  std::span<const std::uint8_t> wire;
  TimePoint arrival;
};

// Where one drained batch goes.
struct IngestPath {
  sim::Simulator& simulator;
  fd::FleetIngest& ingest;
  wan::RotatingFdtWriter* capture;  // null: capture off
  std::int64_t clock_base_ns;  // steady ns of virtual time zero; senders
                               // stamp send_ns on the same clock
  ServeStats& stats;
};

// Ingests one drained batch in arrival order against the timers. Per
// datagram, in order: clamp its arrival into [simulator now(), drain], so a
// clock step can never move the simulator backwards or past the wall
// clock; flush the heartbeats pending at the previous arrival; run timers
// due by this arrival; then decode and offer its heartbeats, captured with
// recv_ns = the clamped arrival. Ends with a flush; firing the timers up to
// `drain` is the caller's call (a full drain may have left earlier
// arrivals queued). Also counts the batch and, with obs on, flushes the
// serve_* instruments once, lag (drain minus the oldest arrival) included.
void ingest_in_arrival_order(const IngestPath& path,
                             std::span<const DrainedDatagram> batch,
                             TimePoint drain);

class ServeDaemon {
 public:
  using Stats = ServeStats;

  explicit ServeDaemon(ServeConfig config);
  ~ServeDaemon();
  ServeDaemon(const ServeDaemon&) = delete;
  ServeDaemon& operator=(const ServeDaemon&) = delete;

  // Binds the socket, assembles the fleet, opens the first capture
  // segment. False (with logged reasons) on any failure; run() on an
  // uninitialized daemon returns immediately.
  bool init();

  // Blocks in the real-time loop until request_stop() or the configured
  // duration elapses. Returns 0 on a clean run (including a signalled
  // one), 1 if init() failed or capture failed mid-run.
  int run();

  // Async-signal-safe: one relaxed atomic store. Callable from any
  // thread or from a signal handler.
  void request_stop() { stop_.store(true, std::memory_order_relaxed); }
  bool stop_requested() const {
    return stop_.load(std::memory_order_relaxed);
  }

  std::uint16_t udp_port() const;
  const Stats& stats() const { return stats_; }
  const fd::FleetBank& fleet() const { return *fleet_; }
  const fd::FleetIngest& ingest() const { return *ingest_; }
  // Finalized capture segments so far (oldest first); empty if capture
  // was disabled.
  std::vector<std::string> capture_segments() const;

 private:
  void process_batch(std::size_t drained, TimePoint drain,
                     std::int64_t wall_start_ns);
  void publish_status(bool finished);

  ServeConfig config_;
  sim::Simulator simulator_;
  std::unique_ptr<net::UdpIngestSocket> socket_;
  std::unique_ptr<fd::FleetBank> fleet_;
  std::unique_ptr<fd::FleetIngest> ingest_;
  std::unique_ptr<wan::RotatingFdtWriter> capture_;
  std::vector<DrainedDatagram> drained_;  // batch slots, reused per drain
  Stats stats_;
  std::atomic<bool> stop_{false};
  bool initialized_ = false;
};

}  // namespace fdqos::serve
