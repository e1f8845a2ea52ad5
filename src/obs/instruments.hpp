// Built-in instrument handles on the global registry.
//
// Every instrumented runtime component (MultiPlexer, FreshnessDetector,
// ArimaPredictor, UdpTransport, SimCrash, QosTracker, Heartbeater) reaches
// its counters/histograms through this one struct. instruments() registers
// the whole set on Registry::global() on first use and then returns cached
// references, so a hot path pays one `obs::enabled()` load plus a relaxed
// atomic increment — never a registry lookup. Metric names and label
// conventions are documented in docs/observability.md.
#pragma once

#include "obs/metrics.hpp"

namespace fdqos::obs {

struct Instruments {
  // Heartbeat pipeline. Sent counts heartbeats the monitored process
  // emits (including those swallowed by an active crash layer below it);
  // delivered counts heartbeats the monitor's MultiPlexer fans out.
  Counter& heartbeats_sent;
  Counter& heartbeats_delivered;

  // MultiPlexer fan-out (all message types).
  Counter& mux_dispatch_total;
  Histogram& mux_dispatch_duration_us;

  // FreshnessDetector: freshness-point evaluations and trust<->suspect
  // transitions (labeled by direction).
  Counter& fd_freshness_checks_total;
  Counter& fd_transitions_to_suspect;
  Counter& fd_transitions_to_trust;

  // ArimaPredictor refits — the known CPU hog (refit_every = N_Arima).
  Counter& arima_refits_accepted;
  Counter& arima_refits_rejected;
  Histogram& arima_refit_duration_us;

  // UdpTransport datagram I/O. Send failures cover sendto() errors and
  // short writes — sent counts only exact-length completions.
  Counter& udp_datagrams_sent;
  Counter& udp_datagrams_received;
  Counter& udp_decode_failures_total;
  Counter& udp_send_failures_total;

  // `fdqos serve` ingest daemon (serve/daemon.hpp): recvmmsg batches
  // drained, datagrams received, heartbeats dropped (labeled by reason:
  // decode failure vs. admission capacity), the per-drain batch-size
  // distribution, the daemon's lag (drain instant minus the oldest
  // kernel arrival stamp of the batch, in seconds, on the seconds ladder),
  // and the datagrams the kernel dropped because the socket's receive
  // queue was full (SO_RXQ_OVFL). Incremented once per batch, never per
  // datagram.
  Counter& serve_batches_total;
  Counter& serve_datagrams_total;
  Counter& serve_drops_decode;
  Counter& serve_drops_capacity;
  Histogram& serve_batch_size;
  Histogram& serve_lag_seconds;
  Counter& serve_kernel_drops;

  // SimCrash injector.
  Counter& crash_injections;
  Counter& crash_restores;
  Counter& crash_dropped_messages_total;

  // QosTracker sample production (pooled across all detectors).
  Counter& qos_detections_total;
  Counter& qos_mistakes_total;

  // DetectorBank engine counters, flushed once per experiment from the
  // banks' cheap single-threaded tallies (see DetectorBank::Counters).
  Counter& bank_predictor_updates;  // observe() on shared predictors
  Counter& bank_lane_updates;       // per-lane margin+suspicion passes
  Counter& bank_coalesced_timers;   // per-detector sim events avoided
  Counter& bank_dispatch_errors;    // lane/observer callbacks that threw

  // Experiment-level gauges, refreshed by the progress emitter.
  Gauge& experiment_run;  // current run index (1-based)
  Gauge& fd_suspecting;   // detectors currently suspecting
};

// The process-wide instrument set (registered on Registry::global()).
Instruments& instruments();

}  // namespace fdqos::obs
