#include "obs/instruments.hpp"

namespace fdqos::obs {

Instruments& instruments() {
  static Instruments inst{
      Registry::global().counter(
          "fdqos_heartbeats_sent_total",
          "Heartbeats emitted by the monitored process"),
      Registry::global().counter(
          "fdqos_heartbeats_delivered_total",
          "Heartbeats the monitor's MultiPlexer dispatched to detectors"),
      Registry::global().counter(
          "fdqos_mux_dispatch_total",
          "Messages fanned out by MultiPlexerLayer (all types)"),
      Registry::global().histogram(
          "fdqos_mux_dispatch_duration_us",
          "Wall time of one MultiPlexer fan-out to all stacked detectors"),
      Registry::global().counter(
          "fdqos_fd_freshness_checks_total",
          "Freshness-point evaluations across all FreshnessDetectors"),
      Registry::global().counter(
          "fdqos_fd_suspect_transitions_total",
          "Detector trust<->suspect transitions", {{"to", "suspect"}}),
      Registry::global().counter(
          "fdqos_fd_suspect_transitions_total",
          "Detector trust<->suspect transitions", {{"to", "trust"}}),
      Registry::global().counter(
          "fdqos_arima_refits_total",
          "ARIMA re-estimations by outcome", {{"outcome", "accepted"}}),
      Registry::global().counter(
          "fdqos_arima_refits_total",
          "ARIMA re-estimations by outcome", {{"outcome", "rejected"}}),
      Registry::global().histogram(
          "fdqos_arima_refit_duration_us",
          "Wall time of one ARIMA refit (fit + validation + priming)"),
      Registry::global().counter("fdqos_udp_datagrams_total",
                                 "UDP datagrams by direction",
                                 {{"dir", "sent"}}),
      Registry::global().counter("fdqos_udp_datagrams_total",
                                 "UDP datagrams by direction",
                                 {{"dir", "received"}}),
      Registry::global().counter(
          "fdqos_udp_decode_failures_total",
          "Received datagrams that failed message decoding"),
      Registry::global().counter(
          "fdqos_udp_send_failures_total",
          "sendto() errors and short writes (message treated as lost)"),
      Registry::global().counter(
          "fdqos_serve_batches_total",
          "Datagram batches drained by the fdqos serve ingest loop"),
      Registry::global().counter(
          "fdqos_serve_datagrams_total",
          "Datagrams received by the fdqos serve ingest loop"),
      Registry::global().counter("fdqos_serve_drops_total",
                                 "Heartbeats dropped by fdqos serve, by "
                                 "reason",
                                 {{"reason", "decode"}}),
      Registry::global().counter("fdqos_serve_drops_total",
                                 "Heartbeats dropped by fdqos serve, by "
                                 "reason",
                                 {{"reason", "capacity"}}),
      Registry::global().histogram(
          "fdqos_serve_batch_size",
          "Datagrams drained per fdqos serve receive batch"),
      Registry::global().histogram(
          "fdqos_serve_lag_seconds",
          "fdqos serve drain instant minus the oldest kernel arrival stamp "
          "of the batch",
          {}, Histogram::seconds_bounds()),
      Registry::global().counter(
          "fdqos_serve_kernel_drops_total",
          "Datagrams the kernel dropped at the fdqos serve socket because "
          "its receive queue was full (SO_RXQ_OVFL)"),
      Registry::global().counter("fdqos_crash_events_total",
                                 "SimCrash injector events",
                                 {{"kind", "crash"}}),
      Registry::global().counter("fdqos_crash_events_total",
                                 "SimCrash injector events",
                                 {{"kind", "restore"}}),
      Registry::global().counter(
          "fdqos_crash_dropped_messages_total",
          "Messages swallowed by a crashed SimCrash layer"),
      Registry::global().counter(
          "fdqos_qos_detections_total",
          "Crash detections recorded by QosTrackers (all detectors)"),
      Registry::global().counter(
          "fdqos_qos_mistakes_total",
          "Wrong-suspicion samples recorded by QosTrackers (all detectors)"),
      Registry::global().counter(
          "fdqos_bank_predictor_updates_total",
          "Shared-predictor observe() calls across all DetectorBanks"),
      Registry::global().counter(
          "fdqos_bank_lane_updates_total",
          "Per-lane margin+suspicion update passes across all DetectorBanks"),
      Registry::global().counter(
          "fdqos_bank_coalesced_timers_total",
          "Per-detector simulator events avoided by bank timer coalescing"),
      Registry::global().counter(
          "fdqos_bank_dispatch_errors_total",
          "DetectorBank lane updates or observer callbacks that threw"),
      Registry::global().gauge("fdqos_experiment_run",
                               "Current experiment run index (1-based)"),
      Registry::global().gauge(
          "fdqos_fd_suspecting",
          "Detectors currently suspecting the monitored process"),
  };
  return inst;
}

}  // namespace fdqos::obs
