// Paper-style rendering of experiment results.
//
// Each figure in the paper plots one QoS metric for the 30 detectors with
// the six safety margins on the x-axis and one line per predictor. The
// tables produced here use the same layout: rows = safety margins,
// columns = predictors.
#pragma once

#include <string>

#include "exp/accuracy_experiment.hpp"
#include "exp/qos_experiment.hpp"
#include "stats/table_writer.hpp"

namespace fdqos::exp {

enum class QosMetricKind {
  kTd,    // mean detection time (Figure 4)
  kTdU,   // max observed detection time (Figure 5)
  kTm,    // mean mistake duration (Figure 6)
  kTmr,   // mean mistake recurrence time (Figure 7)
  kPa,    // query accuracy probability (Figure 8)
};

const char* metric_name(QosMetricKind kind);
const char* metric_unit(QosMetricKind kind);
// Which figure of the paper this metric reproduces.
const char* metric_figure(QosMetricKind kind);
// True when smaller values are better (the arrow in the paper's plots).
bool metric_smaller_is_better(QosMetricKind kind);

double metric_value(const FdQosResult& result, QosMetricKind kind);

// Rows = margins (paper x-axis), columns = predictors (paper series).
stats::TableWriter qos_metric_table(const QosReport& report,
                                    QosMetricKind kind);

// The paper's central negative result, made precise: "it is impossible to
// create a failure detection mechanism with the best accuracy and delay
// together" (§5.3). Returns the detectors not dominated on the
// (speed, accuracy) plane — result A dominates B when A is at least as
// good on both metrics and strictly better on one. A singleton front would
// falsify the claim; the experiments produce a multi-point front.
std::vector<const FdQosResult*> pareto_front(const QosReport& report,
                                             QosMetricKind speed,
                                             QosMetricKind accuracy);

// Front as a table, sorted by the speed metric.
stats::TableWriter pareto_table(const QosReport& report,
                                QosMetricKind speed = QosMetricKind::kTd,
                                QosMetricKind accuracy = QosMetricKind::kPa);

// Run-to-run stability of each detector: per-run mean T_D and per-run
// availability across the experiment's runs (mean ± sd). Exposes how much
// of a figure's structure is signal: paired via the MultiPlexer, detector
// *orderings* are far more stable than the absolute values.
stats::TableWriter qos_variability_table(const QosReport& report);

// Table 3 layout: predictor, msqerr.
stats::TableWriter accuracy_table(const AccuracyReport& report);

// Table 4 layout: link characteristics.
stats::TableWriter link_table(const wan::LinkCharacteristics& link,
                              std::size_t hops = 18);

// One-line experiment header (parameters echo, Table 5 style).
std::string qos_config_summary(const QosExperimentConfig& config);

// The full report rendered through every metric table plus the crash /
// heartbeat tallies — the same bytes a user sees. Equal fingerprints mean
// equal reports; the jobs-parity and equivalence checks
// (bench_parallel, tests/exp) all compare these.
std::string qos_report_fingerprint(const QosReport& report);

}  // namespace fdqos::exp
