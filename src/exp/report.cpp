#include "exp/report.hpp"

#include <algorithm>
#include <cstdio>
#include <map>

#include "common/assert.hpp"
#include "exec/thread_pool.hpp"

namespace fdqos::exp {

const char* metric_name(QosMetricKind kind) {
  switch (kind) {
    case QosMetricKind::kTd: return "T_D (mean detection time)";
    case QosMetricKind::kTdU: return "T_D^U (max detection time)";
    case QosMetricKind::kTm: return "T_M (mean mistake duration)";
    case QosMetricKind::kTmr: return "T_MR (mean mistake recurrence)";
    case QosMetricKind::kPa: return "P_A (query accuracy probability)";
  }
  return "?";
}

const char* metric_unit(QosMetricKind kind) {
  return kind == QosMetricKind::kPa ? "" : "ms";
}

const char* metric_figure(QosMetricKind kind) {
  switch (kind) {
    case QosMetricKind::kTd: return "Figure 4";
    case QosMetricKind::kTdU: return "Figure 5";
    case QosMetricKind::kTm: return "Figure 6";
    case QosMetricKind::kTmr: return "Figure 7";
    case QosMetricKind::kPa: return "Figure 8";
  }
  return "?";
}

bool metric_smaller_is_better(QosMetricKind kind) {
  switch (kind) {
    case QosMetricKind::kTd:
    case QosMetricKind::kTdU:
    case QosMetricKind::kTm:
      return true;
    case QosMetricKind::kTmr:
    case QosMetricKind::kPa:
      return false;
  }
  return true;
}

double metric_value(const FdQosResult& result, QosMetricKind kind) {
  const fd::QosMetrics& m = result.metrics;
  switch (kind) {
    case QosMetricKind::kTd: return m.detection_time_ms.mean;
    case QosMetricKind::kTdU: return m.detection_time_ms.max;
    case QosMetricKind::kTm: return m.mistake_duration_ms.mean;
    case QosMetricKind::kTmr: return m.mistake_recurrence_ms.mean;
    case QosMetricKind::kPa: return m.query_accuracy;
  }
  return 0.0;
}

stats::TableWriter qos_metric_table(const QosReport& report,
                                    QosMetricKind kind) {
  char title[160];
  std::snprintf(title, sizeof title, "%s — %s%s%s", metric_figure(kind),
                metric_name(kind), metric_unit(kind)[0] ? " in " : "",
                metric_unit(kind));
  stats::TableWriter table(title);

  const auto predictors = fd::paper_predictor_labels();
  const auto margins = fd::paper_margin_labels();

  // (predictor, margin) -> value.
  std::map<std::pair<std::string, std::string>, double> values;
  for (const auto& result : report.results) {
    values[{result.predictor_label, result.margin_label}] =
        metric_value(result, kind);
  }

  std::vector<std::string> columns{"safety margin"};
  for (const auto& p : predictors) columns.push_back(p);
  table.set_columns(std::move(columns));

  const int precision = kind == QosMetricKind::kPa ? 6 : 1;
  for (const auto& margin : margins) {
    std::vector<double> row;
    for (const auto& p : predictors) {
      auto it = values.find({p, margin});
      row.push_back(it != values.end() ? it->second : 0.0);
    }
    table.add_row(margin, row, precision);
  }
  return table;
}

std::vector<const FdQosResult*> pareto_front(const QosReport& report,
                                             QosMetricKind speed,
                                             QosMetricKind accuracy) {
  // Normalize both metrics to "bigger is better".
  auto score = [](const FdQosResult& r, QosMetricKind kind) {
    const double v = metric_value(r, kind);
    return metric_smaller_is_better(kind) ? -v : v;
  };
  std::vector<const FdQosResult*> front;
  for (const auto& candidate : report.results) {
    bool dominated = false;
    for (const auto& other : report.results) {
      if (&other == &candidate) continue;
      const bool speed_geq =
          score(other, speed) >= score(candidate, speed);
      const bool acc_geq =
          score(other, accuracy) >= score(candidate, accuracy);
      const bool strictly_better =
          score(other, speed) > score(candidate, speed) ||
          score(other, accuracy) > score(candidate, accuracy);
      if (speed_geq && acc_geq && strictly_better) {
        dominated = true;
        break;
      }
    }
    if (!dominated) front.push_back(&candidate);
  }
  std::sort(front.begin(), front.end(),
            [&](const FdQosResult* a, const FdQosResult* b) {
              return score(*a, speed) > score(*b, speed);
            });
  return front;
}

stats::TableWriter pareto_table(const QosReport& report, QosMetricKind speed,
                                QosMetricKind accuracy) {
  char title[160];
  std::snprintf(title, sizeof title, "Pareto front on (%s, %s)",
                metric_name(speed), metric_name(accuracy));
  stats::TableWriter table(title);
  table.set_columns({"detector", metric_name(speed), metric_name(accuracy)});
  for (const FdQosResult* result : pareto_front(report, speed, accuracy)) {
    table.add_row({result->name,
                   stats::format_double(metric_value(*result, speed), 1),
                   stats::format_double(metric_value(*result, accuracy), 6)});
  }
  return table;
}

stats::TableWriter qos_variability_table(const QosReport& report) {
  stats::TableWriter table("Run-to-run variability (mean ± sd across runs)");
  table.set_columns({"detector", "runs", "T_D per-run mean (ms)",
                     "availability per-run"});
  for (const auto& result : report.results) {
    const auto& td = result.per_run_td_mean_ms;
    const auto& avail = result.per_run_availability;
    table.add_row({result.name, std::to_string(avail.count),
                   stats::format_double(td.mean, 1) + " ± " +
                       stats::format_double(td.stddev, 1),
                   stats::format_double(avail.mean, 6) + " ± " +
                       stats::format_double(avail.stddev, 6)});
  }
  return table;
}

stats::TableWriter accuracy_table(const AccuracyReport& report) {
  stats::TableWriter table("Table 3 — Predictor accuracy (msqerr, ms^2)");
  table.set_columns({"Predictor", "msqerr (ms^2)", "mean |err| (ms)"});
  for (const auto& row : report.rows) {
    table.add_row({row.predictor, stats::format_double(row.msqerr, 3),
                   stats::format_double(row.mean_abs_err, 3)});
  }
  return table;
}

stats::TableWriter link_table(const wan::LinkCharacteristics& link,
                              std::size_t hops) {
  stats::TableWriter table(
      "Table 4 — Characteristics of the (modelled) WAN connection");
  table.set_columns({"Quantity", "Value"});
  table.add_row({"Mean one-way delay",
                 stats::format_double(link.delay_ms.mean, 1) + " ms"});
  table.add_row({"Standard deviation",
                 stats::format_double(link.delay_ms.stddev, 1) + " ms"});
  table.add_row({"Maximum one-way delay",
                 stats::format_double(link.delay_ms.max, 0) + " ms"});
  table.add_row({"Minimum one-way delay",
                 stats::format_double(link.delay_ms.min, 0) + " ms"});
  table.add_row({"Number of hops (modelled path)", std::to_string(hops)});
  table.add_row({"Loss probability",
                 stats::format_double(link.loss_probability * 100.0, 2) + " %"});
  return table;
}

std::string qos_config_summary(const QosExperimentConfig& config) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "runs=%zu NumCycles=%lld eta=%s MTTC=%s TTR=%s warmup=%s "
                "seed=%llu jobs=%zu",
                config.runs, static_cast<long long>(config.num_cycles),
                config.eta.to_string().c_str(), config.mttc.to_string().c_str(),
                config.ttr.to_string().c_str(),
                config.warmup.to_string().c_str(),
                static_cast<unsigned long long>(config.seed),
                config.jobs == 0 ? exec::default_jobs() : config.jobs);
  std::string line = buf;
  if (!config.trace_path.empty()) {
    line += " trace=" + config.trace_path +
            " policy=" + wan::replay_policy_name(config.replay_policy);
  }
  if (!config.chaos_scenario.empty()) line += " chaos=" + config.chaos_scenario;
  // Fleet mode: echo only when active, so the single-endpoint summary
  // bytes stay exactly as before. The resolved shard count is echoed (like
  // jobs, it may derive from the machine; the report bytes never do).
  if (config.endpoints > 1) {
    line += " endpoints=" + std::to_string(config.endpoints) +
            " shards=" + std::to_string(resolve_fleet_shards(config));
  }
  return line;
}

std::string qos_report_fingerprint(const QosReport& report) {
  std::string all;
  for (const auto kind :
       {QosMetricKind::kTd, QosMetricKind::kTdU, QosMetricKind::kTm,
        QosMetricKind::kTmr, QosMetricKind::kPa}) {
    all += qos_metric_table(report, kind).to_csv();
  }
  char tail[96];
  std::snprintf(tail, sizeof tail, "crashes=%llu sent=%llu delivered=%llu",
                static_cast<unsigned long long>(report.total_crashes),
                static_cast<unsigned long long>(report.heartbeats_sent),
                static_cast<unsigned long long>(report.heartbeats_delivered));
  return all + tail;
}

}  // namespace fdqos::exp
