#include "exp/chaos.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace fdqos::exp {
namespace {

std::string fmt(const char* format, auto... args) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), format, args...);
  return buf;
}

void check_summary_finite(const std::string& detector, const char* metric,
                          const stats::Summary& s,
                          std::vector<InvariantViolation>& out) {
  const bool core_finite = std::isfinite(s.mean) && std::isfinite(s.variance) &&
                           std::isfinite(s.stddev) && std::isfinite(s.sum);
  // min/max are NaN by convention while no sample has been recorded.
  const bool extrema_finite =
      s.count == 0 || (std::isfinite(s.min) && std::isfinite(s.max));
  if (!core_finite || !extrema_finite) {
    out.push_back({"finite-stats",
                   fmt("%s: %s has non-finite fields (count=%llu mean=%g "
                       "stddev=%g min=%g max=%g sum=%g)",
                       detector.c_str(), metric,
                       static_cast<unsigned long long>(s.count), s.mean,
                       s.stddev, s.min, s.max, s.sum)});
  }
}

void check_nonnegative(const std::string& detector, const char* invariant,
                       const char* metric, const stats::Summary& s,
                       std::vector<InvariantViolation>& out) {
  if (s.count > 0 && !(s.min >= 0.0)) {  // !(≥) also catches NaN min
    out.push_back({invariant, fmt("%s: min %s = %g ms < 0 over %llu samples",
                                  detector.c_str(), metric, s.min,
                                  static_cast<unsigned long long>(s.count))});
  }
}

}  // namespace

std::vector<InvariantViolation> qos_invariant_violations(
    const QosReport& report) {
  std::vector<InvariantViolation> out;

  if (report.heartbeats_delivered > report.heartbeats_sent) {
    out.push_back(
        {"heartbeat-accounting",
         fmt("delivered %llu > sent %llu",
             static_cast<unsigned long long>(report.heartbeats_delivered),
             static_cast<unsigned long long>(report.heartbeats_sent))});
  }

  // Each run — each endpoint of each run, in fleet mode — may end with at
  // most one crash its detectors had no chance to resolve yet.
  const std::uint64_t max_pending =
      report.config.runs * std::max<std::size_t>(1, report.config.endpoints);

  for (const auto& r : report.results) {
    const fd::QosMetrics& m = r.metrics;

    if (m.missed_detections != 0) {
      out.push_back(
          {"completeness",
           fmt("%s: %llu of %llu crashes never suspected", r.name.c_str(),
               static_cast<unsigned long long>(m.missed_detections),
               static_cast<unsigned long long>(m.crashes_observed))});
    }

    const std::uint64_t resolved = m.detections + m.missed_detections;
    if (m.crashes_observed < resolved ||
        m.crashes_observed > resolved + max_pending) {
      out.push_back(
          {"crash-consistency",
           fmt("%s: crashes=%llu vs detections=%llu + missed=%llu "
               "(must be within [resolved, resolved+%llu], at most one "
               "pending crash per run)",
               r.name.c_str(),
               static_cast<unsigned long long>(m.crashes_observed),
               static_cast<unsigned long long>(m.detections),
               static_cast<unsigned long long>(m.missed_detections),
               static_cast<unsigned long long>(max_pending))});
    }
    // All detectors share the injector, so every result must report the
    // same ground-truth crash count.
    if (m.crashes_observed != report.results.front().metrics.crashes_observed) {
      out.push_back(
          {"crash-consistency",
           fmt("%s: observed %llu crashes but %s observed %llu",
               r.name.c_str(),
               static_cast<unsigned long long>(m.crashes_observed),
               report.results.front().name.c_str(),
               static_cast<unsigned long long>(
                   report.results.front().metrics.crashes_observed))});
    }

    check_nonnegative(r.name, "td-nonnegative", "T_D", m.detection_time_ms,
                      out);
    check_nonnegative(r.name, "tm-nonnegative", "T_M", m.mistake_duration_ms,
                      out);
    check_nonnegative(r.name, "tmr-nonnegative", "T_MR",
                      m.mistake_recurrence_ms, out);

    // A recurrence interval spans at least its opening mistake, so the
    // pooled T_MR sum dominates the T_M sum minus the unpaired mistakes
    // (at most max(T_M) each). Only meaningful once a mistake happened.
    const stats::Summary& tm = m.mistake_duration_ms;
    const stats::Summary& tmr = m.mistake_recurrence_ms;
    if (tm.count > 0 && tmr.count <= tm.count) {
      const double unpaired = static_cast<double>(tm.count - tmr.count);
      const double eps = 1e-6 * (1.0 + std::fabs(tm.sum));
      if (tmr.sum < tm.sum - unpaired * tm.max - eps) {
        out.push_back(
            {"tmr-dominates-tm",
             fmt("%s: sum(T_MR)=%g < sum(T_M)=%g - %g unpaired * max(T_M)=%g",
                 r.name.c_str(), tmr.sum, tm.sum, unpaired, tm.max)});
      }
    }

    if (!(m.query_accuracy >= 0.0 && m.query_accuracy <= 1.0)) {
      out.push_back({"pa-range", fmt("%s: P_A = %g outside [0, 1]",
                                     r.name.c_str(), m.query_accuracy)});
    }
    if (!(m.availability >= 0.0 && m.availability <= 1.0)) {
      out.push_back({"pa-range", fmt("%s: availability = %g outside [0, 1]",
                                     r.name.c_str(), m.availability)});
    }

    check_summary_finite(r.name, "T_D", m.detection_time_ms, out);
    check_summary_finite(r.name, "T_M", m.mistake_duration_ms, out);
    check_summary_finite(r.name, "T_MR", m.mistake_recurrence_ms, out);
    check_summary_finite(r.name, "per-run T_D mean", r.per_run_td_mean_ms, out);
    check_summary_finite(r.name, "per-run availability",
                         r.per_run_availability, out);
  }

  return out;
}

stats::TableWriter chaos_table(const QosReport& report) {
  stats::TableWriter table("Chaos injection (scenario: " +
                           (report.config.chaos_scenario.empty()
                                ? std::string("none")
                                : report.config.chaos_scenario) +
                           ")");
  table.set_columns({"scenario", "runs", "fault_events", "fault_dropped",
                     "duplicated", "crashes", "hb_sent", "hb_delivered"});
  table.add_row({report.config.chaos_scenario.empty()
                     ? "none"
                     : report.config.chaos_scenario,
                 std::to_string(report.config.runs),
                 std::to_string(report.chaos_fault_events),
                 std::to_string(report.chaos_dropped),
                 std::to_string(report.chaos_duplicated),
                 std::to_string(report.total_crashes),
                 std::to_string(report.heartbeats_sent),
                 std::to_string(report.heartbeats_delivered)});
  return table;
}

}  // namespace fdqos::exp
