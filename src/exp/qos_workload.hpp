// exp::QosWorkload — the detector-QoS experiment as a Workload.
//
// This is the orchestration half of the former monolithic
// run_qos_experiment(): config validation, suite/trace/fault-schedule
// assembly, telemetry identity, unit mapping for the two engines
// (single endpoint | fleet), and the ordered post-join reduction into a
// QosReport. The per-unit simulation drivers live in exp/qos_engines.hpp.
//
// Unit mapping (unit_count() and run_unit(u)):
//   non-fleet   one unit per run (run_one).
//   fleet       the flattened (run, shard) grid —
//               run = u / shards, shard = u % shards (run_fleet_shard).
// Both reproduce the exact pool shapes (and therefore the jobs clamp) the
// pre-refactor run loops used, so reports stay byte-identical.
//
// Application workloads (workload/leader_election.hpp) embed a QosWorkload
// and delegate these hooks, tapping the detector transition / crash ground
// truth streams through QosExperimentConfig::transition_probe/crash_probe.
#pragma once

#include <atomic>
#include <memory>
#include <optional>
#include <vector>

#include "exp/qos_engines.hpp"
#include "exp/workload.hpp"
#include "obs/runs.hpp"

namespace fdqos::exp {

class QosWorkload final : public Workload {
 public:
  explicit QosWorkload(QosExperimentConfig config);
  ~QosWorkload() override;

  const std::string& name() const override;

  void prepare() override;
  std::size_t unit_count() const override;
  void run_unit(std::size_t unit) override;
  void reduce() override;
  std::vector<ReportSection> report_sections() const override;
  std::size_t requested_jobs() const override { return config_.jobs; }

  // The config as it actually ran (trace replay may clamp num_cycles,
  // telemetry identity is filled in). Valid after prepare().
  const QosExperimentConfig& config() const { return config_; }
  const std::vector<fd::FdSpec>& suite() const { return suite_; }

  // The finished report. Valid after reduce().
  const QosReport& report() const { return report_; }
  QosReport take_report() { return std::move(report_); }

 private:
  void reduce_single();
  void reduce_fleet();

  QosExperimentConfig config_;
  QosReport report_;
  std::vector<fd::FdSpec> suite_;
  std::shared_ptr<const wan::Trace> trace_data_;
  std::shared_ptr<const std::vector<Duration>> trace_;
  std::shared_ptr<const faultx::FaultSchedule> faults_;
  std::optional<Rng> base_rng_;
  TimePoint run_end_ = TimePoint::origin();
  bool fleet_mode_ = false;
  std::size_t shards_ = 1;  // fleet shard count (resolved in prepare)

  std::unique_ptr<detail::ProgressState> progress_;
  std::optional<obs::RunFinalizer> run_guard_;

  // Unit outputs, indexed so reduce() folds them in fixed order.
  std::vector<detail::RunOutput> outputs_;                    // non-fleet
  std::vector<std::vector<detail::FleetShardOutput>> fleet_outputs_;
  // Fleet telemetry: a run is "done" when its last shard drains.
  std::unique_ptr<std::atomic<std::size_t>[]> shards_left_;
  // Fleet obs counter handles, registered in prepare(), flushed in reduce().
  std::vector<obs::Counter*> shard_heartbeats_;
  std::vector<obs::Counter*> shard_timer_events_;
  std::vector<obs::Counter*> shard_coalesced_;
};

}  // namespace fdqos::exp
