// exp::Workload — the seam between "an experiment" and "how it runs".
//
// A workload is anything that decomposes into independent seeded execution
// units (one simulation per unit) and reduces the unit outputs into a
// report: the pure detector-QoS comparison, a fleet sweep, or an
// application workload whose metric depends on the detectors (leader
// election scored by time-without-leader). The
// run_workload() harness owns the one rule every workload already obeyed
// implicitly:
//
//   fan the units over a thread pool, then reduce in unit order —
//   report bytes are a pure function of (seed, config), never of --jobs,
//   scheduling or machine.
//
// Hooks and their contracts:
//   prepare()          validate config, load shared immutable inputs
//                      (traces, suites, fault schedules), register
//                      telemetry. Runs once, before anything else.
//   unit_count()       number of independent units. The harness clamps the
//                      worker count to it (jobs = min(requested or
//                      default_jobs(), units)) exactly as the QoS run loop
//                      always did.
//   run_unit(u)        one self-contained unit. Called concurrently, but
//                      only with distinct u; a unit may touch only its own
//                      slot of any shared output vector.
//   reduce()           ordered post-join reduction (the PR 2 rule): fold
//                      unit outputs in ascending unit order, flush obs
//                      counters, assemble the report.
//   report_sections()  the finished report as typed sections, in a fixed
//                      order that never depends on jobs or engine.
//
// Composition: a workload that consumes another's execution (leader
// election over the QoS engines) embeds it and delegates the unit hooks,
// adding its own capture and reduction — see workload/leader_election.hpp.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "exp/qos_experiment.hpp"
#include "stats/table_writer.hpp"

namespace fdqos::exp {

// One typed block of a workload report: a titled table plus optional
// trailing lines (totals, invariant verdicts). Sections print in vector
// order; the order is part of the workload's determinism contract.
struct ReportSection {
  std::string title;
  stats::TableWriter table;
  std::vector<std::string> notes;
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual const std::string& name() const = 0;

  virtual void prepare() = 0;
  virtual std::size_t unit_count() const = 0;
  virtual void run_unit(std::size_t unit) = 0;
  virtual void reduce() = 0;
  virtual std::vector<ReportSection> report_sections() const = 0;

  // Requested worker count (0 = exec::default_jobs()); the harness clamps
  // it to unit_count().
  virtual std::size_t requested_jobs() const = 0;
};

// Run a workload end to end: prepare, resolve jobs, fan units over a
// thread pool, reduce in unit order. Exceptions from units propagate after
// the pool drains (exec::ThreadPool's first-exception rule).
void run_workload(Workload& workload);

// Name -> factory registry. Factories take the shared experiment config
// (runs, cycles, seed, chaos scenario, fleet shape, jobs) so every
// workload inherits --scenario/--seed/--jobs parity for free.
// register_workload() replaces an existing entry with the same name.
using WorkloadFactory =
    std::function<std::unique_ptr<Workload>(const QosExperimentConfig&)>;

void register_workload(const std::string& name, WorkloadFactory factory);
std::vector<std::string> workload_names();
// nullptr when `name` is not registered.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const QosExperimentConfig& config);

}  // namespace fdqos::exp
