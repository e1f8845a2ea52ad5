// Chaos QoS invariants — what must hold for *every* detector under *any*
// fault scenario (docs/fault_injection.md).
//
// The faultx scenarios push the link far outside the paper's calibrated
// regime; individual metric values are then uninteresting, but a family of
// structural properties must survive arbitrary delay/loss/partition/clock
// abuse. This module checks a finished QosReport against those properties
// and names each violation, so the invariant harness and the `fdqos chaos`
// CLI fail loudly with the invariant, detector, scenario and seed.
#pragma once

#include <string>
#include <vector>

#include "exp/qos_experiment.hpp"
#include "stats/table_writer.hpp"

namespace fdqos::exp {

struct InvariantViolation {
  std::string invariant;  // stable machine-matchable name, e.g. "pa-range"
  std::string detail;     // human-readable: detector + offending values
};

// Check every invariant against every detector result in the report:
//
//   completeness       every crash is eventually suspected (missed == 0).
//                      Holds because the injector's TTR exceeds any finite
//                      detector timeout: silence eventually wins.
//   crash-consistency  detections + missed ≤ crashes ≤ detections + missed
//                      + runs·endpoints (each run, and each endpoint of a
//                      fleet run, may end with one crash still pending),
//                      and every detector observed the same crash count.
//   td-nonnegative     all T_D samples ≥ 0 (min ≥ 0 when any recorded).
//   tm-nonnegative     same for T_M.
//   tmr-nonnegative    same for T_MR.
//   tmr-dominates-tm   pooled sum(T_MR) ≥ sum(T_M) − (n_TM − n_TMR)·max(T_M)
//                      − eps: each recorded recurrence spans its opening
//                      mistake, and only the unpaired mistakes (each ≤ max)
//                      may lack a recurrence sample. (Mean-vs-mean does NOT
//                      hold in general; see the test for a counterexample.)
//   pa-range           P_A ∈ [0, 1] and availability ∈ [0, 1].
//   finite-stats       no NaN/Inf anywhere (min/max skipped at count 0,
//                      where they are NaN by Summary's convention).
//   heartbeat-accounting  delivered ≤ sent.
//
// Returns every violation found (empty == all invariants hold).
std::vector<InvariantViolation> qos_invariant_violations(
    const QosReport& report);

// One-row summary of the injected chaos: scenario, scheduled events per
// run, messages eaten by partitions/flaps, duplicates injected.
stats::TableWriter chaos_table(const QosReport& report);

}  // namespace fdqos::exp
