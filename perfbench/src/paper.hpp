// The `paper` workload: the paper's comparison through exp::run_qos_experiment
// with the `fdqos qos` defaults (13 runs × 10 000 cycles, the 30-detector
// suite, synthetic Italy→Japan link, MTTC 300 s, TTR 30 s).
#pragma once

#include <cstdint>

#include "record.hpp"

namespace perfbench {

// Runs the experiment at jobs = nproc and jobs = 1, alternating, for about
// `seconds`, and fills `outcome` with the end-to-end metrics (trace =
// false) or the per-layer metrics (trace = true).
void run_paper(std::uint64_t seed, double seconds, bool trace,
               Outcome& outcome);

}  // namespace perfbench
