// Per-layer drivers for the traced run: each layer's public functions
// re-driven alone on the workload's generated inputs and timed around the
// call from here (nothing is traced inside the program).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "fd/fleet_bank.hpp"
#include "record.hpp"
#include "schedule.hpp"
#include "sim/simulator.hpp"

namespace perfbench {

// A FleetBank assembled like the daemon's: `members` slots of the lite
// suite (one Last+CI_low lane), started.
std::unique_ptr<fdqos::fd::FleetBank> make_lite_fleet(
    fdqos::sim::Simulator& simulator, std::size_t members,
    std::int64_t eta_ns);

struct ServeLayerTimes {
  double recv_batch_ns = 0.0;   // per recv_batch() call that drained data
  double recv_ns_per_hb = 0.0;  // the same time per heartbeat received
  double decode_ns_per_hb = 0.0;
  double offer_ns = 0.0;         // FleetIngest::offer + flush, per heartbeat
  double fleet_ingest_ns = 0.0;  // FleetBank::ingest_columns, per heartbeat
  double fleet_timer_ns = 0.0;   // Simulator::run_until, per heartbeat
  double capture_append_ns = 0.0;  // 0 when the workload captures nothing
};

ServeLayerTimes measure_serve_layers(const ScheduleConfig& schedule,
                                     bool capture, const std::string& work_dir,
                                     Outcome& outcome);

struct PaperLayerTimes {
  std::map<std::string, double> observe_ns;  // by paper predictor label
  double delay_sample_ns = 0.0;
  double bank_observe_ns = 0.0;
};

// Drives the paper's layers on one Italy→Japan delay stream of `cycles`
// heartbeats drawn with `seed`.
PaperLayerTimes measure_paper_layers(std::uint64_t seed, std::int64_t cycles);

}  // namespace perfbench
