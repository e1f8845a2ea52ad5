// The schedule-true serve traffic: which heartbeats are due when.
//
// Endpoint e sends heartbeat k with seq = k at t0 + k·η + phase(e). The
// fleet is split into `groups` phase groups spread evenly over one period
// (100 groups: 1 ms apart at η = 100 ms); every endpoint of a group shares
// the group's phase, and the generator sends a group's heartbeats of one
// period as one sendmmsg burst. Crash-recovery blocks silence one whole
// group (1% of the fleet at 100 groups) for a few heartbeats and then let
// it resume; consecutive blocks start `block_spacing` apart, so they walk
// through the phase groups.
//
// Everything here is a pure function of the config and its seed: the
// seed picks the endpoint ids, the endpoint-to-group assignment and each
// block's skip length.
#pragma once

#include <cstdint>
#include <vector>

#include "net/message.hpp"

namespace perfbench {

struct ScheduleConfig {
  std::size_t endpoints = 10'000;
  std::int64_t eta_ns = 100'000'000;
  std::size_t groups = 100;
  bool packed = false;     // FDQB datagrams of up to `pack` heartbeats;
  std::size_t pack = 256;  // otherwise one FDQ1 datagram per heartbeat
  std::int64_t periods = 100;       // heartbeats k = 0 .. periods-1
  std::int64_t warm_periods = 5;    // no block starts before this period
  std::int64_t block_spacing_ns = 70'000'000;
  std::uint64_t seed = 42;
};

// One crash-recovery block: every endpoint of `group` sends heartbeat
// `last_k`, skips the following ones and resumes at `resume_k`.
struct Block {
  std::size_t group = 0;
  std::int64_t last_k = 0;
  std::int64_t resume_k = 0;
  std::size_t size = 0;  // endpoints silenced
};

class Schedule {
 public:
  explicit Schedule(const ScheduleConfig& config);

  const ScheduleConfig& config() const { return config_; }
  std::size_t groups() const { return members_.size(); }
  const std::vector<fdqos::net::NodeId>& group_members(std::size_t g) const {
    return members_[g];
  }
  const std::vector<Block>& blocks() const { return blocks_; }

  // Offset of group g's phase within a period, and of burst (k, g) from t0.
  std::int64_t phase_ns(std::size_t g) const;
  std::int64_t burst_offset_ns(std::int64_t k, std::size_t g) const {
    return k * config_.eta_ns + phase_ns(g);
  }
  // True while group g withholds heartbeat k (inside one of its blocks).
  bool silent(std::size_t g, std::int64_t k) const;
  // Heartbeats / datagrams in burst (k, g); zero when the group is silent.
  std::size_t heartbeats_in_burst(std::int64_t k, std::size_t g) const;
  std::size_t datagrams_in_burst(std::int64_t k, std::size_t g) const;
  // Heartbeats of the whole schedule.
  std::uint64_t total_heartbeats() const;

  // Encodes burst (k, g) with every heartbeat stamped `send_ns` into
  // `out`, one byte vector per datagram (vectors are reused: the steady
  // state does not allocate). Returns the datagram count.
  std::size_t encode_burst(std::int64_t k, std::size_t g, std::int64_t send_ns,
                           std::vector<std::vector<std::uint8_t>>& out) const;

 private:
  ScheduleConfig config_;
  std::vector<std::vector<fdqos::net::NodeId>> members_;
  // FDQ1 datagram of each endpoint (group-major), patched per burst.
  std::vector<std::vector<std::vector<std::uint8_t>>> frames_;
  std::vector<Block> blocks_;
  std::vector<std::vector<const Block*>> blocks_of_group_;
};

}  // namespace perfbench
