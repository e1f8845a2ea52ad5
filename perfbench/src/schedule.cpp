#include "schedule.hpp"

#include <cstring>
#include <random>
#include <stdexcept>
#include <unordered_set>

#include "net/codec.hpp"

namespace perfbench {
namespace {

// Byte offsets of the fields the generator patches in an encoded FDQ1
// heartbeat (net/codec.hpp: magic, from, to, type, seq, send_time, ...).
// The self-test decodes patched frames, so a format change fails there.
constexpr std::size_t kSeqOffset = 16;
constexpr std::size_t kSendOffset = 24;

}  // namespace

Schedule::Schedule(const ScheduleConfig& config) : config_(config) {
  if (config_.endpoints == 0 || config_.groups == 0 || config_.eta_ns <= 0 ||
      config_.groups > config_.endpoints || config_.pack == 0) {
    throw std::invalid_argument("perfbench: invalid schedule config");
  }
  std::mt19937_64 rng(config_.seed);

  // Distinct non-negative endpoint ids in draw order; group g takes a
  // contiguous slice, so the seed decides who shares a phase.
  members_.resize(config_.groups);
  std::unordered_set<fdqos::net::NodeId> seen;
  seen.reserve(config_.endpoints);
  for (std::size_t i = 0; i < config_.endpoints;) {
    const auto id = static_cast<fdqos::net::NodeId>(rng() & 0x7fffffffU);
    if (!seen.insert(id).second) continue;
    members_[i * config_.groups / config_.endpoints].push_back(id);
    ++i;
  }

  if (!config_.packed) {
    frames_.resize(config_.groups);
    for (std::size_t g = 0; g < config_.groups; ++g) {
      for (const fdqos::net::NodeId id : members_[g]) {
        fdqos::net::Message msg;
        msg.from = id;
        msg.type = fdqos::net::MessageType::kHeartbeat;
        frames_[g].push_back(fdqos::net::encode_message(msg));
      }
    }
  }

  // Blocks: the first burst at or after each target instant whose group
  // has been back for at least two heartbeats since its previous block.
  std::vector<std::int64_t> free_from(config_.groups, 0);
  std::int64_t target = config_.warm_periods * config_.eta_ns;
  for (;;) {
    std::int64_t k = target / config_.eta_ns;
    std::size_t chosen = config_.groups;
    for (; k < config_.periods; ++k) {
      for (std::size_t g = 0; g < config_.groups; ++g) {
        if (burst_offset_ns(k, g) >= target && free_from[g] <= k) {
          chosen = g;
          break;
        }
      }
      if (chosen != config_.groups) break;
    }
    const auto skip = static_cast<std::int64_t>(2 + rng() % 3);
    if (chosen == config_.groups || k + skip + 1 >= config_.periods) break;
    blocks_.push_back(Block{chosen, k, k + skip + 1, members_[chosen].size()});
    free_from[chosen] = k + skip + 3;
    target = burst_offset_ns(k, chosen) + config_.block_spacing_ns;
  }
  blocks_of_group_.resize(config_.groups);
  for (const Block& block : blocks_) {
    blocks_of_group_[block.group].push_back(&block);
  }
}

std::int64_t Schedule::phase_ns(std::size_t g) const {
  return static_cast<std::int64_t>(
      (2 * static_cast<__int128>(g) + 1) * config_.eta_ns /
      (2 * static_cast<__int128>(config_.groups)));
}

bool Schedule::silent(std::size_t g, std::int64_t k) const {
  for (const Block* block : blocks_of_group_[g]) {
    if (k > block->last_k && k < block->resume_k) return true;
  }
  return false;
}

std::size_t Schedule::heartbeats_in_burst(std::int64_t k, std::size_t g) const {
  return silent(g, k) ? 0 : members_[g].size();
}

std::size_t Schedule::datagrams_in_burst(std::int64_t k, std::size_t g) const {
  const std::size_t n = heartbeats_in_burst(k, g);
  return config_.packed ? (n + config_.pack - 1) / config_.pack : n;
}

std::uint64_t Schedule::total_heartbeats() const {
  std::uint64_t total = 0;
  for (std::int64_t k = 0; k < config_.periods; ++k) {
    for (std::size_t g = 0; g < groups(); ++g) {
      total += heartbeats_in_burst(k, g);
    }
  }
  return total;
}

std::size_t Schedule::encode_burst(
    std::int64_t k, std::size_t g, std::int64_t send_ns,
    std::vector<std::vector<std::uint8_t>>& out) const {
  const std::size_t count = datagrams_in_burst(k, g);
  if (out.size() < count) out.resize(count);
  if (count == 0) return 0;
  const auto& ids = members_[g];
  if (!config_.packed) {
    for (std::size_t i = 0; i < count; ++i) {
      out[i] = frames_[g][i];
      std::memcpy(out[i].data() + kSeqOffset, &k, sizeof k);
      std::memcpy(out[i].data() + kSendOffset, &send_ns, sizeof send_ns);
    }
    return count;
  }
  const auto send_time = fdqos::TimePoint::from_nanos(send_ns);
  for (std::size_t d = 0; d < count; ++d) {
    std::vector<std::uint8_t>& buf = out[d];
    fdqos::net::begin_packed_batch(buf);
    const std::size_t end = std::min(ids.size(), (d + 1) * config_.pack);
    for (std::size_t i = d * config_.pack; i < end; ++i) {
      fdqos::net::append_packed_heartbeat(buf, ids[i], k, send_time);
    }
    fdqos::net::finish_packed_batch(buf);
  }
  return count;
}

}  // namespace perfbench
