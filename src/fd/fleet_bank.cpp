#include "fd/fleet_bank.hpp"

#include <limits>

#include "common/assert.hpp"
#include "common/log.hpp"

namespace fdqos::fd {

void FleetBank::Counters::add(const Counters& other) {
  heartbeats += other.heartbeats;
  batches += other.batches;
  timer_events += other.timer_events;
  member_checks += other.member_checks;
  coalesced_events += other.coalesced_events;
  unroutable += other.unroutable;
  malformed += other.malformed;
}

FleetBank::FleetBank(sim::Simulator& simulator, Config config)
    : simulator_(simulator),
      config_(std::move(config)),
      wheel_(config_.epoch, config_.eta, arena_) {
  FDQOS_REQUIRE(config_.eta > Duration::zero());
  if (config_.expected_endpoints > 0) {
    members_.reserve(config_.expected_endpoints);
    wheel_.reserve(config_.expected_endpoints);
  }
}

DetectorBank& FleetBank::add_member(net::NodeId monitored, std::string name) {
  FDQOS_REQUIRE(!started_);
  DetectorBank::Config member_config;
  member_config.eta = config_.eta;
  member_config.monitored = monitored;
  member_config.epoch = config_.epoch;
  member_config.cold_start_timeout = config_.cold_start_timeout;
  member_config.name = name.empty()
                           ? config_.name + "/" + std::to_string(members_.size())
                           : std::move(name);
  DetectorBank* member =
      arena_.make<DetectorBank>(simulator_, std::move(member_config));
  member->set_timer_host(this, members_.size());
  members_.push_back(member);
  wheel_.add_member();
  if (!endpoint_of_.empty()) endpoint_of_.clear();  // rebuilt on next route
  return *member;
}

DetectorBank& FleetBank::member(std::size_t e) {
  FDQOS_REQUIRE(e < members_.size());
  return *members_[e];
}

const DetectorBank& FleetBank::member(std::size_t e) const {
  FDQOS_REQUIRE(e < members_.size());
  return *members_[e];
}

void FleetBank::start() {
  FDQOS_REQUIRE(!started_);
  FDQOS_REQUIRE(!members_.empty());
  // Validate before any member arms a deadline: a start that already
  // missed σ_1 is a caller bug, and this check names it (instead of the
  // simulator's past-event abort when a member reports its first timer).
  FDQOS_REQUIRE(simulator_.now() < config_.epoch + config_.eta);
  started_ = true;
  // Raw-coordinator mode: members with no node stack of their own start
  // here. (In the experiment each member was already started by its
  // endpoint's monitor node; its begin_cycle(0) ran inline there.)
  for (DetectorBank* member : members_) {
    if (!member->started()) member->start();
    lanes_ += member->width();
  }
  // The shared cycle tick replaces every member's self-scheduled
  // cycle-begin event: the first tick lands at σ_1 (cycle 0 was computed
  // inline by each member's start()). Must be scheduled before the
  // simulator runs so it precedes same-instant heartbeat sends at σ_1,
  // preserving each member's standalone begin-before-send order.
  simulator_.schedule_at(config_.epoch + config_.eta,
                         [this] { cycle_tick(1); });
}

void FleetBank::cycle_tick(std::int64_t k) {
  // Each member performs exactly its standalone begin_cycle(k) work; the
  // fleet saved (members − 1) simulator events for this cycle.
  counters_.coalesced_events += members_.size() - 1;
  for (DetectorBank* member : members_) {
    member->host_begin_cycle(k);
  }
  const std::int64_t next = k + 1;
  simulator_.schedule_at(config_.epoch + config_.eta * next,
                         [this, next] { cycle_tick(next); });
}

void FleetBank::member_deadline_changed(std::size_t member, TimePoint due) {
  wheel_.set(static_cast<std::uint32_t>(member), due);
  if (!firing_) arm();
}

void FleetBank::member_suspicion_changed(bool suspecting) {
  if (suspecting) {
    ++suspecting_;
  } else {
    --suspecting_;
  }
}

void FleetBank::arm() {
  // One armed event per shard, kept exactly like a solo bank's: at the
  // earliest live due, moved in place when that due changes (earlier or
  // later), re-armed after it fires, and cancelled when no due is left.
  const TimePoint front = wheel_.front();
  if (armed_.time() == front) return;
  if (front == TimePoint::max()) {
    armed_.cancel();
    return;
  }
  if (!simulator_.reschedule(armed_, front)) {
    armed_ = simulator_.schedule_at(front, [this] { fired(); });
  }
}

void FleetBank::fired() {
  ++counters_.timer_events;
  const TimePoint now = simulator_.now();
  firing_ = true;
  while (wheel_.front() <= now) {
    ++counters_.member_checks;
    // The check fires the member's due freshness points and reports its
    // new front (later than now), which relinks its wheel entry. (Armed-
    // event savings are member_counters().timer_events −
    // counters_.timer_events.)
    members_[wheel_.pop_front()]->host_timer_check();
  }
  firing_ = false;
  arm();
}

bool FleetBank::seq_in_range(std::int64_t seq) const {
  if (seq < 0) return false;
  const std::int64_t eta_ns = config_.eta.count_nanos();
  // epoch + η·seq must not overflow the ns timeline; anything that far out
  // is line noise, not a heartbeat.
  return seq <= std::numeric_limits<std::int64_t>::max() / eta_ns;
}

void FleetBank::handle_up(const net::Message& msg) {
  if (msg.type != net::MessageType::kHeartbeat) {
    deliver_up(msg);
    return;
  }
  if (endpoint_of_.empty()) {
    // First registration wins: duplicate ids only occur in per-node
    // attachment mode, which never routes through handle_up.
    endpoint_of_.reserve(members_.size());
    for (std::size_t e = 0; e < members_.size(); ++e) {
      endpoint_of_.emplace(members_[e]->monitored(),
                           static_cast<std::uint32_t>(e));
    }
  }
  const std::uint32_t member = endpoint_of_.find(msg.from);
  if (member == SlotTable::kNoSlot) {
    ++counters_.unroutable;
    deliver_up(msg);
    return;
  }
  if (!seq_in_range(msg.seq)) {
    ++counters_.malformed;
    FDQOS_LOG_WARN("%s: dropping heartbeat with out-of-range seq %lld from %d",
                   config_.name.c_str(), static_cast<long long>(msg.seq),
                   static_cast<int>(msg.from));
    return;
  }
  ++counters_.heartbeats;
  members_[member]->observe_heartbeat(msg.seq);
}

void FleetBank::ingest(std::size_t endpoint, std::int64_t seq) {
  FDQOS_REQUIRE(endpoint < members_.size());
  if (!seq_in_range(seq)) {
    ++counters_.malformed;
    return;
  }
  ++counters_.heartbeats;
  members_[endpoint]->observe_heartbeat(seq);
}

void FleetBank::ingest_columns(const HeartbeatColumns& batch) {
  FDQOS_REQUIRE(batch.endpoint.size() == batch.seq.size());
  ++counters_.batches;
  for (std::size_t i = 0; i < batch.endpoint.size(); ++i) {
    ingest(batch.endpoint[i], batch.seq[i]);
  }
}

std::size_t FleetBank::total_lanes() const {
  FDQOS_REQUIRE(started_);
  return lanes_;
}

DetectorBank::Counters FleetBank::member_counters() const {
  DetectorBank::Counters total;
  for (const DetectorBank* member : members_) total.add(member->counters());
  return total;
}

std::size_t FleetBank::memory_bytes() const {
  std::size_t bytes = sizeof(*this);
  bytes += arena_.allocated_bytes();
  bytes += members_.capacity() * sizeof(DetectorBank*);
  bytes += wheel_.memory_bytes();  // its bucket heads sit in the arena
  bytes += endpoint_of_.memory_bytes();
  return bytes;
}

}  // namespace fdqos::fd
