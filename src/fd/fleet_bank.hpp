// FleetBank — a bank-of-banks: fleet-scale monitoring of M endpoints.
//
// The paper evaluates one monitored Italy→Japan process; production
// failure detectors watch whole fleets (Dobre et al., PAPERS.md). The
// FleetBank owns one DetectorBank per monitored endpoint and extends the
// bank's coalescing idiom one level up, so a shard of tens of thousands of
// endpoints costs the simulator what a single bank used to:
//
//   * ONE cycle-begin event per shard per cycle. All endpoints share the
//     heartbeat epoch and period η, so their σ boundaries coincide; the
//     shard tick walks every member (arena-packed, nearly sequential
//     memory) instead of each bank scheduling its own event.
//   * ONE armed freshness-timer event per shard. Members run in
//     DetectorBank::TimerHost mode: they report every change of their
//     earliest live deadline into the fleet's DueWheel (one entry per
//     member), and the fleet keeps a single armed event at the wheel's
//     front — exactly where a solo bank keeps its own.
//   * Columnar heartbeat ingestion: a coordinator batches arrivals across
//     endpoints into index-aligned (endpoint, seq) columns and hands the
//     shard one ingest_columns() call per batch; each entry takes the
//     bank's observe_heartbeat() fast path (no message construction, no
//     allocation in steady state).
//
// Per-endpoint semantics are *identical* to a standalone DetectorBank —
// members never share estimator or suspicion state, only timer plumbing.
// The fleet equivalence suite (tests/fd/fleet_bank_test.cpp, `ctest -L
// fleet`) pins M independent single-endpoint runs ≡ one FleetBank run
// byte-for-byte. See docs/fleet.md.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/arena.hpp"
#include "fd/detector_bank.hpp"
#include "fd/due_wheel.hpp"
#include "fd/slot_table.hpp"
#include "runtime/layer.hpp"
#include "sim/simulator.hpp"

namespace fdqos::fd {

class FleetBank final : public runtime::Layer, private DetectorBank::TimerHost {
 public:
  struct Config {
    Duration eta = Duration::seconds(1);    // shared heartbeat period
    TimePoint epoch = TimePoint::origin();  // shared σ_i = epoch + i·η
    Duration cold_start_timeout = Duration::seconds(1);
    std::string name = "fleet";     // log/telemetry label for the shard
    std::size_t expected_endpoints = 0;  // capacity hint for member tables
  };

  // Shard-level engine counters; the experiment flushes them into the
  // fdqos::obs registry (fdqos_fleet_* families) at run end.
  struct Counters {
    // Heartbeats ingested via the route/ingest paths. In per-node
    // attachment mode deliveries bypass the fleet (members sit on their own
    // endpoint stacks); the experiment accounts them from the link stats
    // when draining a shard, so the obs counter covers both modes.
    std::uint64_t heartbeats = 0;
    std::uint64_t batches = 0;        // columnar batches ingested
    std::uint64_t timer_events = 0;   // shard armed events actually fired
    // Member deadline checks dispatched. Every check is at a live due, so
    // this equals the members' own timer_events.
    std::uint64_t member_checks = 0;
    // Member simulator events avoided by the shard-level tick and timer
    // (each member would otherwise schedule its own).
    std::uint64_t coalesced_events = 0;
    std::uint64_t unroutable = 0;  // heartbeats from unregistered sources
    std::uint64_t malformed = 0;   // heartbeats with out-of-range seq

    void add(const Counters& other);
  };

  // One columnar heartbeat batch: index-aligned endpoint/seq arrays, the
  // shard-local half of a scatter by endpoint→shard.
  struct HeartbeatColumns {
    std::vector<std::uint32_t> endpoint;  // member index within this shard
    std::vector<std::int64_t> seq;

    void clear() {
      endpoint.clear();
      seq.clear();
    }
    std::size_t size() const { return endpoint.size(); }
  };

  FleetBank(sim::Simulator& simulator, Config config);

  // Assembly, before start(): one member bank per monitored endpoint.
  // `monitored` keys handle_up routing (must be unique for routing to
  // work; per-node attachment mode — where each member is attached to its
  // own endpoint's stack — never routes and may reuse ids). The member is
  // arena-owned by the fleet; configure its groups/lanes before start().
  DetectorBank& add_member(net::NodeId monitored, std::string name = "");

  std::size_t members() const { return members_.size(); }
  DetectorBank& member(std::size_t e);
  const DetectorBank& member(std::size_t e) const;

  // Starts any member not already started by its own node stack, then
  // schedules the shared cycle tick. Call exactly once, after every
  // member's stack has started (the experiment starts members via their
  // ProcessNodes; the raw-coordinator bench lets start() do it).
  void start() override;

  // Routed ingestion: heartbeats are routed to the member registered for
  // msg.from; anything else falls through to deliver_up. The id → member
  // table is built on the first routed heartbeat, so fleets fed by member
  // index (the daemon, the bench) never pay for it. Wild sequence
  // numbers (negative, or large enough that epoch + η·seq overflows) are
  // counted as malformed and dropped — network input is data, never a
  // contract violation.
  void handle_up(const net::Message& msg) override;

  // Direct ingestion fast paths (raw-coordinator mode). `endpoint` is the
  // member index — out of range is a caller bug (FDQOS_REQUIRE).
  void ingest(std::size_t endpoint, std::int64_t seq);
  void ingest_columns(const HeartbeatColumns& batch);

  // Lanes over every member, fixed at start().
  std::size_t total_lanes() const;
  // Suspecting lanes over every member: a running tally kept by the
  // members' transitions, never a walk.
  std::size_t suspecting_count() const { return suspecting_; }
  const Counters& counters() const { return counters_; }
  // Aggregate of every member's engine counters.
  DetectorBank::Counters member_counters() const;

  // Approximate resident bytes for the whole shard: arena blocks plus the
  // fleet-level containers. Predictor/margin internals behind virtual
  // interfaces are not visible from here, so treat this as a lower bound
  // (the bench reports it as bytes/endpoint).
  std::size_t memory_bytes() const;

 private:
  void member_deadline_changed(std::size_t member, TimePoint due) override;
  void member_suspicion_changed(bool suspecting) override;
  void cycle_tick(std::int64_t k);
  void arm();
  void fired();
  bool seq_in_range(std::int64_t seq) const;

  sim::Simulator& simulator_;
  Config config_;
  common::MonotonicArena arena_;
  std::vector<DetectorBank*> members_;  // arena-owned
  SlotTable endpoint_of_;  // routing, built on the first routed heartbeat

  // Coalesced member deadlines: one wheel entry per member + one armed
  // event at its front, the bank's own expiry idiom lifted one level.
  DueWheel wheel_;
  sim::EventHandle armed_;
  bool firing_ = false;  // inside fired(): re-arm once, after the checks

  bool started_ = false;
  std::size_t lanes_ = 0;
  std::size_t suspecting_ = 0;
  Counters counters_;
};

}  // namespace fdqos::fd
