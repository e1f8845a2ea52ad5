// DetectorBank — a batched columnar engine for N freshness detectors over
// one heartbeat arrival stream.
//
// The paper's fair-comparison design (§4) runs 30 detectors — 5 predictors
// × 6 safety margins — over the identical arrival process. Instantiating 30
// independent FreshnessDetectors recomputes each of the 5 distinct predictor
// states 6 times per heartbeat (including the ARIMA refits) and schedules
// 2 simulator events per detector per cycle. The bank collapses that
// duplication:
//
//   * each *distinct* predictor is owned exactly once, behind a
//     forecast::SharedPredictor handle — one observe() and one real
//     predict() evaluation per heartbeat per group;
//   * the per-(predictor, margin) state lives in struct-of-arrays lanes
//     (margin, freshness index, suspect flag), updated in one pass per
//     heartbeat;
//   * freshness-point expiries live in one row per cycle in flight, and a
//     single simulator event is armed at the earliest expiry of a cycle
//     that still waits for its heartbeat, instead of one event per
//     detector — and one cycle-begin event per bank instead of one per
//     detector.
//
// Semantics are *identical* to N independent FreshnessDetectors: lanes are
// independent given the shared stream, and the shared predictor state is
// byte-identical to each lane's private copy (same observations, same
// deterministic update). The bank-vs-legacy equivalence suite
// (tests/exp/bank_equivalence_test.cpp), the chaos golden CSVs and the
// one-event-per-expiry reference in tests/fd/freshness_oracle_test.cpp pin
// this guarantee. See docs/detector_bank.md.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "fd/safety_margin.hpp"
#include "forecast/shared_predictor.hpp"
#include "runtime/layer.hpp"
#include "sim/simulator.hpp"

namespace fdqos::fd {

class DetectorBank : public runtime::Layer {
 public:
  struct Config {
    Duration eta = Duration::seconds(1);   // monitored process's period η
    net::NodeId monitored = 0;             // heartbeat source to watch
    TimePoint epoch = TimePoint::origin();  // σ_i = epoch + i·η
    // Timeout used while no observation has arrived yet (cold start); the
    // adaptive δ takes over from the first heartbeat.
    Duration cold_start_timeout = Duration::seconds(1);
    std::string name = "bank";  // log/telemetry label for the whole bank
  };

  // Engine counters, cheap plain integers on the single-threaded hot path;
  // the experiment flushes them into the fdqos::obs registry at run end.
  struct Counters {
    std::uint64_t predictor_updates = 0;  // observe() on shared predictors
    std::uint64_t lane_updates = 0;       // per-lane margin+suspicion passes
    // Per-detector simulator events avoided by the shared cycle tick and
    // the expiry rows: legacy schedules one begin event and one freshness
    // event per detector per cycle, the bank one tick per cycle plus
    // timer_events.
    std::uint64_t coalesced_timers = 0;
    std::uint64_t timer_events = 0;     // armed timer events actually fired
    std::uint64_t dispatch_errors = 0;  // lane updates/observers that threw

    void add(const Counters& other);
  };

  // observer(lane, time, suspecting): fired on every trust <-> suspect
  // transition of one lane. Exceptions are contained to the offending lane
  // (counted in dispatch_errors), mirroring the MultiPlexer's fan-out
  // isolation — one faulty consumer must not starve its sibling lanes.
  using LaneObserver =
      std::function<void(std::size_t lane, TimePoint t, bool suspecting)>;

  // Timer host for bank-of-banks coalescing (fd::FleetBank). A hosted bank
  // never arms its own simulator event and never schedules its own
  // cycle-begin tick; instead it reports its earliest pending freshness
  // deadline through member_deadline_changed(), and the host drives
  // host_begin_cycle() / host_timer_check() at the right instants — one
  // armed event and one cycle tick per *shard* instead of per bank.
  class TimerHost {
   public:
    virtual ~TimerHost() = default;
    // The member's earliest pending deadline dropped below every deadline
    // reported since the host's last host_timer_check() on this member.
    virtual void member_deadline_changed(std::size_t member,
                                         TimePoint due) = 0;
  };

  DetectorBank(sim::Simulator& simulator, Config config);

  // Assembly, before start(): register each distinct predictor once, then
  // hang margin lanes off it. Returns the group/lane index.
  std::size_t add_group(std::unique_ptr<forecast::Predictor> predictor);
  std::size_t add_lane(std::string name, std::size_t group,
                       std::unique_ptr<SafetyMargin> margin);

  void set_observer(LaneObserver observer) { observer_ = std::move(observer); }

  // Enter hosted mode (before start()): `member` is this bank's index at
  // the host. In hosted mode start() computes cycle 0 inline but schedules
  // nothing; the host owns all simulator events.
  void set_timer_host(TimerHost* host, std::size_t member);

  void start() override;
  void handle_up(const net::Message& msg) override;

  // Heartbeat fast path: identical semantics to handle_up for a heartbeat
  // with this sequence number from the monitored node, minus the message
  // filter — the caller (FleetBank's router / columnar ingest) has already
  // established provenance. This is the fleet's allocation-free
  // steady-state entry.
  void observe_heartbeat(std::int64_t seq);

  // Hosted-mode entry points (TimerHost side).
  //
  // host_begin_cycle(k): exactly begin_cycle(k) minus the self-scheduling
  // of cycle k+1 — the host's shared tick calls every member in turn.
  void host_begin_cycle(std::int64_t k);
  // host_timer_check(): called whenever a deadline this member reported
  // comes due at the host. Dispatches every due live freshness point (if
  // any — a stale entry is a no-op), then re-reports the new earliest live
  // deadline, so every consumed host-queue entry is replaced and no
  // deadline is ever lost.
  void host_timer_check();
  // Earliest pending live freshness deadline — the earliest τ + 1 ns of a
  // cycle whose heartbeat has not arrived yet; TimePoint::max() when none.
  TimePoint earliest_expiry() const;
  bool started() const { return started_; }

  // Capacity hints for allocation-free steady state (fleet assembly sizes
  // these from the width and the cycles in flight before the run starts).
  void reserve_lanes(std::size_t lanes);
  // Room for `rows` cycles in flight (call after every lane is added).
  void reserve_rows(std::size_t rows);

  std::size_t width() const { return margins_.size(); }
  std::size_t group_count() const { return groups_.size(); }

  // Bank-level state: every lane sees the same stream, so the highest
  // heartbeat sequence (0 = none) and the observation count are shared.
  std::int64_t max_seq() const { return max_seq_; }
  std::size_t observations() const { return observations_; }

  // Per-lane state.
  const std::string& lane_name(std::size_t lane) const;
  bool lane_suspecting(std::size_t lane) const;
  // Index i of the lane's current freshness window [τ_i, τ_{i+1}).
  std::int64_t lane_freshness_index(std::size_t lane) const;
  // Current timeout δ = pred + sm of the lane, in milliseconds.
  double lane_delta_ms(std::size_t lane) const;
  std::size_t lane_group(std::size_t lane) const;
  const SafetyMargin& lane_margin(std::size_t lane) const;
  const forecast::Predictor& group_predictor(std::size_t group) const;
  const forecast::SharedPredictor& shared_predictor(std::size_t group) const;

  std::size_t suspecting_count() const;
  const Counters& counters() const { return counters_; }

  // Deadline of the next freshness check that can still raise a
  // suspicion (the earliest live expiry); TimePoint::max() when none. The
  // obs plane renders `deadline − now` as the freshness-timer lag gauge
  // (how far away the next possible suspicion is), so a live scrape can
  // see a detector coasting vs. about to fire. A solo bank's armed event
  // sits exactly here; a hosted bank's host fires at or before it.
  TimePoint next_timer_deadline() const { return earliest_expiry(); }

 private:
  void begin_cycle(std::int64_t k);
  std::size_t row_offset(std::size_t r) const;  // of row r in dues_
  void grow_rows(std::size_t capacity);
  void arm_at(TimePoint front);
  void timer_fired();
  TimePoint fire_due(TimePoint now);
  void update_suspicion(std::size_t lane);

  sim::Simulator& simulator_;
  Config config_;
  LaneObserver observer_;

  // Predictor groups: one SharedPredictor per distinct predictor config.
  std::vector<std::unique_ptr<forecast::SharedPredictor>> groups_;

  // Lane state, struct-of-arrays: index-aligned across all vectors.
  std::vector<std::string> lane_names_;
  std::vector<std::uint32_t> lane_group_;
  std::vector<std::unique_ptr<SafetyMargin>> margins_;
  // Freshness index each lane reached through fired expiries and folded
  // rows. A row whose dues passed while its cycle was dead is folded in at
  // cycle begin; lane_freshness_index() counts it before that.
  std::vector<std::int64_t> freshness_index_;
  std::vector<std::uint8_t> suspecting_;

  // Freshness expiries, one row per cycle in flight: row r holds every
  // lane's τ_i + 1 ns for cycle i = first_row_ + r, in a ring over one
  // flat buffer of capacity_rows_ × width() slots. A row is *live* while
  // i > max_seq_: once a heartbeat with seq ≥ i arrives, no expiry of
  // cycle i can raise a suspicion, so only live rows arm a timer. Live
  // dues up to fired_through_ have fired; later ones are pending.
  std::vector<TimePoint> dues_;
  std::int64_t first_row_ = 1;
  TimePoint fired_through_ = TimePoint::min();
  sim::EventHandle armed_;  // armed_.time() is the deadline; max() = idle
  std::uint32_t head_ = 0;  // ring slot of row 0
  std::uint32_t rows_ = 0;  // cycles in flight
  std::uint32_t capacity_rows_ = 0;
  bool started_ = false;

  // Hosted mode (see TimerHost): the host pointer, this bank's member
  // index there, and the lowest deadline reported since the last check —
  // arm_at() reports only when the front undercuts it (a host entry
  // cannot be withdrawn; one left behind by a dead row is a no-op check).
  TimerHost* host_ = nullptr;
  std::size_t host_member_ = 0;
  TimePoint host_reported_ = TimePoint::max();

  std::int64_t max_seq_ = 0;
  std::size_t observations_ = 0;
  Counters counters_;
};

}  // namespace fdqos::fd
