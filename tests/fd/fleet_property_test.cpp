// FleetBank property and fuzz coverage (`ctest -L fleet`), at the raw
// bank-of-banks layer (no experiment harness):
//
//  * per-member semantics equal a standalone DetectorBank fed the same
//    stream, under randomized arrival schedules with loss, duplication and
//    reordering;
//  * ingestion is endpoint-local — interleaving order across endpoints at
//    equal timestamps never changes any member's state;
//  * columnar batches are exactly the equivalent singles;
//  * a malformed/duplicate/out-of-order heartbeat corpus (and a randomized
//    message fuzz stream) is counted and dropped, never aborted — network
//    input is data. Death tests cover contract violations only (caller
//    bugs: out-of-range member index, assembly after start, a start that
//    missed the first cycle boundary).
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "fd/detector_bank.hpp"
#include "fd/fleet_bank.hpp"
#include "fd/suite.hpp"
#include "net/message.hpp"
#include "sim/simulator.hpp"

namespace fdqos::fd {
namespace {

constexpr Duration kEta = Duration::seconds(1);
constexpr std::size_t kCycles = 60;

// Two predictor groups × six margins — wide enough to exercise group
// sharing and the expiry rows, cheap enough to run many schedules.
std::vector<FdSpec> small_suite() {
  std::vector<FdSpec> out;
  for (FdSpec& spec : make_paper_suite()) {
    if (spec.predictor_label == "Last" || spec.predictor_label == "LPF") {
      out.push_back(std::move(spec));
    }
  }
  return out;
}

void configure_bank(DetectorBank& bank, const std::vector<FdSpec>& suite) {
  std::unordered_map<std::string, std::size_t> group_by_key;
  for (const FdSpec& spec : suite) {
    const auto it = spec.predictor_key.empty()
                        ? group_by_key.end()
                        : group_by_key.find(spec.predictor_key);
    std::size_t group;
    if (it != group_by_key.end()) {
      group = it->second;
    } else {
      group = bank.add_group(spec.make_predictor());
      if (!spec.predictor_key.empty()) {
        group_by_key.emplace(spec.predictor_key, group);
      }
    }
    bank.add_lane(spec.name, group, spec.make_margin());
  }
}

struct Arrival {
  Duration at;        // delivery instant (never on a σ boundary)
  std::size_t endpoint;
  std::int64_t seq;
};

// A lossy, duplicating, reordering delivery schedule for one endpoint:
// heartbeat i leaves at σ_i = i·η and lands after a random delay that can
// overshoot the next cycle (out-of-order arrivals and suspicions for free).
std::vector<Arrival> endpoint_schedule(Rng rng, std::size_t endpoint) {
  std::vector<Arrival> out;
  for (std::size_t i = 1; i <= kCycles; ++i) {
    if (rng.bernoulli(0.08)) continue;  // lost
    const double delay_ms = rng.uniform(20.0, 1800.0);
    const Duration at = kEta * static_cast<std::int64_t>(i) +
                        Duration::from_millis_double(delay_ms) + Duration::nanos(1);
    out.push_back({at, endpoint, static_cast<std::int64_t>(i)});
    if (rng.bernoulli(0.05)) {  // duplicated, a bit later
      out.push_back({at + Duration::from_millis_double(rng.uniform(1.0, 500.0)), endpoint,
                     static_cast<std::int64_t>(i)});
    }
  }
  return out;
}

struct Transition {
  std::size_t lane;
  std::int64_t t_ns;
  bool suspect;

  bool operator==(const Transition&) const = default;
};

DetectorBank::LaneObserver recording(std::vector<Transition>& into) {
  return [&into](std::size_t lane, TimePoint t, bool suspecting) {
    into.push_back({lane, t.count_nanos(), suspecting});
  };
}

// One fleet shard plus its drive schedule, ready to run to the horizon.
struct FleetHarness {
  sim::Simulator sim;
  FleetBank fleet;
  std::vector<std::vector<Transition>> streams;

  FleetHarness(std::size_t endpoints, const std::vector<FdSpec>& suite)
      : fleet(sim, {.eta = kEta,
                    .epoch = TimePoint::origin(),
                    .cold_start_timeout = Duration::seconds(1),
                    .name = "fleet-test",
                    .expected_endpoints = endpoints}),
        streams(endpoints) {
    for (std::size_t e = 0; e < endpoints; ++e) {
      DetectorBank& member =
          fleet.add_member(static_cast<net::NodeId>(100 + e));
      configure_bank(member, suite);
      member.set_observer(recording(streams[e]));
    }
  }

  void run(Duration horizon) {
    fleet.start();
    sim.run_until(TimePoint::origin() + horizon);
  }
};

// Index-aligned lane state, comparable across banks.
struct LaneState {
  bool suspecting;
  std::int64_t freshness_index;
  double delta_ms;

  bool operator==(const LaneState&) const = default;
};

std::vector<LaneState> lane_states(const DetectorBank& bank) {
  std::vector<LaneState> out;
  for (std::size_t lane = 0; lane < bank.width(); ++lane) {
    out.push_back({bank.lane_suspecting(lane), bank.lane_freshness_index(lane),
                   bank.lane_delta_ms(lane)});
  }
  return out;
}

class FleetScheduleTest : public ::testing::TestWithParam<std::uint64_t> {};

// Every member equals a standalone DetectorBank fed the identical stream —
// the bank-of-banks shares timer plumbing, never detector state.
TEST_P(FleetScheduleTest, MembersMatchStandaloneBanks) {
  const std::uint64_t seed = GetParam();
  constexpr std::size_t kEndpoints = 4;
  const auto suite = small_suite();
  const Rng base(seed);

  FleetHarness fleet(kEndpoints, suite);
  for (std::size_t e = 0; e < kEndpoints; ++e) {
    for (const Arrival& a : endpoint_schedule(base.fork(e), e)) {
      fleet.sim.schedule_at(TimePoint::origin() + a.at, [&fleet, a] {
        fleet.fleet.ingest(a.endpoint, a.seq);
      });
    }
  }
  fleet.run(kEta * static_cast<std::int64_t>(kCycles + 5));

  for (std::size_t e = 0; e < kEndpoints; ++e) {
    sim::Simulator solo_sim;
    DetectorBank solo(solo_sim, {.eta = kEta,
                                 .monitored = 0,
                                 .epoch = TimePoint::origin(),
                                 .cold_start_timeout = Duration::seconds(1),
                                 .name = "solo"});
    configure_bank(solo, suite);
    std::vector<Transition> solo_stream;
    solo.set_observer(recording(solo_stream));
    for (const Arrival& a : endpoint_schedule(base.fork(e), e)) {
      solo_sim.schedule_at(TimePoint::origin() + a.at,
                           [&solo, a] { solo.observe_heartbeat(a.seq); });
    }
    solo.start();
    solo_sim.run_until(TimePoint::origin() + kEta * static_cast<std::int64_t>(kCycles + 5));

    EXPECT_EQ(lane_states(fleet.fleet.member(e)), lane_states(solo))
        << "endpoint " << e;
    EXPECT_EQ(fleet.fleet.member(e).max_seq(), solo.max_seq());
    EXPECT_EQ(fleet.fleet.member(e).observations(), solo.observations());
    EXPECT_EQ(fleet.streams[e], solo_stream) << "endpoint " << e;
  }

  // The shard-level coalescing actually replaced per-member events: member
  // banks wanted more timer fires than the shard's single armed event paid.
  EXPECT_GT(fleet.fleet.counters().coalesced_events, 0u);
  EXPECT_GE(fleet.fleet.counters().member_checks,
            fleet.fleet.counters().timer_events);
}

// Ingestion is endpoint-local: delivering the same instant's arrivals in
// ascending vs descending endpoint order changes nothing anywhere.
TEST_P(FleetScheduleTest, InterleavingOrderAcrossEndpointsIsIrrelevant) {
  const std::uint64_t seed = GetParam();
  constexpr std::size_t kEndpoints = 5;
  const auto suite = small_suite();
  // One shared delay stream → every cycle's arrivals share a timestamp, so
  // insertion order across endpoints is genuinely exercised.
  const auto shared = endpoint_schedule(Rng(seed), 0);

  FleetHarness asc(kEndpoints, suite), desc(kEndpoints, suite);
  for (const Arrival& a : shared) {
    for (std::size_t e = 0; e < kEndpoints; ++e) {
      asc.sim.schedule_at(TimePoint::origin() + a.at, [&asc, a, e] {
        asc.fleet.ingest(e, a.seq);
      });
    }
    for (std::size_t e = kEndpoints; e-- > 0;) {
      desc.sim.schedule_at(TimePoint::origin() + a.at, [&desc, a, e] {
        desc.fleet.ingest(e, a.seq);
      });
    }
  }
  asc.run(kEta * static_cast<std::int64_t>(kCycles + 5));
  desc.run(kEta * static_cast<std::int64_t>(kCycles + 5));

  for (std::size_t e = 0; e < kEndpoints; ++e) {
    EXPECT_EQ(lane_states(asc.fleet.member(e)), lane_states(desc.fleet.member(e)))
        << "endpoint " << e;
    EXPECT_EQ(asc.streams[e], desc.streams[e]) << "endpoint " << e;
  }
  EXPECT_EQ(asc.fleet.counters().heartbeats, desc.fleet.counters().heartbeats);
}

// ingest_columns(batch) ≡ the same entries through ingest(), one by one.
TEST_P(FleetScheduleTest, ColumnarBatchesMatchSingles) {
  const std::uint64_t seed = GetParam();
  constexpr std::size_t kEndpoints = 4;
  const auto suite = small_suite();
  const Rng base(seed);

  std::vector<Arrival> all;
  for (std::size_t e = 0; e < kEndpoints; ++e) {
    const auto sched = endpoint_schedule(base.fork(e), e);
    all.insert(all.end(), sched.begin(), sched.end());
  }
  // Batch by delivery instant, endpoint-ascending within a batch (the
  // coordinator's scatter order).
  std::map<Duration, FleetBank::HeartbeatColumns> batches;
  for (const Arrival& a : all) {
    auto& batch = batches[a.at];
    batch.endpoint.push_back(static_cast<std::uint32_t>(a.endpoint));
    batch.seq.push_back(a.seq);
  }

  FleetHarness singles(kEndpoints, suite), columnar(kEndpoints, suite);
  for (const auto& [at, batch] : batches) {
    for (std::size_t i = 0; i < batch.size(); ++i) {
      singles.sim.schedule_at(
          TimePoint::origin() + at,
          [&singles, e = batch.endpoint[i], s = batch.seq[i]] {
            singles.fleet.ingest(e, s);
          });
    }
    columnar.sim.schedule_at(TimePoint::origin() + at, [&columnar, &batch] {
      columnar.fleet.ingest_columns(batch);
    });
  }
  singles.run(kEta * static_cast<std::int64_t>(kCycles + 5));
  columnar.run(kEta * static_cast<std::int64_t>(kCycles + 5));

  for (std::size_t e = 0; e < kEndpoints; ++e) {
    EXPECT_EQ(lane_states(singles.fleet.member(e)),
              lane_states(columnar.fleet.member(e)))
        << "endpoint " << e;
    EXPECT_EQ(singles.streams[e], columnar.streams[e]) << "endpoint " << e;
  }
  EXPECT_EQ(singles.fleet.counters().heartbeats,
            columnar.fleet.counters().heartbeats);
  EXPECT_EQ(columnar.fleet.counters().batches, batches.size());
  EXPECT_EQ(singles.fleet.counters().batches, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FleetScheduleTest,
                         ::testing::Values(std::uint64_t{7}, std::uint64_t{11},
                                           std::uint64_t{13}),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

net::Message heartbeat_from(net::NodeId from, std::int64_t seq) {
  net::Message msg;
  msg.from = from;
  msg.to = 1;
  msg.type = net::MessageType::kHeartbeat;
  msg.seq = seq;
  return msg;
}

// The routed path: malformed, duplicate, unroutable and non-heartbeat
// traffic is counted and dropped (or forwarded), never aborted, and never
// perturbs member state it shouldn't reach.
TEST(FleetCorpusTest, MalformedAndHostileHeartbeatsAreDataNotContractViolations) {
  const auto suite = small_suite();
  FleetHarness h(2, suite);
  h.fleet.start();
  h.sim.run_until(TimePoint::origin() + Duration::millis(3500));
  const auto states_before = lane_states(h.fleet.member(1));

  // Well-formed traffic for endpoint 0 (node 100), including a duplicate
  // and an out-of-order pair — all legal.
  h.fleet.handle_up(heartbeat_from(100, 3));
  h.fleet.handle_up(heartbeat_from(100, 3));  // duplicate
  h.fleet.handle_up(heartbeat_from(100, 1));  // out of order
  h.fleet.handle_up(heartbeat_from(100, 0));  // seq 0: σ_0 itself, legal
  EXPECT_EQ(h.fleet.counters().heartbeats, 4u);
  EXPECT_EQ(h.fleet.member(0).max_seq(), 3);
  EXPECT_EQ(h.fleet.member(0).observations(), 4u);

  // Malformed sequence numbers: counted, dropped, member untouched.
  h.fleet.handle_up(heartbeat_from(100, -1));
  h.fleet.handle_up(heartbeat_from(100, std::numeric_limits<std::int64_t>::min()));
  h.fleet.handle_up(heartbeat_from(100, std::numeric_limits<std::int64_t>::max()));
  EXPECT_EQ(h.fleet.counters().malformed, 3u);
  EXPECT_EQ(h.fleet.member(0).observations(), 4u);

  // Direct-ingest malformed seq follows the same rule (data, not REQUIRE).
  h.fleet.ingest(0, -5);
  EXPECT_EQ(h.fleet.counters().malformed, 4u);

  // Heartbeats from a source no member registered: counted unroutable and
  // forwarded up (here: to nobody), members untouched.
  h.fleet.handle_up(heartbeat_from(999, 2));
  EXPECT_EQ(h.fleet.counters().unroutable, 1u);

  // Non-heartbeat traffic passes through untouched and uncounted.
  net::Message ping = heartbeat_from(100, 7);
  ping.type = net::MessageType::kPing;
  h.fleet.handle_up(ping);
  EXPECT_EQ(h.fleet.counters().heartbeats, 4u);
  EXPECT_EQ(h.fleet.counters().unroutable, 1u);

  // Endpoint 1 never saw any of it.
  EXPECT_EQ(h.fleet.member(1).observations(), 0u);
  EXPECT_EQ(lane_states(h.fleet.member(1)), states_before);
}

// Randomized hostile stream: whatever arrives, the fleet accounts for every
// message and keeps running.
TEST(FleetCorpusTest, RandomizedMessageFuzzNeverAborts) {
  const auto suite = small_suite();
  FleetHarness h(3, suite);
  Rng rng(20260808);

  std::uint64_t expect_ok = 0, expect_malformed = 0, expect_unroutable = 0;
  for (int i = 0; i < 500; ++i) {
    net::Message msg;
    const double roll = rng.next_double();
    msg.type = roll < 0.8 ? net::MessageType::kHeartbeat
               : roll < 0.9 ? net::MessageType::kUser
                            : net::MessageType::kPong;
    msg.from = static_cast<net::NodeId>(rng.uniform_int(98, 104));
    const double seq_roll = rng.next_double();
    msg.seq = seq_roll < 0.6 ? rng.uniform_int(0, kCycles)
              : seq_roll < 0.8
                  ? rng.uniform_int(-1000, -1)
                  : std::numeric_limits<std::int64_t>::max() -
                        rng.uniform_int(0, 1000);
    h.sim.schedule_at(
        TimePoint::origin() + Duration::from_millis_double(rng.uniform(1.0, 50000.0)),
        [&h, msg] { h.fleet.handle_up(msg); });
    if (msg.type != net::MessageType::kHeartbeat) continue;
    const bool routable = msg.from >= 100 && msg.from <= 102;
    if (!routable) {
      ++expect_unroutable;
    } else if (msg.seq < 0 ||
               msg.seq > std::numeric_limits<std::int64_t>::max() /
                             kEta.count_nanos()) {
      ++expect_malformed;
    } else {
      ++expect_ok;
    }
  }
  h.run(Duration::seconds(60));

  EXPECT_EQ(h.fleet.counters().heartbeats, expect_ok);
  EXPECT_EQ(h.fleet.counters().malformed, expect_malformed);
  EXPECT_EQ(h.fleet.counters().unroutable, expect_unroutable);
  // Every lane's state is still a sane value (the walk itself would trip
  // ASan/UBSan on corruption).
  for (std::size_t e = 0; e < 3; ++e) {
    for (const LaneState& s : lane_states(h.fleet.member(e))) {
      EXPECT_GE(s.freshness_index, 0);
    }
  }
}

// Contract violations — caller bugs, not data — do abort.
TEST(FleetBankDeathTest, OutOfRangeMemberIndexAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const auto suite = small_suite();
  FleetHarness h(2, suite);
  h.fleet.start();
  EXPECT_DEATH(h.fleet.ingest(2, 1), "endpoint < members_");
}

TEST(FleetBankDeathTest, AssemblyAfterStartAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const auto suite = small_suite();
  FleetHarness h(2, suite);
  h.fleet.start();
  EXPECT_DEATH(h.fleet.add_member(300), "!started_");
  EXPECT_DEATH(h.fleet.start(), "!started_");
}

TEST(FleetBankDeathTest, StartAfterFirstCycleBoundaryAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const auto suite = small_suite();
  FleetHarness h(1, suite);
  h.sim.schedule_at(TimePoint::origin() + Duration::seconds(5), [] {});
  h.sim.run();
  EXPECT_DEATH(h.fleet.start(), "epoch");
}

TEST(FleetBankDeathTest, MisalignedColumnsAbort) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const auto suite = small_suite();
  FleetHarness h(1, suite);
  h.fleet.start();
  FleetBank::HeartbeatColumns bad;
  bad.endpoint = {0, 0};
  bad.seq = {1};
  EXPECT_DEATH(h.fleet.ingest_columns(bad), "endpoint.size");
}

}  // namespace
}  // namespace fdqos::fd
