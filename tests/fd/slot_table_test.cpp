// SlotTable against a std::unordered_map reference: random ids, ids that
// share a home bucket, negative ids and the INT32 extremes, growth from an
// undersized table, and FleetIngest admission up to and past capacity.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "fd/fleet_bank.hpp"
#include "fd/fleet_ingest.hpp"
#include "fd/slot_table.hpp"
#include "fd/suite.hpp"
#include "sim/simulator.hpp"

namespace fdqos::fd {
namespace {

constexpr net::NodeId kMin = std::numeric_limits<net::NodeId>::min();
constexpr net::NodeId kMax = std::numeric_limits<net::NodeId>::max();

net::NodeId random_id(Rng& rng) {
  return static_cast<net::NodeId>(rng.uniform_int(kMin, kMax));
}

// Ids drawn so that many land on one home bucket of `table`.
std::vector<net::NodeId> colliding_ids(const SlotTable& table, Rng& rng,
                                       std::size_t want) {
  const std::size_t target = table.home(random_id(rng));
  std::vector<net::NodeId> out;
  while (out.size() < want) {
    const net::NodeId id = random_id(rng);
    if (table.home(id) == target) out.push_back(id);
  }
  return out;
}

void expect_matches(const SlotTable& table,
                    const std::unordered_map<net::NodeId, std::uint32_t>& ref,
                    const std::vector<net::NodeId>& probes) {
  ASSERT_EQ(table.size(), ref.size());
  ASSERT_LE(2 * table.size(), table.buckets());  // load ≤ ½
  for (const net::NodeId id : probes) {
    const auto it = ref.find(id);
    EXPECT_EQ(table.find(id), it == ref.end() ? SlotTable::kNoSlot : it->second)
        << "id " << id;
  }
}

TEST(SlotTableTest, MatchesUnorderedMapReference) {
  for (const std::uint64_t seed : {3u, 17u, 29u}) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    SlotTable table(4);  // undersized: growth is exercised too
    std::unordered_map<net::NodeId, std::uint32_t> ref;
    std::vector<net::NodeId> ids = {kMin, kMax, -1, 0, 1, kMin + 1, kMax - 1};
    for (int i = 0; i < 3000; ++i) ids.push_back(random_id(rng));
    for (int i = 0; i < 200; ++i) {
      ids.push_back(static_cast<net::NodeId>(rng.uniform_int(-50, 50)));
    }
    const auto colliding = colliding_ids(table, rng, 40);
    ids.insert(ids.end(), colliding.begin(), colliding.end());

    std::vector<net::NodeId> probes = ids;
    for (int i = 0; i < 2000; ++i) probes.push_back(random_id(rng));
    for (std::size_t i = 0; i < ids.size(); ++i) {
      const auto slot = static_cast<std::uint32_t>(i);
      const auto [it, fresh] = ref.emplace(ids[i], slot);
      EXPECT_EQ(table.emplace(ids[i], slot), it->second);  // first one wins
      (void)fresh;
      if (i % 500 == 0) expect_matches(table, ref, probes);
    }
    expect_matches(table, ref, probes);
  }
}

TEST(SlotTableTest, IdsSharingAHomeBucketStayDistinct) {
  Rng rng(5);
  SlotTable table(64);
  const auto ids = colliding_ids(table, rng, 60);  // a run past 32 buckets
  std::unordered_map<net::NodeId, std::uint32_t> ref;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ref.emplace(ids[i], static_cast<std::uint32_t>(i));
    table.emplace(ids[i], static_cast<std::uint32_t>(i));
  }
  expect_matches(table, ref, ids);
  table.clear();
  EXPECT_TRUE(table.empty());
  EXPECT_EQ(table.find(ids.front()), SlotTable::kNoSlot);
}

// FleetIngest admission (first-sight slots, refusal past capacity, and
// admitted()) equals a reference map that hands out slots the same way.
TEST(SlotTableTest, AdmissionUpToAndPastCapacityMatchesReference) {
  constexpr std::size_t kCapacity = 300;
  sim::Simulator simulator;
  FleetBank::Config config;
  config.eta = Duration::millis(100);
  config.cold_start_timeout = Duration::millis(100);
  FleetBank fleet(simulator, config);
  for (std::size_t slot = 0; slot < kCapacity; ++slot) {
    DetectorBank& member = fleet.add_member(static_cast<net::NodeId>(slot));
    const std::size_t group = member.add_group(make_paper_predictor("Last")());
    member.add_lane("Last+CI_low", group, make_paper_margin("CI_low")());
  }
  fleet.start();
  FleetIngest ingest(fleet, kCapacity);

  Rng rng(41);
  std::vector<net::NodeId> pool = {kMin, kMax, -1, 0};
  for (int i = 0; i < 500; ++i) pool.push_back(random_id(rng));
  std::unordered_map<net::NodeId, std::uint32_t> ref;
  std::uint64_t refused = 0;
  std::uint64_t accepted = 0;
  for (int i = 0; i < 5000; ++i) {
    const net::NodeId id = pool[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(pool.size()) - 1))];
    bool admit = ref.count(id) > 0;
    if (!admit && ref.size() < kCapacity) {
      ref.emplace(id, static_cast<std::uint32_t>(ref.size()));
      admit = true;
    }
    EXPECT_EQ(ingest.offer(id, i + 1), admit) << "offer " << i;
    if (admit) {
      ++accepted;
    } else {
      ++refused;
    }
    if (ingest.pending() >= 64) ingest.flush();
  }
  ingest.flush();
  EXPECT_EQ(ingest.admitted(), kCapacity);
  EXPECT_EQ(ingest.counters().dropped_capacity, refused);
  EXPECT_EQ(fleet.counters().heartbeats, accepted);
  for (const net::NodeId id : pool) {
    const auto it = ref.find(id);
    EXPECT_EQ(ingest.slot_of(id), it == ref.end() ? kCapacity : it->second);
  }
}

}  // namespace
}  // namespace fdqos::fd
