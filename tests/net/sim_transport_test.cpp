#include "net/sim_transport.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace fdqos::net {
namespace {

Message heartbeat(NodeId from, NodeId to, std::int64_t seq, TimePoint sent) {
  Message msg;
  msg.from = from;
  msg.to = to;
  msg.type = MessageType::kHeartbeat;
  msg.seq = seq;
  msg.send_time = sent;
  return msg;
}

TEST(SimTransportTest, UnconfiguredLinkDeliversInstantly) {
  sim::Simulator simulator;
  SimTransport transport(simulator, Rng(1));
  std::vector<std::int64_t> received;
  transport.bind(1, [&](const Message& m) { received.push_back(m.seq); });
  transport.send(heartbeat(0, 1, 7, simulator.now()));
  simulator.run();
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0], 7);
}

TEST(SimTransportTest, ConstantDelayIsApplied) {
  sim::Simulator simulator;
  SimTransport transport(simulator, Rng(2));
  SimTransport::LinkConfig link;
  link.delay = std::make_unique<wan::ConstantDelay>(Duration::millis(200));
  transport.set_link(0, 1, std::move(link));
  TimePoint arrival;
  transport.bind(1, [&](const Message&) { arrival = simulator.now(); });
  transport.send(heartbeat(0, 1, 1, simulator.now()));
  simulator.run();
  EXPECT_EQ(arrival, TimePoint::origin() + Duration::millis(200));
}

TEST(SimTransportTest, LossDropsApproximatelyAtRate) {
  sim::Simulator simulator;
  SimTransport transport(simulator, Rng(3));
  SimTransport::LinkConfig link;
  link.delay = std::make_unique<wan::ConstantDelay>(Duration::millis(1));
  link.loss = std::make_unique<wan::BernoulliLoss>(0.25);
  transport.set_link(0, 1, std::move(link));
  int received = 0;
  transport.bind(1, [&](const Message&) { ++received; });
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    transport.send(heartbeat(0, 1, i, simulator.now()));
  }
  simulator.run();
  EXPECT_NEAR(static_cast<double>(received) / n, 0.75, 0.01);
  const auto& stats = transport.link_stats(0, 1);
  EXPECT_EQ(stats.sent, static_cast<std::uint64_t>(n));
  EXPECT_EQ(stats.dropped + stats.delivered, static_cast<std::uint64_t>(n));
}

TEST(SimTransportTest, NeverDuplicatesMessages) {
  sim::Simulator simulator;
  SimTransport transport(simulator, Rng(4));
  SimTransport::LinkConfig link;
  link.delay = std::make_unique<wan::UniformDelay>(Duration::millis(0),
                                                   Duration::millis(100));
  link.loss = std::make_unique<wan::BernoulliLoss>(0.1);
  transport.set_link(0, 1, std::move(link));
  std::vector<int> count(1000, 0);
  transport.bind(1, [&](const Message& m) {
    ++count[static_cast<std::size_t>(m.seq)];
  });
  for (int i = 0; i < 1000; ++i) {
    transport.send(heartbeat(0, 1, i, simulator.now()));
  }
  simulator.run();
  for (int c : count) EXPECT_LE(c, 1);
}

TEST(SimTransportTest, IndependentDelaysReorderMessages) {
  sim::Simulator simulator;
  SimTransport transport(simulator, Rng(5));
  SimTransport::LinkConfig link;
  link.delay = std::make_unique<wan::UniformDelay>(Duration::millis(0),
                                                   Duration::millis(500));
  transport.set_link(0, 1, std::move(link));
  std::vector<std::int64_t> arrival_order;
  transport.bind(1, [&](const Message& m) { arrival_order.push_back(m.seq); });
  for (int i = 0; i < 200; ++i) {
    transport.send(heartbeat(0, 1, i, simulator.now()));
  }
  simulator.run();
  ASSERT_EQ(arrival_order.size(), 200u);
  bool reordered = false;
  for (std::size_t i = 1; i < arrival_order.size(); ++i) {
    if (arrival_order[i] < arrival_order[i - 1]) reordered = true;
  }
  EXPECT_TRUE(reordered);
}

TEST(SimTransportTest, MessageToUnboundNodeIsDropped) {
  sim::Simulator simulator;
  SimTransport transport(simulator, Rng(6));
  transport.send(heartbeat(0, 99, 1, simulator.now()));
  simulator.run();  // must not crash
  EXPECT_EQ(transport.link_stats(0, 99).delivered, 0u);
}

TEST(SimTransportTest, LinksAreDirectional) {
  sim::Simulator simulator;
  SimTransport transport(simulator, Rng(7));
  SimTransport::LinkConfig forward;
  forward.delay = std::make_unique<wan::ConstantDelay>(Duration::millis(10));
  transport.set_link(0, 1, std::move(forward));
  SimTransport::LinkConfig backward;
  backward.delay = std::make_unique<wan::ConstantDelay>(Duration::millis(99));
  transport.set_link(1, 0, std::move(backward));

  TimePoint fwd_arrival;
  TimePoint bwd_arrival;
  transport.bind(1, [&](const Message&) { fwd_arrival = simulator.now(); });
  transport.bind(0, [&](const Message&) { bwd_arrival = simulator.now(); });
  transport.send(heartbeat(0, 1, 1, simulator.now()));
  transport.send(heartbeat(1, 0, 1, simulator.now()));
  simulator.run();
  EXPECT_EQ(fwd_arrival, TimePoint::origin() + Duration::millis(10));
  EXPECT_EQ(bwd_arrival, TimePoint::origin() + Duration::millis(99));
}

TEST(SimTransportTest, DisabledLinkCountsPartitionDrops) {
  sim::Simulator simulator;
  SimTransport transport(simulator, Rng(9));
  SimTransport::LinkConfig link;
  link.delay = std::make_unique<wan::ConstantDelay>(Duration::millis(1));
  transport.set_link(0, 1, std::move(link));
  int received = 0;
  transport.bind(1, [&](const Message&) { ++received; });

  transport.send(heartbeat(0, 1, 1, simulator.now()));
  transport.set_link_enabled(0, 1, false);
  transport.send(heartbeat(0, 1, 2, simulator.now()));
  transport.send(heartbeat(0, 1, 3, simulator.now()));
  transport.set_link_enabled(0, 1, true);
  transport.send(heartbeat(0, 1, 4, simulator.now()));
  simulator.run();

  EXPECT_EQ(received, 2);
  const auto& stats = transport.link_stats(0, 1);
  EXPECT_EQ(stats.sent, 4u);
  EXPECT_EQ(stats.delivered, 2u);
  EXPECT_EQ(stats.dropped, 2u);
  EXPECT_EQ(stats.partition_dropped, 2u);
}

TEST(SimTransportTest, PartitionDropsAreDisjointFromLossDrops) {
  // Stochastic loss and partition drops both land in `dropped`, but only
  // the partition's share lands in `partition_dropped`.
  sim::Simulator simulator;
  SimTransport transport(simulator, Rng(10));
  SimTransport::LinkConfig link;
  link.delay = std::make_unique<wan::ConstantDelay>(Duration::millis(1));
  link.loss = std::make_unique<wan::BernoulliLoss>(1.0);  // drop everything
  transport.set_link(0, 1, std::move(link));
  transport.bind(1, [&](const Message&) {});

  transport.send(heartbeat(0, 1, 1, simulator.now()));  // loss-model drop
  transport.set_link_enabled(0, 1, false);
  transport.send(heartbeat(0, 1, 2, simulator.now()));  // partition drop
  simulator.run();

  const auto& stats = transport.link_stats(0, 1);
  EXPECT_EQ(stats.dropped, 2u);
  EXPECT_EQ(stats.partition_dropped, 1u);
}

TEST(SimTransportTest, StatsStayConsistentUnderLossAndReorder) {
  // sent = delivered + dropped must hold exactly even while independent
  // delays reorder deliveries and the loss model thins the stream.
  sim::Simulator simulator;
  SimTransport transport(simulator, Rng(11));
  SimTransport::LinkConfig link;
  link.delay = std::make_unique<wan::UniformDelay>(Duration::millis(0),
                                                   Duration::millis(400));
  link.loss = std::make_unique<wan::BernoulliLoss>(0.2);
  transport.set_link(0, 1, std::move(link));
  int received = 0;
  transport.bind(1, [&](const Message&) { ++received; });
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    transport.send(heartbeat(0, 1, i, simulator.now()));
  }
  simulator.run();

  const auto& stats = transport.link_stats(0, 1);
  EXPECT_EQ(stats.sent, static_cast<std::uint64_t>(n));
  EXPECT_EQ(stats.delivered + stats.dropped, stats.sent);
  EXPECT_EQ(stats.delivered, static_cast<std::uint64_t>(received));
  EXPECT_EQ(stats.partition_dropped, 0u);  // link never disabled
  EXPECT_GT(stats.dropped, 0u);
}

TEST(SimTransportTest, SymmetricPartitionCutsBothDirectionsOnly) {
  sim::Simulator simulator;
  SimTransport transport(simulator, Rng(12));
  int to_b = 0;
  int to_c = 0;
  transport.bind(1, [&](const Message&) { ++to_b; });
  transport.bind(2, [&](const Message&) { ++to_c; });

  transport.set_partitioned(0, 1, true);
  transport.send(heartbeat(0, 1, 1, simulator.now()));
  transport.send(heartbeat(1, 0, 1, simulator.now()));
  transport.send(heartbeat(0, 2, 1, simulator.now()));  // unrelated pair
  simulator.run();
  EXPECT_EQ(to_b, 0);
  EXPECT_EQ(to_c, 1);
  EXPECT_EQ(transport.link_stats(0, 1).partition_dropped, 1u);
  EXPECT_EQ(transport.link_stats(1, 0).partition_dropped, 1u);

  transport.set_partitioned(0, 1, false);
  transport.send(heartbeat(0, 1, 2, simulator.now()));
  simulator.run();
  EXPECT_EQ(to_b, 1);
}

TEST(SimTransportTest, SendFromInsideDeliveryKeepsMessagesIntact) {
  // A receiver that sends while its delivery runs grows the in-flight pool
  // under it; the message it is reading must stay whole, and every message
  // must arrive exactly once.
  sim::Simulator simulator;
  SimTransport transport(simulator, Rng(13));
  auto make = [&](NodeId from, NodeId to, std::int64_t seq) {
    Message msg = heartbeat(from, to, seq, simulator.now());
    msg.payload.assign(static_cast<std::size_t>(seq % 17 + 1),
                       static_cast<std::uint8_t>(seq));
    return msg;
  };
  std::vector<std::int64_t> seen;
  auto receive = [&](const Message& m) {
    if (m.seq < 50) {  // a chain link: pass it on, plus eight leaves
      transport.send(make(m.to, m.from, m.seq + 1));
      for (std::int64_t leaf = 0; leaf < 8; ++leaf) {
        transport.send(make(m.to, m.from, 1000 + 8 * m.seq + leaf));
      }
    }
    // Read the message only after the sends above.
    ASSERT_EQ(m.payload.size(), static_cast<std::size_t>(m.seq % 17 + 1));
    for (std::uint8_t byte : m.payload) {
      ASSERT_EQ(byte, static_cast<std::uint8_t>(m.seq));
    }
    seen.push_back(m.seq);
  };
  transport.bind(0, receive);
  transport.bind(1, receive);
  transport.send(make(0, 1, 0));
  simulator.run();
  ASSERT_EQ(seen.size(), 1u + 50u + 8u * 50u);
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(std::adjacent_find(seen.begin(), seen.end()), seen.end());
  EXPECT_EQ(seen[50], 50);
  EXPECT_EQ(seen.back(), 1000 + 8 * 49 + 7);
}

TEST(SimTransportTest, SameSeedSameDeliverySchedule) {
  auto run_once = [] {
    sim::Simulator simulator;
    SimTransport transport(simulator, Rng(8));
    SimTransport::LinkConfig link;
    link.delay = std::make_unique<wan::UniformDelay>(Duration::millis(1),
                                                     Duration::millis(300));
    link.loss = std::make_unique<wan::BernoulliLoss>(0.05);
    transport.set_link(0, 1, std::move(link));
    std::vector<std::pair<std::int64_t, std::int64_t>> log;
    transport.bind(1, [&](const Message& m) {
      log.emplace_back(m.seq, simulator.now().count_nanos());
    });
    for (int i = 0; i < 500; ++i) {
      transport.send(heartbeat(0, 1, i, simulator.now()));
    }
    simulator.run();
    return log;
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace fdqos::net
