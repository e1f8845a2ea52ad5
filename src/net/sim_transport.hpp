// Simulated fair-lossy network.
//
// Each directed link owns a delay model, a loss model, and a private RNG
// substream. A sent message is either dropped (fair-lossy) or scheduled for
// delivery after a sampled delay; independent per-message delays reorder
// messages naturally, exactly the behaviour the paper's obs list handles
// via its sq() mapping. Messages are never duplicated or corrupted.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "net/transport.hpp"
#include "sim/simulator.hpp"
#include "wan/delay_model.hpp"
#include "wan/loss_model.hpp"

namespace fdqos::net {

class SimTransport final : public Transport {
 public:
  struct LinkConfig {
    std::unique_ptr<wan::DelayModel> delay;
    std::unique_ptr<wan::LossModel> loss;  // nullptr = lossless
  };

  struct LinkStats {
    std::uint64_t sent = 0;
    std::uint64_t dropped = 0;    // all drops: loss model + disabled link
    std::uint64_t delivered = 0;
    // Subset of `dropped` eaten while the link was disabled — separates
    // injected partitions from stochastic loss in experiment accounting.
    std::uint64_t partition_dropped = 0;
  };

  SimTransport(sim::Simulator& simulator, Rng rng);

  // Configure the directed link from -> to. Unconfigured links deliver
  // instantly and losslessly (useful in unit tests).
  void set_link(NodeId from, NodeId to, LinkConfig config);

  // Partition injection: while disabled, the directed link drops every
  // message (counted in stats). A partition is indistinguishable from a
  // remote crash at the failure-detector — the reason detectors of this
  // kind are inherently *unreliable* (Chandra–Toueg).
  void set_link_enabled(NodeId from, NodeId to, bool enabled);
  // Symmetric convenience: cuts/restores both directions between a and b.
  void set_partitioned(NodeId a, NodeId b, bool partitioned);

  void bind(NodeId node, DeliverFn deliver) override;
  void send(Message msg) override;
  TimePoint now() const override { return simulator_.now(); }

  const LinkStats& link_stats(NodeId from, NodeId to) const;

 private:
  struct Link {
    LinkConfig config;
    Rng rng{0};
    LinkStats stats;
    bool enabled = true;
  };
  // A message between send and delivery. In-flight messages are parked in
  // a free-listed pool, so the delivery event captures only [this, index]
  // and fits the event queue's in-place callback storage.
  struct InFlight {
    Message msg;
    Link* link = nullptr;  // std::map nodes are address-stable
  };
  Link& link_for(NodeId from, NodeId to);
  void deliver(std::uint32_t index);

  sim::Simulator& simulator_;
  Rng rng_;
  std::map<std::pair<NodeId, NodeId>, Link> links_;
  std::map<NodeId, DeliverFn> receivers_;
  std::vector<InFlight> in_flight_;
  std::vector<std::uint32_t> free_in_flight_;
};

}  // namespace fdqos::net
