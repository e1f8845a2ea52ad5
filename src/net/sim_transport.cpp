#include "net/sim_transport.hpp"

#include "common/assert.hpp"
#include "common/log.hpp"

namespace fdqos::net {

SimTransport::SimTransport(sim::Simulator& simulator, Rng rng)
    : simulator_(simulator), rng_(rng) {}

void SimTransport::set_link(NodeId from, NodeId to, LinkConfig config) {
  Link& link = link_for(from, to);
  link.config = std::move(config);
}

SimTransport::Link& SimTransport::link_for(NodeId from, NodeId to) {
  auto key = std::make_pair(from, to);
  auto it = links_.find(key);
  if (it == links_.end()) {
    Link link;
    char name[48];
    std::snprintf(name, sizeof name, "link/%d/%d", from, to);
    link.rng = rng_.fork(name);
    it = links_.emplace(key, std::move(link)).first;
  }
  return it->second;
}

void SimTransport::bind(NodeId node, DeliverFn deliver) {
  receivers_[node] = std::move(deliver);
}

void SimTransport::set_link_enabled(NodeId from, NodeId to, bool enabled) {
  link_for(from, to).enabled = enabled;
}

void SimTransport::set_partitioned(NodeId a, NodeId b, bool partitioned) {
  set_link_enabled(a, b, !partitioned);
  set_link_enabled(b, a, !partitioned);
}

void SimTransport::send(Message msg) {
  Link& link = link_for(msg.from, msg.to);
  ++link.stats.sent;

  if (!link.enabled) {
    ++link.stats.dropped;
    ++link.stats.partition_dropped;
    return;
  }
  if (link.config.loss && link.config.loss->drop(link.rng, simulator_.now())) {
    ++link.stats.dropped;
    return;
  }

  const Duration delay =
      link.config.delay ? link.config.delay->sample(link.rng, simulator_.now())
                        : Duration::zero();
  FDQOS_ASSERT(delay >= Duration::zero());

  std::uint32_t index;
  if (free_in_flight_.empty()) {
    index = static_cast<std::uint32_t>(in_flight_.size());
    in_flight_.push_back(InFlight{std::move(msg), &link});
  } else {
    index = free_in_flight_.back();
    free_in_flight_.pop_back();
    in_flight_[index] = InFlight{std::move(msg), &link};
  }
  simulator_.schedule_after(delay, [this, index] { deliver(index); });
}

void SimTransport::deliver(std::uint32_t index) {
  // Move the message out before the receiver runs: a send() from inside
  // the callback may grow the pool and invalidate references into it.
  const Message msg = std::move(in_flight_[index].msg);
  Link* link = in_flight_[index].link;
  free_in_flight_.push_back(index);
  auto it = receivers_.find(msg.to);
  if (it == receivers_.end() || !it->second) {
    FDQOS_LOG_DEBUG("dropping message to unbound node %d", msg.to);
    return;
  }
  ++link->stats.delivered;
  it->second(msg);
}

const SimTransport::LinkStats& SimTransport::link_stats(NodeId from,
                                                        NodeId to) const {
  static const LinkStats kEmpty{};
  auto it = links_.find(std::make_pair(from, to));
  return it == links_.end() ? kEmpty : it->second.stats;
}

}  // namespace fdqos::net
