// Wrapper models that impose a FaultSchedule on the nominal WAN stack.
//
// Composition, not modification: FaultyDelay/FaultyLoss wrap any existing
// wan::DelayModel/wan::LossModel (synthetic or trace replay) and
// FaultyTransport wraps any net::Transport, so the chaos layer slots into
// the experiment exactly where the nominal models sit and the rest of the
// system — heartbeater, multiplexer, 30 detectors, QoS trackers — runs
// unmodified. All three wrappers share one immutable FaultSchedule; every
// stochastic fault decision draws from the RNG stream the wrapper is handed
// (the link substream for delay/loss, a dedicated fork for the transport),
// preserving byte-identical reproducibility per seed.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "faultx/fault_schedule.hpp"
#include "net/transport.hpp"
#include "wan/delay_model.hpp"
#include "wan/loss_model.hpp"

namespace fdqos::faultx {

// Delay faults: spikes, ramps, reorder shuffles, clock-jump holds. The
// total is clamped at zero — a message cannot arrive before it is sent,
// however far forward the monitored clock jumped.
class FaultyDelay final : public wan::DelayModel {
 public:
  FaultyDelay(std::unique_ptr<wan::DelayModel> base,
              std::shared_ptr<const FaultSchedule> faults);

  Duration sample(Rng& rng, TimePoint send_time) override;
  const std::string& name() const override { return name_; }
  std::unique_ptr<wan::DelayModel> make_fresh() const override;

 private:
  std::string name_;
  std::unique_ptr<wan::DelayModel> base_;
  std::shared_ptr<const FaultSchedule> faults_;
};

// Loss faults: while a BurstLoss window is active, its own Gilbert–Elliott
// chain (one per scheduled burst, owned here, stepped only inside the
// window) decides drops on top of the base model. `base` may be null (a
// lossless nominal link, e.g. trace replay).
class FaultyLoss final : public wan::LossModel {
 public:
  FaultyLoss(std::unique_ptr<wan::LossModel> base,
             std::shared_ptr<const FaultSchedule> faults);

  bool drop(Rng& rng, TimePoint send_time) override;
  const std::string& name() const override { return name_; }
  std::unique_ptr<wan::LossModel> make_fresh() const override;

 private:
  std::string name_;
  std::unique_ptr<wan::LossModel> base_;
  std::shared_ptr<const FaultSchedule> faults_;
  std::vector<wan::GilbertElliottLoss> burst_chains_;  // index-aligned
};

// Transport faults: partitions and link flaps (drop at send), duplication
// (send twice), and the clock jump's effect on the sender's timestamp.
// Wraps the monitored node's view of the network only; binds pass through.
class FaultyTransport final : public net::Transport {
 public:
  struct Stats {
    std::uint64_t sent = 0;           // messages offered by the layers above
    std::uint64_t fault_dropped = 0;  // eaten by partition/flap windows
    std::uint64_t duplicated = 0;     // extra copies injected
  };

  FaultyTransport(net::Transport& inner,
                  std::shared_ptr<const FaultSchedule> faults, Rng rng);

  void bind(net::NodeId node, DeliverFn deliver) override;
  void send(net::Message msg) override;
  TimePoint now() const override { return inner_.now(); }

  const Stats& stats() const { return stats_; }

 private:
  net::Transport& inner_;
  std::shared_ptr<const FaultSchedule> faults_;
  Rng rng_;
  Stats stats_;
};

}  // namespace fdqos::faultx
