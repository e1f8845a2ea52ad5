#include "faultx/fault_models.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace fdqos::faultx {

FaultyDelay::FaultyDelay(std::unique_ptr<wan::DelayModel> base,
                         std::shared_ptr<const FaultSchedule> faults)
    : base_(std::move(base)), faults_(std::move(faults)) {
  FDQOS_REQUIRE(base_ != nullptr);
  FDQOS_REQUIRE(faults_ != nullptr);
  name_ = "faulty(" + base_->name() + ")";
}

Duration FaultyDelay::sample(Rng& rng, TimePoint send_time) {
  Duration d = base_->sample(rng, send_time);
  d += faults_->deterministic_extra_delay(send_time);
  d += faults_->reorder_extra(rng, send_time);
  d += faults_->clock_hold(send_time);
  return std::max(d, Duration::zero());
}

std::unique_ptr<wan::DelayModel> FaultyDelay::make_fresh() const {
  return std::make_unique<FaultyDelay>(base_->make_fresh(), faults_);
}

FaultyLoss::FaultyLoss(std::unique_ptr<wan::LossModel> base,
                       std::shared_ptr<const FaultSchedule> faults)
    : base_(std::move(base)), faults_(std::move(faults)) {
  FDQOS_REQUIRE(faults_ != nullptr);
  name_ = "faulty(" + (base_ ? base_->name() : std::string("lossless")) + ")";
  burst_chains_.reserve(faults_->bursts().size());
  for (const auto& burst : faults_->bursts()) {
    burst_chains_.emplace_back(burst.chain);
  }
}

bool FaultyLoss::drop(Rng& rng, TimePoint send_time) {
  // Evaluate the base model first and unconditionally: its chain state (and
  // RNG consumption) must evolve identically with or without active faults.
  bool dropped = base_ != nullptr && base_->drop(rng, send_time);
  const auto& bursts = faults_->bursts();
  for (std::size_t i = 0; i < bursts.size(); ++i) {
    const auto& b = bursts[i];
    if (send_time < b.start || send_time >= b.start + b.duration) continue;
    // Step this burst's chain only inside its window; |= keeps evaluation
    // unconditional so every active chain advances per message.
    dropped |= burst_chains_[i].drop(rng, send_time);
  }
  return dropped;
}

std::unique_ptr<wan::LossModel> FaultyLoss::make_fresh() const {
  return std::make_unique<FaultyLoss>(
      base_ ? base_->make_fresh() : nullptr, faults_);
}

FaultyTransport::FaultyTransport(net::Transport& inner,
                                 std::shared_ptr<const FaultSchedule> faults,
                                 Rng rng)
    : inner_(inner), faults_(std::move(faults)), rng_(rng) {
  FDQOS_REQUIRE(faults_ != nullptr);
}

void FaultyTransport::bind(net::NodeId node, DeliverFn deliver) {
  inner_.bind(node, std::move(deliver));
}

void FaultyTransport::send(net::Message msg) {
  ++stats_.sent;
  const TimePoint t = inner_.now();
  if (faults_->link_down(t)) {
    ++stats_.fault_dropped;
    return;
  }
  // The sender stamps send_time with its own (possibly jumped) clock.
  msg.send_time = faults_->clock().to_local(msg.send_time);
  const double dup_prob = faults_->duplicate_prob(t);
  const bool duplicate = dup_prob > 0.0 && rng_.bernoulli(dup_prob);
  if (duplicate) {
    ++stats_.duplicated;
    inner_.send(msg);  // each copy draws its own delay/loss downstream
  }
  inner_.send(std::move(msg));
}

}  // namespace fdqos::faultx
