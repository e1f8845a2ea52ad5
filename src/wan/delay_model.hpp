// One-way message-delay processes (the WAN substitute, DESIGN.md §2).
//
// The paper measured a real Italy→Japan path; we replace it with stochastic
// delay processes whose parameters are calibrated to the paper's Table 4.
// A DelayModel is sampled once per message send; models may be stateful
// (regimes, spikes with decay), so sampling passes the current time and the
// model owns any evolution.
#pragma once

#include <memory>
#include <string>

#include "common/rng.hpp"
#include "common/time.hpp"

namespace fdqos::wan {

class DelayModel {
 public:
  virtual ~DelayModel() = default;

  // Delay for a message sent at `send_time`. Must be non-negative.
  virtual Duration sample(Rng& rng, TimePoint send_time) = 0;

  virtual const std::string& name() const = 0;

  // Fresh instance with identical parameters and reset state.
  virtual std::unique_ptr<DelayModel> make_fresh() const = 0;
};

// Fixed delay — degenerate baseline and a useful test instrument.
class ConstantDelay final : public DelayModel {
 public:
  explicit ConstantDelay(Duration d);
  Duration sample(Rng& rng, TimePoint send_time) override;
  const std::string& name() const override { return name_; }
  std::unique_ptr<DelayModel> make_fresh() const override;

 private:
  std::string name_;
  Duration delay_;
};

// Uniform in [lo, hi).
class UniformDelay final : public DelayModel {
 public:
  UniformDelay(Duration lo, Duration hi);
  Duration sample(Rng& rng, TimePoint send_time) override;
  const std::string& name() const override { return name_; }
  std::unique_ptr<DelayModel> make_fresh() const override;

 private:
  std::string name_;
  Duration lo_;
  Duration hi_;
};

// shift + LogNormal(mu, sigma): the canonical WAN one-way-delay body — a
// hard propagation floor plus a right-skewed queueing component.
// mu/sigma parameterize the underlying normal in log-milliseconds.
class ShiftedLognormalDelay final : public DelayModel {
 public:
  ShiftedLognormalDelay(Duration shift, double mu_log_ms, double sigma_log);
  Duration sample(Rng& rng, TimePoint send_time) override;
  const std::string& name() const override { return name_; }
  std::unique_ptr<DelayModel> make_fresh() const override;

  Duration shift() const { return shift_; }

 private:
  std::string name_;
  Duration shift_;
  double mu_;
  double sigma_;
};

// shift + Gamma(shape, scale ms): alternative body with lighter tail.
class ShiftedGammaDelay final : public DelayModel {
 public:
  ShiftedGammaDelay(Duration shift, double shape, double scale_ms);
  Duration sample(Rng& rng, TimePoint send_time) override;
  const std::string& name() const override { return name_; }
  std::unique_ptr<DelayModel> make_fresh() const override;

 private:
  std::string name_;
  Duration shift_;
  double shape_;
  double scale_ms_;
};

// Mixture: with probability `spike_prob` adds a Pareto spike on top of the
// base model — models transient cross-traffic bursts / route flaps that
// produce the paper's 340 ms outliers over a ~200 ms floor.
class SpikeMixtureDelay final : public DelayModel {
 public:
  SpikeMixtureDelay(std::unique_ptr<DelayModel> base, double spike_prob,
                    Duration spike_scale, double spike_shape,
                    Duration spike_cap);
  Duration sample(Rng& rng, TimePoint send_time) override;
  const std::string& name() const override { return name_; }
  std::unique_ptr<DelayModel> make_fresh() const override;

 private:
  std::string name_;
  std::unique_ptr<DelayModel> base_;
  double spike_prob_;
  Duration spike_scale_;
  double spike_shape_;
  Duration spike_cap_;
};

}  // namespace fdqos::wan
