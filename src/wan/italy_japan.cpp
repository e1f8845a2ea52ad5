#include "wan/italy_japan.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"
#include "wan/regime.hpp"

namespace fdqos::wan {
namespace {

// The composite Italy→Japan delay process (see header for the layer-by-
// layer rationale). Regime offsets are produced by reusing the generic
// RegimeSwitchingDelay over ConstantDelay "offset" regimes.
class ItalyJapanDelay final : public DelayModel {
 public:
  explicit ItalyJapanDelay(ItalyJapanParams params)
      : params_(params), offsets_(make_offset_chain(params)) {
    name_ = "italy-japan(ou+regimes+spikes)";
  }

  Duration sample(Rng& rng, TimePoint send_time) override {
    const Duration offset = offsets_->sample(rng, send_time);

    // Evolve the OU level to `send_time`.
    const double sd = params_.level_stddev_ms;
    if (!level_initialized_) {
      level_ = rng.normal(0.0, sd);
      level_initialized_ = true;
    } else {
      const double dt =
          (send_time - last_time_).to_seconds_double();
      const double a =
          params_.level_tau_s > 0.0 ? std::exp(-dt / params_.level_tau_s) : 0.0;
      level_ = a * level_ + rng.normal(0.0, sd * std::sqrt(1.0 - a * a));
    }
    last_time_ = send_time;

    const double jitter_ms =
        rng.lognormal(params_.jitter_mu, params_.jitter_sigma);
    double body_ms =
        offset.to_millis_double() + level_ + jitter_ms;
    if (body_ms < 0.0) body_ms = 0.0;

    if (params_.spike_prob > 0.0 && rng.bernoulli(params_.spike_prob)) {
      body_ms += rng.pareto(params_.spike_scale.to_millis_double(),
                            params_.spike_shape);
    }

    const Duration total =
        params_.floor + Duration::from_millis_double(body_ms);
    return std::min(total, params_.spike_cap);
  }

  const std::string& name() const override { return name_; }

  std::unique_ptr<DelayModel> make_fresh() const override {
    return std::make_unique<ItalyJapanDelay>(params_);
  }

 private:
  static std::unique_ptr<RegimeSwitchingDelay> make_offset_chain(
      const ItalyJapanParams& params) {
    std::vector<RegimeSwitchingDelay::Regime> regimes;
    std::vector<std::vector<double>> transition;
    const auto quiet = Duration::from_millis_double(params.quiet_offset_ms);
    const auto busy = Duration::from_millis_double(params.busy_offset_ms);
    if (params.startup_dwell > Duration::zero()) {
      // 0 = startup -> quiet (one way), 1 = quiet <-> 2 = busy.
      regimes.push_back(
          {std::make_unique<ConstantDelay>(
               Duration::from_millis_double(params.startup_offset_ms)),
           params.startup_dwell});
      regimes.push_back(
          {std::make_unique<ConstantDelay>(quiet), params.quiet_dwell});
      regimes.push_back(
          {std::make_unique<ConstantDelay>(busy), params.busy_dwell});
      transition = {{0.0, 1.0, 0.0}, {0.0, 0.0, 1.0}, {0.0, 1.0, 0.0}};
    } else {
      regimes.push_back(
          {std::make_unique<ConstantDelay>(quiet), params.quiet_dwell});
      regimes.push_back(
          {std::make_unique<ConstantDelay>(busy), params.busy_dwell});
      transition = {{0.0, 1.0}, {1.0, 0.0}};
    }
    return std::make_unique<RegimeSwitchingDelay>(std::move(regimes),
                                                  std::move(transition), 0);
  }

  std::string name_;
  ItalyJapanParams params_;
  std::unique_ptr<RegimeSwitchingDelay> offsets_;
  double level_ = 0.0;
  bool level_initialized_ = false;
  TimePoint last_time_ = TimePoint::origin();
};

}  // namespace

std::unique_ptr<DelayModel> make_italy_japan_delay(
    const ItalyJapanParams& params) {
  return std::make_unique<ItalyJapanDelay>(params);
}

std::unique_ptr<LossModel> make_italy_japan_loss(
    const ItalyJapanParams& params) {
  return std::make_unique<GilbertElliottLoss>(params.loss);
}

LinkCharacteristics measure_link(DelayModel& delay, LossModel& loss,
                                 std::size_t n, Duration period, Rng& rng) {
  FDQOS_REQUIRE(n > 0);
  LinkCharacteristics out;
  stats::RunningStats delays;
  std::size_t dropped = 0;
  TimePoint t = TimePoint::origin();
  for (std::size_t i = 0; i < n; ++i, t += period) {
    if (loss.drop(rng, t)) {
      ++dropped;
      continue;
    }
    delays.add(delay.sample(rng, t).to_millis_double());
  }
  out.delay_ms = delays.summary();
  out.loss_probability = static_cast<double>(dropped) / static_cast<double>(n);
  out.messages = n;
  return out;
}

}  // namespace fdqos::wan
