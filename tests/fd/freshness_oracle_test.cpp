// Freshness-point semantics against an independent reference.
//
// The legacy engine is itself a 1-wide DetectorBank, so bank-vs-legacy
// suites cannot catch a fault in the shared timer machinery. This suite
// compares the bank with a test-local naive detector that implements the
// paper's rule the pre-coalescing way: one simulator event per (lane,
// cycle) at τ_i + 1 ns, with a private predictor and margin per lane.
// Both engines see the same scripted arrivals in one simulation, solo and
// hosted (FleetBank members); per-lane transition streams must match to
// the nanosecond, and lane_freshness_index() must match the reference
// whenever the run is paused.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "fd/detector_bank.hpp"
#include "fd/fleet_bank.hpp"
#include "fd/suite.hpp"
#include "forecast/basic_predictors.hpp"
#include "sim/simulator.hpp"

namespace fdqos::fd {
namespace {

const Duration kEta = Duration::seconds(1);
const Duration kColdStart = Duration::seconds(1);

struct Transition {
  std::int64_t t_ns;
  bool suspect;
  bool operator==(const Transition&) const = default;
};

struct Arrival {
  std::int64_t seq;
  TimePoint at;
};

// The pre-coalescing algorithm: every lane schedules its own expiry event
// for every cycle, and every expiry raises the lane's freshness index.
class NaiveDetector {
 public:
  NaiveDetector(sim::Simulator& simulator, const std::vector<FdSpec>& specs)
      : simulator_(simulator) {
    for (const auto& spec : specs) {
      lanes_.push_back(Lane{spec.make_predictor(), spec.make_margin(), 0,
                            false, {}});
    }
  }

  void start() { begin_cycle(0); }

  void heartbeat(std::int64_t seq) {
    const TimePoint sigma = TimePoint::origin() + kEta * seq;
    const double obs_ms =
        std::max(0.0, (simulator_.now() - sigma).to_millis_double());
    for (auto& lane : lanes_) {
      lane.margin->observe(obs_ms, lane.predictor->predict());
    }
    for (auto& lane : lanes_) lane.predictor->observe(obs_ms);
    ++observations_;
    max_seq_ = std::max(max_seq_, seq);
    for (auto& lane : lanes_) update(lane);
  }

  std::int64_t freshness_index(std::size_t lane) const {
    return lanes_[lane].freshness_index;
  }
  const std::vector<Transition>& transitions(std::size_t lane) const {
    return lanes_[lane].transitions;
  }

 private:
  struct Lane {
    std::unique_ptr<forecast::Predictor> predictor;
    std::unique_ptr<SafetyMargin> margin;
    std::int64_t freshness_index;
    bool suspecting;
    std::vector<Transition> transitions;
  };

  void begin_cycle(std::int64_t k) {
    const std::int64_t next = k + 1;
    const TimePoint sigma_next = TimePoint::origin() + kEta * next;
    for (std::size_t l = 0; l < lanes_.size(); ++l) {
      double delta = kColdStart.to_millis_double();
      if (observations_ > 0) {
        delta = lanes_[l].predictor->predict() + lanes_[l].margin->margin();
        if (delta < 0.0) delta = 0.0;
      }
      simulator_.schedule_at(
          sigma_next + Duration::from_millis_double(delta) +
              Duration::nanos(1),
          [this, l, next] {
            Lane& lane = lanes_[l];
            lane.freshness_index = std::max(lane.freshness_index, next);
            update(lane);
          });
    }
    simulator_.schedule_at(sigma_next, [this, next] { begin_cycle(next); });
  }

  void update(Lane& lane) {
    const bool suspect = max_seq_ < lane.freshness_index;
    if (suspect == lane.suspecting) return;
    lane.suspecting = suspect;
    lane.transitions.push_back(
        {(simulator_.now() - TimePoint::origin()).count_nanos(), suspect});
  }

  sim::Simulator& simulator_;
  std::vector<Lane> lanes_;
  std::int64_t max_seq_ = 0;
  std::size_t observations_ = 0;
};

void add_lanes(DetectorBank& bank, const std::vector<FdSpec>& specs) {
  std::size_t group = 0;
  std::string key;
  for (const auto& spec : specs) {
    if (spec.predictor_key.empty() || spec.predictor_key != key) {
      group = bank.add_group(spec.make_predictor());
      key = spec.predictor_key;
    }
    bank.add_lane(spec.name, group, spec.make_margin());
  }
}

// How deliveries enter the simulator. kUpfront schedules every delivery
// before the run starts, so at a shared instant a delivery precedes any
// expiry. kAtSend schedules each delivery when its heartbeat is sent at
// σ_seq, as a transport does, so an expiry armed in an earlier cycle
// precedes it.
enum class Delivery { kUpfront, kAtSend };

void schedule_arrivals(sim::Simulator& simulator,
                       const std::vector<Arrival>& arrivals, Delivery mode,
                       const std::function<void(std::int64_t)>& deliver) {
  for (const Arrival& a : arrivals) {
    if (mode == Delivery::kUpfront) {
      simulator.schedule_at(a.at, [deliver, seq = a.seq] { deliver(seq); });
      continue;
    }
    const TimePoint send =
        std::min(a.at, TimePoint::origin() + kEta * a.seq);
    simulator.schedule_at(send, [&simulator, deliver, a] {
      simulator.schedule_at(a.at, [deliver, seq = a.seq] { deliver(seq); });
    });
  }
}

// Runs one bank per stream (solo, or all hosted by one FleetBank) next to
// one naive detector per stream, and compares them.
void expect_matches_oracle(const std::vector<std::vector<Arrival>>& streams,
                           const std::vector<FdSpec>& specs, bool hosted,
                           Delivery mode, Duration horizon) {
  sim::Simulator simulator;
  std::vector<std::unique_ptr<NaiveDetector>> oracles;
  std::vector<std::unique_ptr<DetectorBank>> solo;
  std::unique_ptr<FleetBank> fleet;
  std::vector<DetectorBank*> banks;
  if (hosted) {
    FleetBank::Config config;
    config.eta = kEta;
    config.cold_start_timeout = kColdStart;
    fleet = std::make_unique<FleetBank>(simulator, config);
  }
  using Streams = std::vector<std::vector<std::vector<Transition>>>;
  Streams bank_transitions(streams.size(),
                           std::vector<std::vector<Transition>>(specs.size()));
  for (std::size_t e = 0; e < streams.size(); ++e) {
    DetectorBank* bank = nullptr;
    if (hosted) {
      bank = &fleet->add_member(static_cast<net::NodeId>(e));
    } else {
      DetectorBank::Config config;
      config.eta = kEta;
      config.cold_start_timeout = kColdStart;
      solo.push_back(std::make_unique<DetectorBank>(simulator, config));
      bank = solo.back().get();
    }
    add_lanes(*bank, specs);
    bank->set_observer([&bank_transitions, e](std::size_t lane, TimePoint t,
                                              bool suspect) {
      bank_transitions[e][lane].push_back(
          {(t - TimePoint::origin()).count_nanos(), suspect});
    });
    banks.push_back(bank);
    oracles.push_back(std::make_unique<NaiveDetector>(simulator, specs));
  }
  for (std::size_t e = 0; e < streams.size(); ++e) {
    schedule_arrivals(simulator, streams[e], mode,
                      [&, e](std::int64_t seq) {
                        if (hosted) {
                          fleet->ingest(e, seq);
                        } else {
                          banks[e]->observe_heartbeat(seq);
                        }
                        oracles[e]->heartbeat(seq);
                      });
  }
  for (std::size_t e = 0; e < streams.size(); ++e) {
    if (!hosted) banks[e]->start();
    oracles[e]->start();
  }
  if (hosted) fleet->start();

  // Pause at instants that fall between, on and after expiries.
  const Duration step = Duration::millis(137);
  for (TimePoint t = TimePoint::origin() + step;
       t <= TimePoint::origin() + horizon; t = t + step) {
    simulator.run_until(t);
    for (std::size_t e = 0; e < streams.size(); ++e) {
      for (std::size_t lane = 0; lane < specs.size(); ++lane) {
        ASSERT_EQ(banks[e]->lane_freshness_index(lane),
                  oracles[e]->freshness_index(lane))
            << "endpoint " << e << " lane " << specs[lane].name << " at "
            << t.to_seconds_double() << " s";
      }
    }
  }

  std::size_t transitions = 0;
  for (std::size_t e = 0; e < streams.size(); ++e) {
    for (std::size_t lane = 0; lane < specs.size(); ++lane) {
      EXPECT_EQ(bank_transitions[e][lane], oracles[e]->transitions(lane))
          << "endpoint " << e << " lane " << specs[lane].name;
      transitions += bank_transitions[e][lane].size();
    }
  }
  EXPECT_GT(transitions, 0u);
}

// A WAN-like stream: lognormal jitter over a base delay, loss, delay
// spikes long enough to reorder heartbeats (and to make a later cycle's
// τ undercut an earlier one's), duplicates, and a crash window.
std::vector<Arrival> wan_stream(std::uint64_t seed, std::int64_t cycles) {
  Rng rng(seed);
  std::vector<Arrival> out;
  for (std::int64_t seq = 1; seq <= cycles; ++seq) {
    if (seq > cycles / 2 && seq <= cycles / 2 + 25) continue;  // crashed
    if (rng.bernoulli(0.05)) continue;                         // lost
    double delay_ms = 150.0 + rng.lognormal(3.0, 0.9);
    if (rng.bernoulli(0.04)) delay_ms += rng.uniform(1500.0, 6000.0);
    const TimePoint at = TimePoint::origin() + kEta * seq +
                         Duration::from_millis_double(delay_ms);
    out.push_back({seq, at});
    if (rng.bernoulli(0.03)) {
      out.push_back({seq, at + Duration::from_millis_double(
                                   rng.uniform(1.0, 2500.0))});
    }
  }
  return out;
}

std::vector<FdSpec> paper_suite_without_arima() {
  // ARIMA's first refit needs 64 observations and changes nothing about
  // the timer machinery; the four cheap predictors keep the suite fast.
  std::vector<FdSpec> specs;
  for (auto& spec : make_paper_suite()) {
    if (spec.predictor_label != "Arima") specs.push_back(std::move(spec));
  }
  return specs;
}

TEST(FreshnessOracleTest, SoloBankMatchesOnLossyReorderedStream) {
  expect_matches_oracle({wan_stream(1, 300)}, make_paper_suite(),
                        /*hosted=*/false, Delivery::kUpfront,
                        Duration::seconds(320));
}

TEST(FreshnessOracleTest, HostedMembersMatchOnLossyReorderedStreams) {
  expect_matches_oracle({wan_stream(2, 200), wan_stream(3, 200),
                         wan_stream(4, 200)},
                        paper_suite_without_arima(), /*hosted=*/true,
                        Delivery::kUpfront, Duration::seconds(220));
}

TEST(FreshnessOracleTest, TransportOrderedDeliveriesMatch) {
  for (const bool hosted : {false, true}) {
    SCOPED_TRACE(hosted ? "hosted" : "solo");
    expect_matches_oracle({wan_stream(5, 200)}, paper_suite_without_arima(),
                          hosted, Delivery::kAtSend, Duration::seconds(220));
  }
}

TEST(FreshnessOracleTest, SeqJumpingAheadLeavesRowsDeadAtBirth) {
  // Heartbeat 20 arrives early carrying seq 80: rows 21..80 are born
  // dead (no lane may suspect until τ_81), and the freshness index must
  // still advance through them as their dues pass.
  std::vector<Arrival> stream;
  for (std::int64_t seq = 1; seq <= 120; ++seq) {
    if (seq > 20 && seq <= 100) continue;
    stream.push_back({seq, TimePoint::origin() + kEta * seq +
                               Duration::millis(120 + seq % 7)});
  }
  stream.push_back({80, TimePoint::origin() + kEta * 20 + Duration::millis(400)});
  std::sort(stream.begin(), stream.end(),
            [](const Arrival& a, const Arrival& b) { return a.at < b.at; });
  for (const bool hosted : {false, true}) {
    SCOPED_TRACE(hosted ? "hosted" : "solo");
    expect_matches_oracle({stream}, paper_suite_without_arima(), hosted,
                          Delivery::kUpfront, Duration::seconds(130));
  }
}

// δ fixed at exactly 200 ms: a fixed forecast and a zero margin.
class FixedPredictor final : public forecast::Predictor {
 public:
  void observe(double) override { ++n_; }
  double predict() const override { return 200.0; }
  std::size_t observation_count() const override { return n_; }
  const std::string& name() const override { return name_; }
  std::unique_ptr<Predictor> make_fresh() const override {
    return std::make_unique<FixedPredictor>();
  }

 private:
  std::size_t n_ = 0;
  std::string name_ = "FIXED200";
};

TEST(FreshnessOracleTest, ArrivalsExactlyAtTauAndOneTickLater) {
  FdSpec fixed;
  fixed.name = "FIXED200+0";
  fixed.predictor_key = "fixed200";
  fixed.make_predictor = [] { return std::make_unique<FixedPredictor>(); };
  fixed.make_margin = [] { return std::make_unique<ConstantSafetyMargin>(0.0); };
  FdSpec last = fixed;
  last.name = "LAST+CI_low";
  last.predictor_key = "last";
  last.make_predictor = [] {
    return std::make_unique<forecast::LastPredictor>();
  };
  last.make_margin = [] { return std::make_unique<CiSafetyMargin>(1.0); };
  const std::vector<FdSpec> specs = {fixed, last, fixed};

  // Heartbeats land at τ_i = σ_i + 200 ms (fresh: the check runs at
  // τ_i + 1 ns) or at τ_i + 1 ns (on the check itself), alternating in
  // runs so both trust and suspect transitions happen on the tie.
  std::vector<Arrival> stream;
  for (std::int64_t seq = 1; seq <= 60; ++seq) {
    const Duration late = (seq / 5) % 2 == 0 ? Duration::zero()
                                             : Duration::nanos(1);
    stream.push_back({seq, TimePoint::origin() + kEta * seq +
                               Duration::millis(200) + late});
  }
  for (const Delivery mode : {Delivery::kUpfront, Delivery::kAtSend}) {
    for (const bool hosted : {false, true}) {
      SCOPED_TRACE(std::string(hosted ? "hosted" : "solo") +
                   (mode == Delivery::kUpfront ? " upfront" : " at-send"));
      expect_matches_oracle({stream}, specs, hosted, mode,
                            Duration::seconds(65));
    }
  }
}

}  // namespace
}  // namespace fdqos::fd
