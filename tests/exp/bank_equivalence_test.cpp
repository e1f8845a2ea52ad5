// Bank-vs-legacy equivalence, pinned: the batched DetectorBank engine must
// stay observably identical to the retired one-FreshnessDetector-per-spec
// layout — same suspect-transition streams per (run, detector), same
// pooled QoS metrics (compared through the full rendered report) — on the
// complete 30-detector paper suite, under the nominal link and under fault
// injection, at every jobs value.
//
// The constants below were recorded while both engines still existed and
// agreed on every case: FNV-1a-64 of the report fingerprint and of the
// per-(run, lane) transition streams. The bank now has to reproduce them
// alone. The chaos golden CSVs pin the same property at other scales, and
// tests/fd/freshness_oracle_test.cpp checks the bank's semantics against
// an independent reference detector. A last check runs the paper suite
// with no predictor shared and demands the shared suite's bytes.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "exp/qos_experiment.hpp"
#include "exp/report.hpp"
#include "fd/suite.hpp"

namespace fdqos::exp {
namespace {

struct Event {
  std::size_t detector;
  std::int64_t t_ns;
  bool suspect;

  bool operator==(const Event&) const = default;
};

// Per-run transition streams, captured via the experiment's probe hook.
// Runs execute concurrently, but the probe only races across distinct run
// indices, so a pre-sized per-run vector needs no locking.
struct Capture {
  std::vector<std::vector<Event>> runs;

  explicit Capture(std::size_t n) : runs(n) {}

  auto probe() {
    return [this](std::size_t run, std::size_t detector, TimePoint t,
                  bool suspecting) {
      runs[run].push_back({detector, t.count_nanos(), suspecting});
    };
  }

  // Streams keyed by (run, detector): cross-detector interleaving at equal
  // timestamps is presentation order, per-detector order is semantics.
  std::map<std::pair<std::size_t, std::size_t>, std::vector<Event>> by_lane()
      const {
    std::map<std::pair<std::size_t, std::size_t>, std::vector<Event>> out;
    for (std::size_t run = 0; run < runs.size(); ++run) {
      for (const Event& e : runs[run]) {
        out[{run, e.detector}].push_back(e);
      }
    }
    return out;
  }
};

// 64-bit FNV-1a, fed whole 8-byte little-endian words for integers.
class Fnv1a {
 public:
  void add(std::uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (word >> (8 * i)) & 0xffu;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void add(const std::string& bytes) {
    for (const unsigned char c : bytes) {
      hash_ ^= c;
      hash_ *= 0x100000001b3ULL;
    }
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

std::uint64_t fingerprint_digest(const QosReport& report) {
  Fnv1a h;
  h.add(qos_report_fingerprint(report));
  return h.value();
}

// Digest of the per-(run, lane) streams in (run, lane) order: each lane
// contributes its key, its length and every (t_ns, suspect) event.
std::uint64_t stream_digest(const Capture& capture) {
  Fnv1a h;
  for (const auto& [key, stream] : capture.by_lane()) {
    h.add(key.first);
    h.add(key.second);
    h.add(stream.size());
    for (const Event& e : stream) {
      h.add(static_cast<std::uint64_t>(e.t_ns));
      h.add(e.suspect ? 1u : 0u);
    }
  }
  return h.value();
}

QosExperimentConfig base_config(std::uint64_t seed,
                                const std::string& scenario) {
  QosExperimentConfig config;
  config.runs = 2;
  config.num_cycles = 300;
  config.seed = seed;
  config.mttc = Duration::seconds(90);
  config.ttr = Duration::seconds(20);
  config.warmup = Duration::seconds(60);
  config.chaos_scenario = scenario;
  return config;
}

struct Pinned {
  std::uint64_t fingerprint;
  std::uint64_t streams;
};

// Recorded from both engines, which agreed on every case.
const std::map<std::pair<std::uint64_t, std::string>, Pinned>& pinned() {
  static const std::map<std::pair<std::uint64_t, std::string>, Pinned>
      kPinned = {
          {{7, ""}, {0xc92b8ec691d9c48dULL, 0x66924ea776477cceULL}},
          {{7, "spike_storm"}, {0xcf100f35398c4f27ULL, 0x7304692b3c2cc67dULL}},
          {{7, "burst_loss"}, {0x1f57059e6fe1380fULL, 0xa3fd55d6558eef92ULL}},
          {{11, ""}, {0x4043257be6fe8b26ULL, 0x92232eb039b0a90eULL}},
          {{11, "spike_storm"}, {0x3cf3c4d8a205f2aeULL, 0x1c08fedcfec8f18eULL}},
          {{11, "burst_loss"}, {0xda9bbafceecccea8ULL, 0x3b48900f03343e71ULL}},
          {{13, ""}, {0x82ab715f82c78993ULL, 0xc2303a8770ad679aULL}},
          {{13, "spike_storm"}, {0x3407ec72c83e109eULL, 0xe25a3bb7e264ddcfULL}},
          {{13, "burst_loss"}, {0xa6f6a1c39ae5cf73ULL, 0x7368536c283d9a42ULL}},
      };
  return kPinned;
}

class BankEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::string>> {
};

TEST_P(BankEquivalenceTest, BankAndLegacyAreObservablyIdentical) {
  const auto [seed, scenario] = GetParam();
  const Pinned& expected = pinned().at({seed, scenario});

  QosExperimentConfig config = base_config(seed, scenario);
  Capture bank_capture(config.runs);
  config.jobs = 1;
  config.transition_probe = bank_capture.probe();
  const QosReport bank_report = run_qos_experiment(config);

  // Pooled QoS metrics, via the full rendered report (all five figures
  // plus crash/heartbeat tallies), and the per-(run, detector) suspect
  // transition streams to the nanosecond.
  EXPECT_EQ(fingerprint_digest(bank_report), expected.fingerprint);
  EXPECT_EQ(stream_digest(bank_capture), expected.streams);

  // The bank engine must also stay jobs-invariant.
  Capture bank8_capture(config.runs);
  config.jobs = 8;
  config.transition_probe = bank8_capture.probe();
  const QosReport bank8_report = run_qos_experiment(config);
  EXPECT_EQ(qos_report_fingerprint(bank_report),
            qos_report_fingerprint(bank8_report));
  EXPECT_EQ(bank_capture.by_lane(), bank8_capture.by_lane());

  // And it must actually have shared: 5 predictor groups serving 30 lanes.
  EXPECT_EQ(bank_report.bank.predictor_updates * 6,
            bank_report.bank.lane_updates);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsTimesScenarios, BankEquivalenceTest,
    ::testing::Combine(::testing::Values(std::uint64_t{7}, std::uint64_t{11},
                                         std::uint64_t{13}),
                       ::testing::Values(std::string{},  // nominal link
                                         std::string{"spike_storm"},
                                         std::string{"burst_loss"})),
    [](const auto& info) {
      const std::string& scenario = std::get<1>(info.param);
      return "seed" + std::to_string(std::get<0>(info.param)) + "_" +
             (scenario.empty() ? "nominal" : scenario);
    });

// The paper suite with every predictor_key cleared: no predictor is shared,
// so every lane is its own group — the layout the retired per-spec engine
// had. Unshared predictors must behave exactly like shared ones, at every
// jobs value.
TEST(UnsharedPredictorsTest, PaperSuiteMatchesSharedSuite) {
  QosExperimentConfig shared;
  shared.runs = 2;
  shared.num_cycles = 300;
  shared.seed = 11;
  shared.mttc = Duration::seconds(120);
  shared.ttr = Duration::seconds(20);
  shared.warmup = Duration::seconds(30);
  shared.jobs = 1;
  const std::string reference =
      qos_report_fingerprint(run_qos_experiment(shared));

  QosExperimentConfig unshared = shared;
  unshared.include_paper_suite = false;
  unshared.extra_specs = fd::make_paper_suite(unshared.params);
  for (auto& spec : unshared.extra_specs) spec.predictor_key.clear();
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{8}}) {
    unshared.jobs = jobs;
    const QosReport report = run_qos_experiment(unshared);
    EXPECT_EQ(qos_report_fingerprint(report), reference) << "jobs " << jobs;
    // One group per lane: nothing was shared.
    EXPECT_EQ(report.bank.predictor_updates, report.bank.lane_updates);
  }
}

}  // namespace
}  // namespace fdqos::exp
