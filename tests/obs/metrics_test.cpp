#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "exp/qos_experiment.hpp"
#include "obs/instruments.hpp"

namespace fdqos::obs {
namespace {

TEST(CounterTest, IncrementsMonotonically) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(GaugeTest, SetAndAdd) {
  Gauge g;
  g.set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.add(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), 1.5);
}

TEST(HistogramTest, BucketBoundariesAreLeInclusive) {
  Histogram h;
  // Exactly on a bound lands in that bound's bucket (Prometheus le).
  h.observe(1.0);    // bucket 0 (le 1)
  h.observe(2.0);    // bucket 1 (le 2)
  h.observe(2.001);  // bucket 2 (le 5)
  h.observe(5e6);    // last finite bucket
  h.observe(5e6 + 1);  // +Inf bucket
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(2), 1u);
  EXPECT_EQ(h.bucket_count(Histogram::kBucketCount - 1), 1u);
  EXPECT_EQ(h.bucket_count(Histogram::kBucketCount), 1u);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_NEAR(h.sum(), 1.0 + 2.0 + 2.001 + 5e6 + 5e6 + 1, 1e-6);
}

TEST(HistogramTest, BoundsAreStrictlyAscending) {
  const auto& bounds = Histogram::bucket_bounds();
  for (std::size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_LT(bounds[i - 1], bounds[i]);
  }
}

TEST(HistogramTest, SecondsLadderIsStrictlyAscending) {
  const auto& bounds = Histogram::seconds_bounds();
  for (std::size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_LT(bounds[i - 1], bounds[i]);
  }
}

// A family registered on the seconds ladder spreads sub-second lags over
// many buckets (on the default ladder every one of them lands in le="1"),
// and its exposition prints that family's bounds only.
TEST(HistogramTest, PerFamilyBoundsSpreadSecondsObservations) {
  Registry reg;
  Histogram& lag = reg.histogram("fdqos_demo_lag_seconds", "lag", {},
                                 Histogram::seconds_bounds());
  Histogram& us = reg.histogram("fdqos_demo_us", "micros");
  for (const double v : {3e-5, 4e-4, 1.5e-3, 0.03, 0.3, 4.0}) {
    lag.observe(v);
    us.observe(v);
  }
  std::size_t used = 0;
  for (std::size_t i = 0; i <= Histogram::kBucketCount; ++i) {
    used += lag.bucket_count(i) > 0 ? 1 : 0;
  }
  EXPECT_EQ(used, 6u);
  EXPECT_EQ(us.bucket_count(0), 5u);  // le="1" swallows the sub-second ones
  const std::string text = reg.to_prometheus();
  EXPECT_NE(text.find("fdqos_demo_lag_seconds_bucket{le=\"0.0005\"} 2"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("fdqos_demo_us_bucket{le=\"5000000\"} 6"),
            std::string::npos)
      << text;
  // Re-registering a family with the bounds it already has is fine.
  EXPECT_EQ(&reg.histogram("fdqos_demo_lag_seconds", "lag", {},
                           Histogram::seconds_bounds()),
            &lag);
}

TEST(RegistryTest, SameNameAndLabelsYieldSameInstrument) {
  Registry reg;
  Counter& a = reg.counter("x_total", "help", {{"k", "v"}});
  Counter& b = reg.counter("x_total", "help", {{"k", "v"}});
  Counter& c = reg.counter("x_total", "help", {{"k", "w"}});
  EXPECT_EQ(&a, &b);
  EXPECT_NE(&a, &c);
  EXPECT_EQ(reg.family_count(), 1u);
}

TEST(RegistryTest, LabelOrderDoesNotMatter) {
  Registry reg;
  Counter& a = reg.counter("y_total", "", {{"a", "1"}, {"b", "2"}});
  Counter& b = reg.counter("y_total", "", {{"b", "2"}, {"a", "1"}});
  EXPECT_EQ(&a, &b);
}

TEST(RegistryTest, ConcurrentIncrementsOnOneFamilyLoseNothing) {
  Registry reg;
  constexpr int kPerThread = 100000;
  auto bump = [&reg] {
    // Registration is lock-protected; both threads resolve to the same
    // counter and then race on the relaxed atomic.
    Counter& c = reg.counter("fdqos_test_concurrent_total", "two writers",
                             {{"site", "shared"}});
    for (int i = 0; i < kPerThread; ++i) c.inc();
  };
  std::thread t1(bump);
  std::thread t2(bump);
  t1.join();
  t2.join();
  Counter& c = reg.counter("fdqos_test_concurrent_total", "two writers",
                           {{"site", "shared"}});
  EXPECT_EQ(c.value(), 2u * kPerThread);
}

TEST(RegistryTest, PrometheusExpositionGolden) {
  Registry reg;
  reg.counter("fdqos_demo_total", "demo counter").inc(3);
  reg.counter("fdqos_demo_labeled_total", "labeled", {{"dir", "tx"}}).inc(7);
  reg.gauge("fdqos_demo_gauge", "demo gauge").set(1.5);
  Histogram& h = reg.histogram("fdqos_demo_duration_us", "demo histogram");
  h.observe(1.0);
  h.observe(3.0);
  h.observe(1e9);

  const std::string text = reg.to_prometheus();
  const std::string expected =
      "# HELP fdqos_demo_duration_us demo histogram\n"
      "# TYPE fdqos_demo_duration_us histogram\n"
      "fdqos_demo_duration_us_bucket{le=\"1\"} 1\n"
      "fdqos_demo_duration_us_bucket{le=\"2\"} 1\n"
      "fdqos_demo_duration_us_bucket{le=\"5\"} 2\n"
      "fdqos_demo_duration_us_bucket{le=\"10\"} 2\n"
      "fdqos_demo_duration_us_bucket{le=\"20\"} 2\n"
      "fdqos_demo_duration_us_bucket{le=\"50\"} 2\n"
      "fdqos_demo_duration_us_bucket{le=\"100\"} 2\n"
      "fdqos_demo_duration_us_bucket{le=\"200\"} 2\n"
      "fdqos_demo_duration_us_bucket{le=\"500\"} 2\n"
      "fdqos_demo_duration_us_bucket{le=\"1000\"} 2\n"
      "fdqos_demo_duration_us_bucket{le=\"2000\"} 2\n"
      "fdqos_demo_duration_us_bucket{le=\"5000\"} 2\n"
      "fdqos_demo_duration_us_bucket{le=\"10000\"} 2\n"
      "fdqos_demo_duration_us_bucket{le=\"20000\"} 2\n"
      "fdqos_demo_duration_us_bucket{le=\"50000\"} 2\n"
      "fdqos_demo_duration_us_bucket{le=\"100000\"} 2\n"
      "fdqos_demo_duration_us_bucket{le=\"200000\"} 2\n"
      "fdqos_demo_duration_us_bucket{le=\"500000\"} 2\n"
      "fdqos_demo_duration_us_bucket{le=\"1000000\"} 2\n"
      "fdqos_demo_duration_us_bucket{le=\"5000000\"} 2\n"
      "fdqos_demo_duration_us_bucket{le=\"+Inf\"} 3\n"
      "fdqos_demo_duration_us_sum 1000000004\n"
      "fdqos_demo_duration_us_count 3\n"
      "# HELP fdqos_demo_duration_us_p50 Streaming P\xc2\xb2 quantile "
      "estimate over fdqos_demo_duration_us observations\n"
      "# TYPE fdqos_demo_duration_us_p50 gauge\n"
      "fdqos_demo_duration_us_p50 3\n"
      "# HELP fdqos_demo_duration_us_p95 Streaming P\xc2\xb2 quantile "
      "estimate over fdqos_demo_duration_us observations\n"
      "# TYPE fdqos_demo_duration_us_p95 gauge\n"
      "fdqos_demo_duration_us_p95 900000000\n"
      "# HELP fdqos_demo_duration_us_p99 Streaming P\xc2\xb2 quantile "
      "estimate over fdqos_demo_duration_us observations\n"
      "# TYPE fdqos_demo_duration_us_p99 gauge\n"
      "fdqos_demo_duration_us_p99 980000000\n"
      "# HELP fdqos_demo_gauge demo gauge\n"
      "# TYPE fdqos_demo_gauge gauge\n"
      "fdqos_demo_gauge 1.5\n"
      "# HELP fdqos_demo_labeled_total labeled\n"
      "# TYPE fdqos_demo_labeled_total counter\n"
      "fdqos_demo_labeled_total{dir=\"tx\"} 7\n"
      "# HELP fdqos_demo_total demo counter\n"
      "# TYPE fdqos_demo_total counter\n"
      "fdqos_demo_total 3\n";
  EXPECT_EQ(text, expected);
}

TEST(RegistryTest, JsonlHasOneObjectPerInstrument) {
  Registry reg;
  reg.counter("a_total", "h").inc(2);
  reg.gauge("b", "h", {{"k", "v"}}).set(0.25);
  reg.histogram("c_us", "h").observe(10.0);

  const std::string jsonl = reg.to_jsonl();
  std::istringstream in(jsonl);
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    ++lines;
  }
  EXPECT_EQ(lines, 3u);
  EXPECT_NE(jsonl.find("{\"metric\":\"a_total\",\"type\":\"counter\","
                       "\"labels\":{},\"value\":2}"),
            std::string::npos);
  EXPECT_NE(jsonl.find("\"labels\":{\"k\":\"v\"},\"value\":0.25"),
            std::string::npos);
  EXPECT_NE(jsonl.find("\"count\":1"), std::string::npos);
}

TEST(RegistryTest, SaveWritesFiles) {
  Registry reg;
  reg.counter("saved_total", "h").inc();
  const std::string prom = ::testing::TempDir() + "/fdqos_metrics.prom";
  const std::string jsonl = ::testing::TempDir() + "/fdqos_metrics.jsonl";
  ASSERT_TRUE(reg.save_prometheus(prom));
  ASSERT_TRUE(reg.save_jsonl(jsonl));
  std::ifstream in(prom);
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_NE(buf.str().find("saved_total 1"), std::string::npos);
  std::remove(prom.c_str());
  std::remove(jsonl.c_str());
  EXPECT_FALSE(reg.save_prometheus("/nonexistent-dir/x.prom"));
}

TEST(RenderLabelsTest, CanonicalAndEscaped) {
  EXPECT_EQ(render_labels({}), "");
  EXPECT_EQ(render_labels({{"b", "2"}, {"a", "1"}}), "a=\"1\",b=\"2\"");
  EXPECT_EQ(render_labels({{"k", "a\"b\\c\nd"}}),
            "k=\"a\\\"b\\\\c\\nd\"");
}

// The acceptance check behind `fdqos qos --metrics-out`: after an
// instrumented experiment the global exposition carries the built-in
// instrument families with live values.
TEST(InstrumentsTest, QosExperimentPopulatesGlobalRegistry) {
  const bool was_enabled = enabled();
  set_enabled(true);
  const std::uint64_t sent_before = instruments().heartbeats_sent.value();
  const std::uint64_t mux_before = instruments().mux_dispatch_total.value();

  exp::QosExperimentConfig config;
  config.runs = 1;
  config.num_cycles = 400;
  config.include_paper_suite = false;
  config.include_constant_baseline = true;
  exp::run_qos_experiment(config);
  set_enabled(was_enabled);

  EXPECT_GT(instruments().heartbeats_sent.value(), sent_before);
  EXPECT_GT(instruments().mux_dispatch_total.value(), mux_before);

  const std::string text = Registry::global().to_prometheus();
  for (const char* name :
       {"fdqos_heartbeats_sent_total", "fdqos_heartbeats_delivered_total",
        "fdqos_mux_dispatch_duration_us_bucket",
        "fdqos_arima_refit_duration_us_bucket", "fdqos_crash_events_total",
        "fdqos_qos_detections_total"}) {
    EXPECT_NE(text.find(name), std::string::npos) << name;
  }
}

}  // namespace
}  // namespace fdqos::obs
