#include "wan/trace.hpp"

#include <gtest/gtest.h>

#include <cstdio>

namespace fdqos::wan {
namespace {

TEST(TraceRecorderTest, RecordsSamples) {
  TraceRecorder rec;
  rec.record(TimePoint::origin(), Duration::millis(100));
  rec.record(TimePoint::origin() + Duration::seconds(1), Duration::millis(200));
  EXPECT_EQ(rec.size(), 2u);
  EXPECT_EQ(rec.delays()[1], Duration::millis(200));
  const auto ms = rec.delays_ms();
  EXPECT_DOUBLE_EQ(ms[0], 100.0);
}

TEST(RecordingDelayTest, CapturesEverySample) {
  auto hub = std::make_shared<TraceRecorderHub>();
  RecordingDelay model(std::make_unique<ConstantDelay>(Duration::millis(7)),
                       hub, /*key=*/0);
  Rng rng(1);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(model.sample(rng, TimePoint::origin()), Duration::millis(7));
  }
  EXPECT_EQ(model.recorder().size(), 10u);
  EXPECT_EQ(hub->total_samples(), 10u);
}

TEST(TraceReplayTest, ReplaysInOrder) {
  TraceReplayDelay replay(
      {Duration::millis(1), Duration::millis(2), Duration::millis(3)});
  Rng rng(2);
  EXPECT_EQ(replay.sample(rng, TimePoint::origin()), Duration::millis(1));
  EXPECT_EQ(replay.sample(rng, TimePoint::origin()), Duration::millis(2));
  EXPECT_EQ(replay.sample(rng, TimePoint::origin()), Duration::millis(3));
}

TEST(TraceReplayTest, DefaultsToTruncate) {
  TraceReplayDelay replay({Duration::millis(5), Duration::millis(6)});
  EXPECT_EQ(replay.policy(), ReplayPolicy::kTruncate);
  Rng rng(3);
  replay.sample(rng, TimePoint::origin());
  replay.sample(rng, TimePoint::origin());
  EXPECT_EQ(replay.sample(rng, TimePoint::origin()), Duration::millis(6));
  EXPECT_EQ(replay.overruns(), 1u);
}

TEST(TraceTest, SaveLoadRoundTrip) {
  auto hub = std::make_shared<TraceRecorderHub>();
  RecordingDelay model(
      std::make_unique<UniformDelay>(Duration::millis(100), Duration::millis(300)),
      hub, /*key=*/0);
  Rng rng(4);
  TimePoint t = TimePoint::origin();
  for (int i = 0; i < 50; ++i, t += Duration::seconds(1)) {
    model.sample(rng, t);
  }
  const TraceRecorder& rec = model.recorder();
  const std::string path = ::testing::TempDir() + "/fdqos_trace_test.csv";
  ASSERT_TRUE(rec.save(path));

  auto replay = TraceReplayDelay::load(path);
  std::remove(path.c_str());
  ASSERT_NE(replay, nullptr);
  EXPECT_EQ(replay->size(), 50u);
  Rng rng2(5);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(replay->sample(rng2, TimePoint::origin()),
              rec.delays()[static_cast<std::size_t>(i)]);
  }
}

TEST(TraceReplayTest, LoadMissingFileReturnsNull) {
  EXPECT_EQ(TraceReplayDelay::load("/nonexistent/trace.csv"), nullptr);
}

TEST(TraceReplayTest, LoadRejectsMalformedFile) {
  const std::string path = ::testing::TempDir() + "/fdqos_bad_trace.csv";
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("send_time_ns,delay_ns\nthis is not a number\n", f);
  std::fclose(f);
  EXPECT_EQ(TraceReplayDelay::load(path), nullptr);
  std::remove(path.c_str());
}

TEST(TraceReplayTest, MakeFreshRestartsFromBeginning) {
  TraceReplayDelay replay({Duration::millis(10), Duration::millis(20)});
  Rng rng(6);
  replay.sample(rng, TimePoint::origin());
  auto fresh = replay.make_fresh();
  EXPECT_EQ(fresh->sample(rng, TimePoint::origin()), Duration::millis(10));
}

}  // namespace
}  // namespace fdqos::wan
