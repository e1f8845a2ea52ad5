// wan::tracestore — format roundtrips, malformed-input corpus, replay
// policies, recorder-hub merge determinism. Runs under the `tracestore`
// ctest label (including the sanitizer CI jobs).
#include "wan/tracestore.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

namespace fdqos::wan {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

Trace random_trace(std::uint64_t seed, std::size_t n) {
  Rng rng(seed);
  Trace trace;
  trace.meta.source = "random_trace seed=" + std::to_string(seed);
  trace.meta.clock_base_ns = static_cast<std::int64_t>(seed) * 1'000'000;
  TimePoint t = TimePoint::origin();
  for (std::size_t i = 0; i < n; ++i) {
    t += Duration::millis(rng.uniform_int(1, 2000));
    trace.send_times.push_back(t);
    trace.delays.push_back(Duration::nanos(rng.uniform_int(0, 400'000'000)));
  }
  return trace;
}

void expect_same_samples(const Trace& a, const Trace& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.send_times[i], b.send_times[i]) << i;
    EXPECT_EQ(a.delays[i], b.delays[i]) << i;
  }
}

// --------------------------------------------------------------------------
// Roundtrip property suite

TEST(TracestoreRoundtripTest, FdtPreservesSamplesAndMeta) {
  for (std::uint64_t seed : {1u, 7u, 42u}) {
    const Trace original = random_trace(seed, 1 + seed * 37);
    const std::string path = temp_path("roundtrip.fdt");
    std::string error;
    ASSERT_TRUE(save_trace_fdt(original, path, &error)) << error;

    const TraceLoadResult loaded = load_trace(path);
    std::remove(path.c_str());
    ASSERT_TRUE(loaded.ok()) << loaded.error;
    EXPECT_EQ(loaded.trace->meta.schema_version, kTraceSchemaVersion);
    EXPECT_EQ(loaded.trace->meta.clock_base_ns, original.meta.clock_base_ns);
    EXPECT_EQ(loaded.trace->meta.source, original.meta.source);
    expect_same_samples(original, *loaded.trace);
  }
}

TEST(TracestoreRoundtripTest, CsvPreservesSamples) {
  const Trace original = random_trace(3, 200);
  const std::string path = temp_path("roundtrip.csv");
  std::string error;
  ASSERT_TRUE(save_trace_csv(original, path, &error)) << error;

  const TraceLoadResult loaded = load_trace(path);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  expect_same_samples(original, *loaded.trace);
}

TEST(TracestoreRoundtripTest, CsvToFdtConversionIsLossless) {
  const Trace original = random_trace(11, 150);
  const std::string csv = temp_path("convert.csv");
  const std::string fdt = temp_path("convert.fdt");
  ASSERT_TRUE(save_trace_csv(original, csv));
  const TraceLoadResult from_csv = load_trace(csv);
  ASSERT_TRUE(from_csv.ok()) << from_csv.error;
  ASSERT_TRUE(save_trace_fdt(*from_csv.trace, fdt));
  const TraceLoadResult from_fdt = load_trace(fdt);
  std::remove(csv.c_str());
  std::remove(fdt.c_str());
  ASSERT_TRUE(from_fdt.ok()) << from_fdt.error;
  expect_same_samples(original, *from_fdt.trace);
}

TEST(TracestoreRoundtripTest, StreamingWriterMatchesBatchWriter) {
  const Trace original = random_trace(5, 321);
  const std::string streamed = temp_path("streamed.fdt");
  {
    TraceFdtWriter writer(streamed, original.meta);
    ASSERT_TRUE(writer.ok()) << writer.error();
    for (std::size_t i = 0; i < original.size(); ++i) {
      ASSERT_TRUE(writer.append(original.send_times[i], original.delays[i]));
    }
    ASSERT_TRUE(writer.finalize());
    EXPECT_EQ(writer.samples_written(), original.size());
  }
  const TraceLoadResult loaded = load_trace(streamed);
  std::remove(streamed.c_str());
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  expect_same_samples(original, *loaded.trace);
}

TEST(TracestoreRoundtripTest, CsvLinesLongerThanLegacyBufferParse) {
  // The old loader read lines into a 128-byte buffer; long lines silently
  // truncated mid-number. Pad with leading zeros well past that limit.
  const std::string path = temp_path("long_lines.csv");
  std::string padded(200, '0');
  write_file(path, "send_time_ns,delay_ns\n" + padded + "123," + padded +
                       "456\n7,8\n");
  const TraceLoadResult loaded = load_trace(path);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  ASSERT_EQ(loaded.trace->size(), 2u);
  EXPECT_EQ(loaded.trace->send_times[0].count_nanos(), 123);
  EXPECT_EQ(loaded.trace->delays[0].count_nanos(), 456);
}

TEST(TracestoreRoundtripTest, CsvSkipsCommentsAndBlankLines) {
  const std::string path = temp_path("comments.csv");
  write_file(path, "# captured on host x\nsend_time_ns,delay_ns\n\n1,2\n");
  const TraceLoadResult loaded = load_trace(path);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  EXPECT_EQ(loaded.trace->size(), 1u);
}

// --------------------------------------------------------------------------
// Malformed-input corpus: every case yields a precise error, never an abort.

TEST(TracestoreMalformedTest, MissingFile) {
  const TraceLoadResult r = load_trace("/nonexistent/trace.fdt");
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error.find("cannot open"), std::string::npos) << r.error;
}

TEST(TracestoreMalformedTest, TruncatedHeader) {
  const std::string path = temp_path("trunc_header.fdt");
  write_file(path, std::string("FDQTRCE\0", 8) + "abc");
  const TraceLoadResult r = load_trace(path);
  std::remove(path.c_str());
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error.find("truncated header"), std::string::npos) << r.error;
}

TEST(TracestoreMalformedTest, BadMagicFallsBackToCsvAndReportsLine) {
  // Binary garbage without the magic is sniffed as CSV and fails with a
  // line-numbered parse error rather than an abort.
  const std::string path = temp_path("bad_magic.fdt");
  write_file(path, std::string("NOTTRACE________garbage________", 31));
  const TraceLoadResult r = load_trace(path);
  std::remove(path.c_str());
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error.find(":1: cannot parse"), std::string::npos) << r.error;
}

TEST(TracestoreMalformedTest, ExplicitFdtLoadRejectsBadMagic) {
  const std::string path = temp_path("bad_magic2.fdt");
  write_file(path, std::string(64, 'x'));
  const TraceLoadResult r = load_trace_fdt(path);
  std::remove(path.c_str());
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error.find("bad magic"), std::string::npos) << r.error;
}

TEST(TracestoreMalformedTest, UnsupportedSchemaVersion) {
  Trace trace = random_trace(2, 4);
  trace.meta.schema_version = kTraceSchemaVersion + 9;
  const std::string path = temp_path("future.fdt");
  ASSERT_TRUE(save_trace_fdt(trace, path));
  const TraceLoadResult r = load_trace(path);
  std::remove(path.c_str());
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error.find("unsupported schema version"), std::string::npos)
      << r.error;
}

TEST(TracestoreMalformedTest, TruncatedRecords) {
  const Trace trace = random_trace(6, 10);
  const std::string path = temp_path("trunc_records.fdt");
  ASSERT_TRUE(save_trace_fdt(trace, path));
  // Chop the last record in half.
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  write_file(path, bytes.substr(0, bytes.size() - 8));
  const TraceLoadResult r = load_trace(path);
  std::remove(path.c_str());
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error.find("truncated records"), std::string::npos) << r.error;
}

TEST(TracestoreMalformedTest, AbandonedStreamingWriterLeavesRejectedFile) {
  const std::string path = temp_path("abandoned.fdt");
  {
    // Simulate a crash mid-capture: records written, finalize never runs,
    // so the header still claims 0 samples.
    TraceFdtWriter writer(path, {});
    ASSERT_TRUE(writer.ok());
    writer.append(TimePoint::origin(), Duration::millis(1));
    // Deliberately bypass finalize: rewrite the file as header + partial
    // record the way a killed process would leave it.
  }
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  write_file(path, bytes.substr(0, bytes.size() - 3));
  const TraceLoadResult r = load_trace(path);
  std::remove(path.c_str());
  EXPECT_FALSE(r.ok());
}

TEST(TracestoreMalformedTest, EmptyFdtTrace) {
  const std::string path = temp_path("empty.fdt");
  {
    TraceFdtWriter writer(path, {});
    writer.finalize();
  }
  const TraceLoadResult r = load_trace(path);
  std::remove(path.c_str());
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error.find("empty trace"), std::string::npos) << r.error;
}

TEST(TracestoreMalformedTest, NegativeDelayRecordNamesTheRecord) {
  const std::string path = temp_path("negative.fdt");
  {
    Trace trace = random_trace(8, 3);
    ASSERT_TRUE(save_trace_fdt(trace, path));
  }
  // Patch record 1's delay (second i64 of the record) to -1.
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  const std::size_t source_len = bytes.size() - 32 - 3 * 16;
  const std::size_t offset = 32 + source_len + 16 + 8;
  for (std::size_t i = 0; i < 8; ++i) bytes[offset + i] = '\xff';
  write_file(path, bytes);
  const TraceLoadResult r = load_trace(path);
  std::remove(path.c_str());
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error.find("record 1: negative delay"), std::string::npos)
      << r.error;
}

TEST(TracestoreMalformedTest, CsvGarbageLineReportsLineNumber) {
  const std::string path = temp_path("garbage.csv");
  write_file(path, "send_time_ns,delay_ns\n1,2\nthis is not a number\n");
  const TraceLoadResult r = load_trace(path);
  std::remove(path.c_str());
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error.find(":3: cannot parse"), std::string::npos) << r.error;
}

TEST(TracestoreMalformedTest, CsvNegativeDelayReportsLineNumber) {
  const std::string path = temp_path("neg.csv");
  write_file(path, "send_time_ns,delay_ns\n1,-5\n");
  const TraceLoadResult r = load_trace(path);
  std::remove(path.c_str());
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error.find(":2: negative delay"), std::string::npos) << r.error;
}

TEST(TracestoreMalformedTest, EmptyCsv) {
  const std::string path = temp_path("empty.csv");
  write_file(path, "send_time_ns,delay_ns\n# nothing captured\n");
  const TraceLoadResult r = load_trace(path);
  std::remove(path.c_str());
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error.find("empty trace"), std::string::npos) << r.error;
}

// --------------------------------------------------------------------------
// Replay policies

TEST(ReplayPolicyTest, ParseAndName) {
  EXPECT_EQ(parse_replay_policy("truncate"), ReplayPolicy::kTruncate);
  EXPECT_EQ(parse_replay_policy("extend"), ReplayPolicy::kExtend);
  EXPECT_EQ(parse_replay_policy("wrap"), std::nullopt);
  EXPECT_EQ(parse_replay_policy("loop"), std::nullopt);
  EXPECT_EQ(parse_replay_policy(""), std::nullopt);
  EXPECT_STREQ(replay_policy_name(ReplayPolicy::kTruncate), "truncate");
  EXPECT_STREQ(replay_policy_name(ReplayPolicy::kExtend), "extend");
}

TEST(ReplayPolicyTest, TruncateRepeatsLastDelayAndCountsOverruns) {
  TraceReplayDelay replay({Duration::millis(1), Duration::millis(2)},
                          ReplayPolicy::kTruncate);
  Rng rng(1);
  replay.sample(rng, TimePoint::origin());
  replay.sample(rng, TimePoint::origin());
  EXPECT_TRUE(replay.exhausted());
  EXPECT_EQ(replay.overruns(), 0u);
  EXPECT_EQ(replay.sample(rng, TimePoint::origin()), Duration::millis(2));
  EXPECT_EQ(replay.sample(rng, TimePoint::origin()), Duration::millis(2));
  EXPECT_EQ(replay.overruns(), 2u);
}

TEST(ReplayPolicyTest, ExtendSamplesFittedTailWithinObservedRange) {
  std::vector<Duration> delays;
  Rng gen(3);
  for (int i = 0; i < 400; ++i) {
    delays.push_back(Duration::millis(200) +
                     Duration::from_millis_double(gen.lognormal(2.0, 0.5)));
  }
  const Duration lo = *std::min_element(delays.begin(), delays.end());
  const Duration hi = *std::max_element(delays.begin(), delays.end());

  TraceReplayDelay replay(delays, ReplayPolicy::kExtend);
  Rng rng(4);
  for (std::size_t i = 0; i < delays.size(); ++i) {
    EXPECT_EQ(replay.sample(rng, TimePoint::origin()), delays[i]);
  }
  for (int i = 0; i < 200; ++i) {
    const Duration d = replay.sample(rng, TimePoint::origin());
    EXPECT_GE(d, lo);
    EXPECT_LE(d, hi);
  }
  EXPECT_EQ(replay.extended_samples(), 200u);
  EXPECT_EQ(replay.overruns(), 0u);
}

TEST(ReplayPolicyTest, ExtendOnConstantTraceStaysConstant) {
  TraceReplayDelay replay({Duration::millis(7), Duration::millis(7)},
                          ReplayPolicy::kExtend);
  Rng rng(5);
  replay.sample(rng, TimePoint::origin());
  replay.sample(rng, TimePoint::origin());
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(replay.sample(rng, TimePoint::origin()), Duration::millis(7));
  }
}

TEST(ReplayPolicyTest, MakeFreshKeepsPolicyAndRestartsCursor) {
  TraceReplayDelay replay({Duration::millis(1), Duration::millis(2)},
                          ReplayPolicy::kTruncate);
  Rng rng(6);
  replay.sample(rng, TimePoint::origin());
  auto fresh_base = replay.make_fresh();
  auto* fresh = dynamic_cast<TraceReplayDelay*>(fresh_base.get());
  ASSERT_NE(fresh, nullptr);
  EXPECT_EQ(fresh->policy(), ReplayPolicy::kTruncate);
  EXPECT_EQ(fresh->position(), 0u);
  EXPECT_EQ(fresh->sample(rng, TimePoint::origin()), Duration::millis(1));
}

TEST(TraceTailModelTest, FitMatchesMoments) {
  std::vector<Duration> delays{Duration::millis(100), Duration::millis(150),
                               Duration::millis(130), Duration::millis(300)};
  const TraceTailModel model = fit_trace_tail(delays);
  EXPECT_FALSE(model.degenerate);
  EXPECT_EQ(model.floor, Duration::millis(100));
  EXPECT_EQ(model.cap, Duration::millis(300));
  EXPECT_GT(model.sigma, 0.0);
  Rng rng(7);
  for (int i = 0; i < 100; ++i) {
    const Duration d = model.sample(rng);
    EXPECT_GE(d, model.floor);
    EXPECT_LE(d, model.cap);
  }
}

// --------------------------------------------------------------------------
// Recorder hub

TEST(TraceRecorderHubTest, MergesShardsInKeyOrderRegardlessOfCreation) {
  TraceRecorderHub hub;
  // Create out of order, the way parallel runs finishing out of order would.
  hub.shard(2).record(TimePoint::from_nanos(20), Duration::millis(2));
  hub.shard(0).record(TimePoint::from_nanos(0), Duration::millis(0));
  hub.shard(1).record(TimePoint::from_nanos(10), Duration::millis(1));
  hub.shard(0).record(TimePoint::from_nanos(1), Duration::millis(10));

  EXPECT_EQ(hub.shard_count(), 3u);
  EXPECT_EQ(hub.total_samples(), 4u);

  TraceMeta meta;
  meta.source = "hub merge test";
  const Trace merged = hub.merged(meta);
  EXPECT_EQ(merged.meta.source, "hub merge test");
  ASSERT_EQ(merged.size(), 4u);
  EXPECT_EQ(merged.delays[0], Duration::millis(0));
  EXPECT_EQ(merged.delays[1], Duration::millis(10));
  EXPECT_EQ(merged.delays[2], Duration::millis(1));
  EXPECT_EQ(merged.delays[3], Duration::millis(2));
}

TEST(TraceRecorderHubTest, AutoShardsMergeAfterExplicitKeys) {
  TraceRecorderHub hub;
  hub.fresh_shard().record(TimePoint::origin(), Duration::millis(99));
  hub.shard(5).record(TimePoint::origin(), Duration::millis(5));
  const Trace merged = hub.merged();
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged.delays[0], Duration::millis(5));
  EXPECT_EQ(merged.delays[1], Duration::millis(99));
}

TEST(RecordingDelayTest, MakeFreshClonesRecordIntoTheirOwnShards) {
  auto hub = std::make_shared<TraceRecorderHub>();
  RecordingDelay prototype(std::make_unique<ConstantDelay>(Duration::millis(3)),
                           hub, /*key=*/0);
  auto clone_a = prototype.make_fresh();
  auto clone_b = prototype.make_fresh();
  Rng rng(1);
  prototype.sample(rng, TimePoint::origin());
  clone_a->sample(rng, TimePoint::origin());
  clone_a->sample(rng, TimePoint::origin());
  clone_b->sample(rng, TimePoint::origin());
  EXPECT_EQ(hub->shard_count(), 3u);
  EXPECT_EQ(hub->total_samples(), 4u);
  EXPECT_EQ(prototype.recorder().size(), 1u);
}

// Regression for the make_fresh() data race: the old RecordingDelay cloned
// with a reference to the *same* TraceRecorder, so concurrent runs pushed
// into one vector. Under TSan this test fails on that design; with hub
// shards every clone owns its vectors. (TSan CI runs -L tracestore.)
TEST(RecordingDelayTest, ConcurrentClonesDoNotRace) {
  auto hub = std::make_shared<TraceRecorderHub>();
  RecordingDelay prototype(std::make_unique<ConstantDelay>(Duration::millis(1)),
                           hub, /*key=*/0);
  constexpr int kThreads = 8;
  constexpr int kSamples = 2000;
  std::vector<std::unique_ptr<DelayModel>> clones;
  for (int i = 0; i < kThreads; ++i) clones.push_back(prototype.make_fresh());

  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&clones, i] {
      Rng rng(static_cast<std::uint64_t>(i));
      TimePoint t = TimePoint::origin();
      for (int s = 0; s < kSamples; ++s, t += Duration::millis(1)) {
        clones[static_cast<std::size_t>(i)]->sample(rng, t);
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(hub->shard_count(), 1u + kThreads);
  EXPECT_EQ(hub->total_samples(),
            static_cast<std::size_t>(kThreads) * kSamples);
}

}  // namespace
}  // namespace fdqos::wan
