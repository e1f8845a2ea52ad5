// wan::tracestore — robust delay-trace capture and replay.
//
// The paper's core methodology is trace-based comparison: one recorded
// heartbeat-delay trace (Italy→Japan in the paper) is fed identically to
// all 30 detectors so their QoS differences reflect the algorithms, not
// network luck. This subsystem makes that workflow production-grade:
//
//  * Trace / TraceMeta — an in-memory trace: nanosecond send-time + delay
//    records plus provenance metadata (schema version, clock base, source).
//  * .fdt binary format — versioned, self-describing, streamable
//    (TraceFdtWriter) with a validating loader that reports precise errors
//    instead of aborting. Lossless CSV import/export keeps the existing
//    `send_time_ns,delay_ns` text format interchangeable.
//  * TraceRecorderHub — per-clone recorder shards. Every RecordingDelay
//    clone (make_fresh) records into its own shard, so concurrent
//    experiment runs never share mutable state; shards merge in
//    deterministic key order afterwards.
//  * ReplayPolicy — what TraceReplayDelay does at trace end: `truncate`
//    (the experiment must not outrun the trace) or `extend` (resample the
//    tail from a model fitted to the recorded delays).
//
// See docs/tracestore.md for the format specification and the
// `fdqos record` / `fdqos replay` CLI walkthrough.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "wan/delay_model.hpp"

namespace fdqos::wan {

// ---------------------------------------------------------------------------
// Trace data + metadata

inline constexpr std::uint32_t kTraceSchemaVersion = 1;

struct TraceMeta {
  std::uint32_t schema_version = kTraceSchemaVersion;
  // Origin of the send-time column on the capturing host's timeline
  // (nanoseconds; 0 for simulated captures whose timeline starts at the
  // experiment origin).
  std::int64_t clock_base_ns = 0;
  // Free-form provenance: link model + parameters, chaos scenario, capture
  // host — whatever identifies where the samples came from.
  std::string source;
};

// One delay trace: parallel send-time / delay columns plus metadata.
// Delays are one-way message delays; a message lost in transit simply has
// no record (the capture path samples loss before delay, mirroring the
// simulated link).
struct Trace {
  TraceMeta meta;
  std::vector<TimePoint> send_times;
  std::vector<Duration> delays;

  std::size_t size() const { return delays.size(); }
  bool empty() const { return delays.empty(); }
  // Delay values in milliseconds (for the stats/forecast layers).
  std::vector<double> delays_ms() const;
};

// ---------------------------------------------------------------------------
// Load / save (.fdt binary + CSV text)

struct TraceLoadResult {
  std::shared_ptr<const Trace> trace;  // null on failure
  std::string error;                   // human-readable; names the offending
                                       // line / record on parse failures
  bool ok() const { return trace != nullptr; }
};

// Sniffs the format (.fdt magic vs. CSV text) and dispatches. Loading
// never aborts: every malformed input — bad magic, truncated header or
// records, unsupported version, unparsable or negative values — comes back
// as TraceLoadResult::error.
TraceLoadResult load_trace(const std::string& path);
TraceLoadResult load_trace_fdt(const std::string& path);
TraceLoadResult load_trace_csv(const std::string& path);

// Writers. Both return false (and fill *error when given) on I/O failure;
// CSV is byte-compatible with the legacy TraceRecorder::save format.
bool save_trace_fdt(const Trace& trace, const std::string& path,
                    std::string* error = nullptr);
bool save_trace_csv(const Trace& trace, const std::string& path,
                    std::string* error = nullptr);

// Streaming .fdt writer for long captures: the header goes out first with a
// zero sample count, records append one by one, finalize() patches the
// count. A writer abandoned without finalize() leaves a file the loader
// rejects as truncated — deliberately: a partial capture is not a trace.
class TraceFdtWriter {
 public:
  TraceFdtWriter(const std::string& path, TraceMeta meta);
  ~TraceFdtWriter();

  TraceFdtWriter(const TraceFdtWriter&) = delete;
  TraceFdtWriter& operator=(const TraceFdtWriter&) = delete;

  bool append(TimePoint send_time, Duration delay);
  // Patches the sample count into the header and closes. Idempotent.
  bool finalize();

  bool ok() const { return ok_; }
  const std::string& error() const { return error_; }
  std::uint64_t samples_written() const { return count_; }

 private:
  void fail(const std::string& what);
  std::FILE* file_ = nullptr;
  bool ok_ = false;
  bool finalized_ = false;
  std::uint64_t count_ = 0;
  std::string error_;
};

// Segmented continuous capture for long-running daemons (`fdqos serve`):
// appends stream into numbered .fdt segments (<prefix>-00000.fdt,
// <prefix>-00001.fdt, ...) under one directory, rotating after
// `max_samples` records so every segment but the live one is a complete,
// finalized trace that `fdqos replay` accepts while the capture is still
// running. finalize() closes the live segment; empty live segments are
// deleted rather than left as 0-sample files the loader rejects.
class RotatingFdtWriter {
 public:
  struct Options {
    std::string directory = ".";
    std::string prefix = "capture";
    std::uint64_t max_samples = 1'000'000;  // per segment
    TraceMeta meta;
  };

  explicit RotatingFdtWriter(Options opts);
  ~RotatingFdtWriter();

  RotatingFdtWriter(const RotatingFdtWriter&) = delete;
  RotatingFdtWriter& operator=(const RotatingFdtWriter&) = delete;

  bool append(TimePoint send_time, Duration delay);
  // Finalizes the live segment. Idempotent; append() after finalize()
  // fails. Returns false if any segment (including past rotations) failed.
  bool finalize();

  bool ok() const { return ok_; }
  const std::string& error() const { return error_; }
  std::uint64_t samples_written() const { return total_samples_; }
  // Paths of completed (finalized, non-empty) segments, oldest first.
  const std::vector<std::string>& segments() const { return segments_; }

 private:
  std::string segment_path(std::size_t index) const;
  bool open_segment();
  bool close_segment();

  Options opts_;
  std::unique_ptr<TraceFdtWriter> writer_;  // live segment, null when closed
  std::string live_path_;
  std::size_t next_index_ = 0;
  std::uint64_t total_samples_ = 0;
  std::vector<std::string> segments_;
  bool ok_ = true;
  bool finalized_ = false;
  std::string error_;
};

// ---------------------------------------------------------------------------
// Recording

// Collects (send_time, delay) pairs in memory; one recorder is single-
// threaded state — concurrent recording wants one shard per thread via
// TraceRecorderHub.
class TraceRecorder {
 public:
  void record(TimePoint send_time, Duration delay);

  std::size_t size() const { return delays_.size(); }
  const std::vector<Duration>& delays() const { return delays_; }
  const std::vector<TimePoint>& send_times() const { return send_times_; }
  std::vector<double> delays_ms() const;

  // Legacy single-shard CSV export (same bytes as save_trace_csv).
  bool save(const std::string& path) const;

 private:
  std::vector<TimePoint> send_times_;
  std::vector<Duration> delays_;
};

// Thread-safe shard registry. Each recording clone owns one shard for its
// exclusive use; creating/looking up shards is mutex-guarded, recording
// into a shard is not (it never needs to be — one shard, one thread).
// merged() concatenates shards in ascending key order, so captures keyed by
// run index reassemble identically regardless of which worker thread ran
// which run.
class TraceRecorderHub {
 public:
  // Shard for a deterministic key (e.g. the experiment run index). The
  // reference stays valid for the hub's lifetime.
  TraceRecorder& shard(std::uint64_t key);
  // Shard under the next automatic key. Auto keys start above 2^32 so
  // explicitly keyed shards always merge first; the order of auto shards
  // among themselves follows creation order, which under concurrent
  // make_fresh() is scheduling-dependent — key explicitly when merge order
  // must be reproducible.
  TraceRecorder& fresh_shard();

  std::size_t shard_count() const;
  std::size_t total_samples() const;

  // All shards concatenated in ascending key order. Call after recording
  // threads have joined.
  Trace merged(TraceMeta meta = {}) const;

 private:
  mutable std::mutex mu_;
  std::map<std::uint64_t, std::unique_ptr<TraceRecorder>> shards_;
  std::uint64_t next_auto_key_ = std::uint64_t{1} << 32;
};

// Wraps another DelayModel, recording every sample into its own hub shard.
// make_fresh() clones get a fresh shard — never shared mutable state, so
// parallel runs can each record their stream (the fix for the cross-thread
// recorder aliasing the old TraceRecorder&-based design had).
class RecordingDelay final : public DelayModel {
 public:
  // Records into hub shard `key` (deterministic merge position).
  RecordingDelay(std::unique_ptr<DelayModel> inner,
                 std::shared_ptr<TraceRecorderHub> hub, std::uint64_t key);
  // Records into a fresh auto-keyed shard.
  RecordingDelay(std::unique_ptr<DelayModel> inner,
                 std::shared_ptr<TraceRecorderHub> hub);

  Duration sample(Rng& rng, TimePoint send_time) override;
  const std::string& name() const override { return name_; }
  std::unique_ptr<DelayModel> make_fresh() const override;

  const TraceRecorder& recorder() const { return *shard_; }

 private:
  std::string name_;
  std::unique_ptr<DelayModel> inner_;
  std::shared_ptr<TraceRecorderHub> hub_;
  TraceRecorder* shard_;  // owned by hub_, exclusive to this instance
};

// ---------------------------------------------------------------------------
// Replay

enum class ReplayPolicy {
  kTruncate,  // the experiment ends with the trace; sampling past the end
              // is an overrun (counted, logged once, last delay repeated)
  kExtend,    // resample the tail from a model fitted to the trace
};

const char* replay_policy_name(ReplayPolicy policy);
// Parses "truncate" / "extend"; nullopt on anything else.
std::optional<ReplayPolicy> parse_replay_policy(const std::string& text);

// Tail model for ReplayPolicy::kExtend: shifted log-normal fitted by the
// method of moments to (delay − floor), capped at the observed maximum —
// the same floor-plus-right-skewed-body shape the calibrated WAN models
// use. Degenerate traces (constant delay) extend with that constant.
struct TraceTailModel {
  Duration floor = Duration::zero();
  Duration cap = Duration::zero();
  double mu = 0.0;     // log-millisecond parameters of the excess body
  double sigma = 0.0;
  bool degenerate = true;

  Duration sample(Rng& rng) const;
};

TraceTailModel fit_trace_tail(const std::vector<Duration>& delays);

// Replays a fixed delay sequence; end-of-trace behaviour per ReplayPolicy.
class TraceReplayDelay final : public DelayModel {
 public:
  explicit TraceReplayDelay(std::vector<Duration> delays,
                            ReplayPolicy policy = ReplayPolicy::kTruncate);
  // Replays shared immutable trace data without copying it. Several
  // replayers (e.g. one per concurrent experiment run) can share one
  // loaded trace; the replay cursor is per-instance.
  explicit TraceReplayDelay(
      std::shared_ptr<const std::vector<Duration>> delays,
      ReplayPolicy policy = ReplayPolicy::kTruncate);

  // Loads a trace file (.fdt or CSV). Returns nullptr on failure; the
  // richer error comes from load_trace().
  static std::unique_ptr<TraceReplayDelay> load(
      const std::string& path,
      ReplayPolicy policy = ReplayPolicy::kTruncate);
  // Loads just the delay column, for sharing across many replayers.
  // Returns nullptr on I/O or parse failure.
  static std::shared_ptr<const std::vector<Duration>> load_trace_data(
      const std::string& path);

  Duration sample(Rng& rng, TimePoint send_time) override;
  const std::string& name() const override { return name_; }
  std::unique_ptr<DelayModel> make_fresh() const override;

  std::size_t size() const { return delays_->size(); }
  ReplayPolicy policy() const { return policy_; }
  // Cursor position; >= size() means the trace proper is exhausted.
  std::size_t position() const { return next_; }
  bool exhausted() const { return next_ >= delays_->size(); }
  // kTruncate samples drawn past the end (a correctly truncated experiment
  // never overruns; non-zero means the caller outran the trace).
  std::uint64_t overruns() const { return overruns_; }
  // kExtend samples drawn from the fitted tail model.
  std::uint64_t extended_samples() const { return extended_; }

 private:
  std::string name_;
  std::shared_ptr<const std::vector<Duration>> delays_;
  ReplayPolicy policy_;
  TraceTailModel tail_;  // fitted only for kExtend
  std::size_t next_ = 0;
  std::uint64_t overruns_ = 0;
  std::uint64_t extended_ = 0;
  bool warned_end_ = false;
};

}  // namespace fdqos::wan
