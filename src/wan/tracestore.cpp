#include "wan/tracestore.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/assert.hpp"
#include "common/log.hpp"

namespace fdqos::wan {
namespace {

// .fdt layout (all integers little-endian):
//   offset  0  char[8]  magic "FDQTRCE\0"
//   offset  8  u32      schema version
//   offset 12  u32      source length S (bytes; capped at 1 MiB)
//   offset 16  u64      sample count N
//   offset 24  i64      clock base (ns)
//   offset 32  char[S]  source (not NUL-terminated)
//   then N records of { i64 send_time_ns, i64 delay_ns }.
constexpr char kMagic[8] = {'F', 'D', 'Q', 'T', 'R', 'C', 'E', '\0'};
constexpr std::size_t kHeaderBytes = 32;
constexpr std::size_t kRecordBytes = 16;
constexpr std::uint32_t kMaxSourceBytes = 1u << 20;
constexpr long kCountOffset = 16;

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void put_i64(std::string& out, std::int64_t v) {
  put_u64(out, static_cast<std::uint64_t>(v));
}

std::uint32_t get_u32(const unsigned char* p) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

std::uint64_t get_u64(const unsigned char* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

std::int64_t get_i64(const unsigned char* p) {
  return static_cast<std::int64_t>(get_u64(p));
}

std::string fdt_header(const TraceMeta& meta, std::uint64_t count) {
  std::string out(kMagic, sizeof kMagic);
  put_u32(out, meta.schema_version);
  put_u32(out, static_cast<std::uint32_t>(
                   std::min<std::size_t>(meta.source.size(), kMaxSourceBytes)));
  put_u64(out, count);
  put_i64(out, meta.clock_base_ns);
  out.append(meta.source, 0,
             std::min<std::size_t>(meta.source.size(), kMaxSourceBytes));
  return out;
}

TraceLoadResult fail_load(std::string message) {
  TraceLoadResult result;
  result.error = std::move(message);
  return result;
}

}  // namespace

// ---------------------------------------------------------------------------
// Trace

std::vector<double> Trace::delays_ms() const {
  std::vector<double> out;
  out.reserve(delays.size());
  for (Duration d : delays) out.push_back(d.to_millis_double());
  return out;
}

// ---------------------------------------------------------------------------
// Loaders

TraceLoadResult load_trace(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return fail_load(path + ": cannot open: " + std::strerror(errno));
  }
  char magic[sizeof kMagic] = {};
  const std::size_t got = std::fread(magic, 1, sizeof magic, f);
  std::fclose(f);
  if (got == sizeof magic && std::memcmp(magic, kMagic, sizeof kMagic) == 0) {
    return load_trace_fdt(path);
  }
  return load_trace_csv(path);
}

TraceLoadResult load_trace_fdt(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) {
    return fail_load(path + ": cannot open: " + std::strerror(errno));
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string bytes = buffer.str();

  if (bytes.size() < kHeaderBytes) {
    return fail_load(path + ": truncated header (" +
                     std::to_string(bytes.size()) + " bytes, header needs " +
                     std::to_string(kHeaderBytes) + ")");
  }
  const auto* p = reinterpret_cast<const unsigned char*>(bytes.data());
  if (std::memcmp(p, kMagic, sizeof kMagic) != 0) {
    return fail_load(path + ": bad magic (not an .fdt trace)");
  }
  auto trace = std::make_shared<Trace>();
  trace->meta.schema_version = get_u32(p + 8);
  const std::uint32_t source_len = get_u32(p + 12);
  const std::uint64_t count = get_u64(p + 16);
  trace->meta.clock_base_ns = get_i64(p + 24);

  if (trace->meta.schema_version == 0 ||
      trace->meta.schema_version > kTraceSchemaVersion) {
    return fail_load(path + ": unsupported schema version " +
                     std::to_string(trace->meta.schema_version) +
                     " (this build reads up to " +
                     std::to_string(kTraceSchemaVersion) + ")");
  }
  if (source_len > kMaxSourceBytes) {
    return fail_load(path + ": source metadata length " +
                     std::to_string(source_len) + " exceeds the 1 MiB cap");
  }
  const std::size_t records_at = kHeaderBytes + source_len;
  if (bytes.size() < records_at) {
    return fail_load(path + ": truncated source metadata (header claims " +
                     std::to_string(source_len) + " bytes)");
  }
  trace->meta.source = bytes.substr(kHeaderBytes, source_len);

  const std::size_t payload = bytes.size() - records_at;
  if (payload != count * kRecordBytes) {
    return fail_load(path + ": truncated records (header claims " +
                     std::to_string(count) + " samples = " +
                     std::to_string(count * kRecordBytes) +
                     " bytes, file has " + std::to_string(payload) + ")");
  }
  if (count == 0) return fail_load(path + ": empty trace (0 samples)");

  trace->send_times.reserve(count);
  trace->delays.reserve(count);
  const unsigned char* rec = p + records_at;
  for (std::uint64_t i = 0; i < count; ++i, rec += kRecordBytes) {
    const std::int64_t send_ns = get_i64(rec);
    const std::int64_t delay_ns = get_i64(rec + 8);
    if (delay_ns < 0) {
      return fail_load(path + ": record " + std::to_string(i) +
                       ": negative delay " + std::to_string(delay_ns) + " ns");
    }
    trace->send_times.push_back(TimePoint::from_nanos(send_ns));
    trace->delays.push_back(Duration::nanos(delay_ns));
  }
  TraceLoadResult result;
  result.trace = std::move(trace);
  return result;
}

TraceLoadResult load_trace_csv(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) {
    return fail_load(path + ": cannot open: " + std::strerror(errno));
  }
  auto trace = std::make_shared<Trace>();
  std::string line;
  std::size_t line_no = 0;
  bool header_seen = false;
  while (std::getline(in, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty() || line[0] == '#') continue;
    // One header line is allowed anywhere before the first data row (leading
    // comment blocks may push it off line 1).
    if (!header_seen && trace->empty() && line == "send_time_ns,delay_ns") {
      header_seen = true;
      continue;
    }

    const char* text = line.c_str();
    char* end = nullptr;
    errno = 0;
    const long long send_ns = std::strtoll(text, &end, 10);
    bool parsed = end != text && *end == ',' && errno == 0;
    long long delay_ns = 0;
    if (parsed) {
      const char* second = end + 1;
      errno = 0;
      delay_ns = std::strtoll(second, &end, 10);
      parsed = end != second && *end == '\0' && errno == 0;
    }
    if (!parsed) {
      const std::string snippet =
          line.size() > 64 ? line.substr(0, 64) + "..." : line;
      return fail_load(path + ":" + std::to_string(line_no) +
                       ": cannot parse '" + snippet +
                       "' (want send_time_ns,delay_ns)");
    }
    if (delay_ns < 0) {
      return fail_load(path + ":" + std::to_string(line_no) +
                       ": negative delay " + std::to_string(delay_ns) + " ns");
    }
    trace->send_times.push_back(TimePoint::from_nanos(send_ns));
    trace->delays.push_back(Duration::nanos(delay_ns));
  }
  if (trace->empty()) return fail_load(path + ": empty trace (0 samples)");

  TraceLoadResult result;
  result.trace = std::move(trace);
  return result;
}

// ---------------------------------------------------------------------------
// Writers

bool save_trace_fdt(const Trace& trace, const std::string& path,
                    std::string* error) {
  FDQOS_REQUIRE(trace.send_times.size() == trace.delays.size());
  TraceFdtWriter writer(path, trace.meta);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    writer.append(trace.send_times[i], trace.delays[i]);
  }
  writer.finalize();
  if (!writer.ok() && error != nullptr) *error = writer.error();
  return writer.ok();
}

bool save_trace_csv(const Trace& trace, const std::string& path,
                    std::string* error) {
  FDQOS_REQUIRE(trace.send_times.size() == trace.delays.size());
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    if (error != nullptr) {
      *error = path + ": cannot open for writing: " + std::strerror(errno);
    }
    return false;
  }
  bool ok = std::fputs("send_time_ns,delay_ns\n", f) >= 0;
  for (std::size_t i = 0; i < trace.size() && ok; ++i) {
    ok = std::fprintf(f, "%lld,%lld\n",
                      static_cast<long long>(trace.send_times[i].count_nanos()),
                      static_cast<long long>(trace.delays[i].count_nanos())) > 0;
  }
  ok = std::fclose(f) == 0 && ok;
  if (!ok && error != nullptr) *error = path + ": write failed";
  return ok;
}

TraceFdtWriter::TraceFdtWriter(const std::string& path, TraceMeta meta) {
  file_ = std::fopen(path.c_str(), "wb");
  if (file_ == nullptr) {
    fail(path + ": cannot open for writing: " + std::strerror(errno));
    return;
  }
  const std::string header = fdt_header(meta, 0);
  if (std::fwrite(header.data(), 1, header.size(), file_) != header.size()) {
    fail(path + ": header write failed");
    return;
  }
  ok_ = true;
}

TraceFdtWriter::~TraceFdtWriter() {
  finalize();
}

void TraceFdtWriter::fail(const std::string& what) {
  ok_ = false;
  if (error_.empty()) error_ = what;
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

bool TraceFdtWriter::append(TimePoint send_time, Duration delay) {
  if (!ok_ || finalized_) return false;
  if (delay < Duration::zero()) {
    fail("negative delay " + std::to_string(delay.count_nanos()) + " ns");
    return false;
  }
  // Stack-encode the record: a 16-byte record overflows libstdc++'s 15-byte
  // SSO, so the old std::string path heap-allocated per sample — visible in
  // the serve daemon's capture path at millions of samples per second.
  unsigned char record[kRecordBytes];
  const auto send_ns = static_cast<std::uint64_t>(send_time.count_nanos());
  const auto delay_ns = static_cast<std::uint64_t>(delay.count_nanos());
  for (int i = 0; i < 8; ++i) {
    record[i] = static_cast<unsigned char>(send_ns >> (8 * i));
    record[8 + i] = static_cast<unsigned char>(delay_ns >> (8 * i));
  }
  if (std::fwrite(record, 1, sizeof record, file_) != sizeof record) {
    fail("record write failed");
    return false;
  }
  ++count_;
  return true;
}

bool TraceFdtWriter::finalize() {
  if (finalized_) return ok_;
  finalized_ = true;
  if (!ok_) return false;
  std::string count_bytes;
  put_u64(count_bytes, count_);
  if (std::fseek(file_, kCountOffset, SEEK_SET) != 0 ||
      std::fwrite(count_bytes.data(), 1, count_bytes.size(), file_) !=
          count_bytes.size()) {
    fail("sample-count patch failed");
    return false;
  }
  if (std::fclose(file_) != 0) {
    file_ = nullptr;
    fail("close failed");
    return false;
  }
  file_ = nullptr;
  return true;
}

// ---------------------------------------------------------------------------
// RotatingFdtWriter

RotatingFdtWriter::RotatingFdtWriter(Options opts) : opts_(std::move(opts)) {
  if (opts_.max_samples == 0) opts_.max_samples = 1;
  if (!open_segment()) ok_ = false;
}

RotatingFdtWriter::~RotatingFdtWriter() { finalize(); }

std::string RotatingFdtWriter::segment_path(std::size_t index) const {
  char suffix[24];
  std::snprintf(suffix, sizeof suffix, "-%05zu.fdt", index);
  return opts_.directory + "/" + opts_.prefix + suffix;
}

bool RotatingFdtWriter::open_segment() {
  live_path_ = segment_path(next_index_++);
  writer_ = std::make_unique<TraceFdtWriter>(live_path_, opts_.meta);
  if (!writer_->ok()) {
    if (error_.empty()) error_ = writer_->error();
    writer_.reset();
    return false;
  }
  return true;
}

bool RotatingFdtWriter::close_segment() {
  if (writer_ == nullptr) return true;
  const std::uint64_t samples = writer_->samples_written();
  const bool closed = writer_->finalize();
  if (!closed && error_.empty()) error_ = writer_->error();
  writer_.reset();
  if (samples == 0) {
    // A finalized 0-sample file is one the loader rejects ("empty trace");
    // leaving it behind would make every idle shutdown litter a broken
    // segment next to the good ones.
    std::remove(live_path_.c_str());
  } else if (closed) {
    segments_.push_back(live_path_);
  }
  return closed;
}

bool RotatingFdtWriter::append(TimePoint send_time, Duration delay) {
  if (!ok_ || finalized_ || writer_ == nullptr) return false;
  if (!writer_->append(send_time, delay)) {
    if (error_.empty()) error_ = writer_->error();
    ok_ = false;
    return false;
  }
  ++total_samples_;
  if (writer_->samples_written() >= opts_.max_samples) {
    if (!close_segment() || !open_segment()) ok_ = false;
  }
  return ok_;
}

bool RotatingFdtWriter::finalize() {
  if (finalized_) return ok_;
  finalized_ = true;
  if (!close_segment()) ok_ = false;
  return ok_;
}

// ---------------------------------------------------------------------------
// Recording

void TraceRecorder::record(TimePoint send_time, Duration delay) {
  send_times_.push_back(send_time);
  delays_.push_back(delay);
}

std::vector<double> TraceRecorder::delays_ms() const {
  std::vector<double> out;
  out.reserve(delays_.size());
  for (Duration d : delays_) out.push_back(d.to_millis_double());
  return out;
}

bool TraceRecorder::save(const std::string& path) const {
  Trace trace;
  trace.send_times = send_times_;
  trace.delays = delays_;
  return save_trace_csv(trace, path);
}

TraceRecorder& TraceRecorderHub::shard(std::uint64_t key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = shards_[key];
  if (slot == nullptr) slot = std::make_unique<TraceRecorder>();
  return *slot;
}

TraceRecorder& TraceRecorderHub::fresh_shard() {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = shards_[next_auto_key_++];
  slot = std::make_unique<TraceRecorder>();
  return *slot;
}

std::size_t TraceRecorderHub::shard_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return shards_.size();
}

std::size_t TraceRecorderHub::total_samples() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const auto& [key, rec] : shards_) n += rec->size();
  return n;
}

Trace TraceRecorderHub::merged(TraceMeta meta) const {
  std::lock_guard<std::mutex> lock(mu_);
  Trace out;
  out.meta = std::move(meta);
  std::size_t total = 0;
  for (const auto& [key, rec] : shards_) total += rec->size();
  out.send_times.reserve(total);
  out.delays.reserve(total);
  for (const auto& [key, rec] : shards_) {  // std::map: ascending key order
    out.send_times.insert(out.send_times.end(), rec->send_times().begin(),
                          rec->send_times().end());
    out.delays.insert(out.delays.end(), rec->delays().begin(),
                      rec->delays().end());
  }
  return out;
}

RecordingDelay::RecordingDelay(std::unique_ptr<DelayModel> inner,
                               std::shared_ptr<TraceRecorderHub> hub,
                               std::uint64_t key)
    : inner_(std::move(inner)), hub_(std::move(hub)) {
  FDQOS_REQUIRE(inner_ != nullptr && hub_ != nullptr);
  shard_ = &hub_->shard(key);
  name_ = "recording(" + inner_->name() + ")";
}

RecordingDelay::RecordingDelay(std::unique_ptr<DelayModel> inner,
                               std::shared_ptr<TraceRecorderHub> hub)
    : inner_(std::move(inner)), hub_(std::move(hub)) {
  FDQOS_REQUIRE(inner_ != nullptr && hub_ != nullptr);
  shard_ = &hub_->fresh_shard();
  name_ = "recording(" + inner_->name() + ")";
}

Duration RecordingDelay::sample(Rng& rng, TimePoint send_time) {
  const Duration d = inner_->sample(rng, send_time);
  shard_->record(send_time, d);
  return d;
}

std::unique_ptr<DelayModel> RecordingDelay::make_fresh() const {
  // A fresh clone records into its own fresh shard: clones running on
  // different threads never touch the same vectors.
  return std::make_unique<RecordingDelay>(inner_->make_fresh(), hub_);
}

// ---------------------------------------------------------------------------
// Replay

const char* replay_policy_name(ReplayPolicy policy) {
  switch (policy) {
    case ReplayPolicy::kTruncate: return "truncate";
    case ReplayPolicy::kExtend: return "extend";
  }
  return "?";
}

std::optional<ReplayPolicy> parse_replay_policy(const std::string& text) {
  if (text == "truncate") return ReplayPolicy::kTruncate;
  if (text == "extend") return ReplayPolicy::kExtend;
  return std::nullopt;
}

TraceTailModel fit_trace_tail(const std::vector<Duration>& delays) {
  TraceTailModel model;
  if (delays.empty()) return model;
  model.floor = *std::min_element(delays.begin(), delays.end());
  model.cap = *std::max_element(delays.begin(), delays.end());

  // Method-of-moments log-normal on the excess over the floor, in ms.
  double mean = 0.0;
  for (Duration d : delays) mean += (d - model.floor).to_millis_double();
  mean /= static_cast<double>(delays.size());
  double var = 0.0;
  for (Duration d : delays) {
    const double x = (d - model.floor).to_millis_double() - mean;
    var += x * x;
  }
  var /= static_cast<double>(delays.size());

  if (mean <= 0.0 || var <= 0.0) return model;  // constant trace: stay flat
  const double sigma_sq = std::log(1.0 + var / (mean * mean));
  model.sigma = std::sqrt(sigma_sq);
  model.mu = std::log(mean) - sigma_sq / 2.0;
  model.degenerate = false;
  return model;
}

Duration TraceTailModel::sample(Rng& rng) const {
  if (degenerate) return floor;
  const Duration d =
      floor + Duration::from_millis_double(rng.lognormal(mu, sigma));
  return std::min(d, cap);
}

TraceReplayDelay::TraceReplayDelay(std::vector<Duration> delays,
                                   ReplayPolicy policy)
    : TraceReplayDelay(
          std::make_shared<const std::vector<Duration>>(std::move(delays)),
          policy) {}

TraceReplayDelay::TraceReplayDelay(
    std::shared_ptr<const std::vector<Duration>> delays, ReplayPolicy policy)
    : delays_(std::move(delays)), policy_(policy) {
  FDQOS_REQUIRE(delays_ != nullptr && !delays_->empty());
  if (policy_ == ReplayPolicy::kExtend) tail_ = fit_trace_tail(*delays_);
  char buf[64];
  std::snprintf(buf, sizeof buf, "trace(%zu,%s)", delays_->size(),
                replay_policy_name(policy_));
  name_ = buf;
}

std::unique_ptr<TraceReplayDelay> TraceReplayDelay::load(
    const std::string& path, ReplayPolicy policy) {
  auto delays = load_trace_data(path);
  if (delays == nullptr) return nullptr;
  return std::make_unique<TraceReplayDelay>(std::move(delays), policy);
}

std::shared_ptr<const std::vector<Duration>> TraceReplayDelay::load_trace_data(
    const std::string& path) {
  TraceLoadResult loaded = load_trace(path);
  if (!loaded.ok()) {
    FDQOS_LOG_WARN("trace load failed: %s", loaded.error.c_str());
    return nullptr;
  }
  // Aliasing share: the vector lives inside (and as long as) the Trace.
  return std::shared_ptr<const std::vector<Duration>>(loaded.trace,
                                                      &loaded.trace->delays);
}

Duration TraceReplayDelay::sample(Rng& rng, TimePoint) {
  if (next_ >= delays_->size()) {
    switch (policy_) {
      case ReplayPolicy::kTruncate:
        // A truncate-policy experiment is supposed to end with the trace
        // (run_qos_experiment clamps its cycle count); repeating the last
        // delay keeps a misconfigured caller limping along visibly.
        ++overruns_;
        if (!warned_end_) {
          FDQOS_LOG_ERROR(
              "trace replay overran %zu samples under policy=truncate; "
              "repeating the final delay (clamp the experiment to the "
              "trace length, or replay with extend)",
              delays_->size());
          warned_end_ = true;
        }
        return delays_->back();
      case ReplayPolicy::kExtend:
        ++extended_;
        return tail_.sample(rng);
    }
  }
  return (*delays_)[next_++];
}

std::unique_ptr<DelayModel> TraceReplayDelay::make_fresh() const {
  return std::make_unique<TraceReplayDelay>(delays_, policy_);
}

}  // namespace fdqos::wan
