// bench_serve — loopback load generator and ingest-ceiling sweep for the
// `fdqos serve` daemon (ROADMAP item 4, docs/serve.md).
//
// Each phase boots an in-process ServeDaemon (its own thread, ephemeral
// port, capture off unless stated) and drives it from a loopback sender
// for --phase-s seconds, then stops the daemon and reads its counters —
// offered vs. ingested is measured end to end through recvmmsg → codec →
// FleetIngest → FleetBank::ingest_columns, exactly the production path.
//
// Two wire modes:
//   packed  "FDQB" batches, --records heartbeats per datagram — the
//           high-rate sender contract (one datagram ≈ one syscall per
//           hundreds of heartbeats on both sides).
//   single  one "FDQ1" heartbeat per datagram — what UdpTransport mesh
//           peers emit; per-datagram syscall cost bounds this mode.
//
// Per mode the sweep runs an unpaced saturation phase (sender blasts as
// fast as the loopback accepts) plus a ladder of paced phases at the
// --rates / --single-rates targets. The sustained ceiling reported is the
// highest paced rate the daemon ingested with >= 98% delivery while the
// sender held >= 98% of the target. A final packed phase re-runs with
// rotating .fdt capture on, pricing the capture path.
//
// Writes one row (an object; "phases" has one entry per phase) to --out
// (default serve_row.json), stamped with `commit` (`git describe --always
// --dirty` of the working directory, "unknown" outside a checkout) and
// `hw_jobs` (hardware threads). BENCH_serve.json checks in a list of such
// rows, oldest first.
//
//   bench_serve [--endpoints N] [--phase-s S] [--records R] [--batch B]
//               [--eta-ms MS] [--rates R1,R2,...] [--single-rates ...]
//               [--modes packed,single] [--no-capture-phase] [--out FILE]
//
// Sender-only mode, for driving an external daemon (scripts/serve_smoke.sh):
//   bench_serve --send-only --target PORT [--rate HBPS] [--duration-s S]
//               [--records R] [--endpoints N] [--host IP]
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/args.hpp"
#include "common/time.hpp"
#include "exec/thread_pool.hpp"
#include "git_describe.hpp"
#include "net/codec.hpp"
#include "serve/daemon.hpp"

using namespace fdqos;

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::vector<std::int64_t> parse_rates(const std::string& text) {
  std::vector<std::int64_t> out;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t comma = text.find(',', pos);
    const std::string tok = text.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    if (!tok.empty()) out.push_back(std::atoll(tok.c_str()));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

// Loopback heartbeat generator. One connected UDP socket; heartbeats
// round-robin over `endpoints` source ids with per-endpoint sequence
// counters; datagrams go out in sendmmsg bursts on Linux (sendto loop
// elsewhere). records == 1 sends single "FDQ1" frames, > 1 packed "FDQB".
class Sender {
 public:
  Sender(const std::string& host, std::uint16_t port, std::size_t endpoints,
         std::size_t records)
      : endpoints_(endpoints), records_(records), seqs_(endpoints, 0) {
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof addr);
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) return;
    fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
    if (fd_ < 0) return;
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof addr) != 0) {
      ::close(fd_);
      fd_ = -1;
      return;
    }
    const int sndbuf = 4 << 20;
    (void)::setsockopt(fd_, SOL_SOCKET, SO_SNDBUF, &sndbuf, sizeof sndbuf);
    bufs_.resize(kBurst);
    if (records_ <= 1) {
      // Prototype "FDQ1" heartbeat (empty payload), 36 bytes; the hot loop
      // patches from/seq/send_time in place.
      net::Message proto;
      proto.type = net::MessageType::kHeartbeat;
      single_proto_ = net::encode_message(proto);
    }
  }
  ~Sender() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool ok() const { return fd_ >= 0; }
  std::uint64_t offered() const { return offered_; }

  // Sends for `seconds`, pacing at `target_hbps` heartbeats/sec (0 =
  // unpaced saturation). Returns actual elapsed seconds.
  double run(double seconds, std::int64_t target_hbps) {
    const std::int64_t start = now_ns();
    const std::int64_t deadline =
        start + static_cast<std::int64_t>(seconds * 1e9);
    const std::size_t per_datagram = records_ <= 1 ? 1 : records_;
    std::uint64_t sent_hb = 0;
    while (now_ns() < deadline) {
      const std::size_t burst = fill_burst();
      const std::size_t sent = send_burst(burst);
      sent_hb += sent * per_datagram;
      offered_ += sent * per_datagram;
      if (sent < burst) {
        // Loopback backpressure (receiver rcvbuf full): a short stall
        // gives the daemon a slice to drain on a single-core box.
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
      if (target_hbps > 0) {
        // Stay on the offered-load schedule: heartbeats sent so far
        // should take sent_hb / rate seconds.
        const std::int64_t due =
            start + static_cast<std::int64_t>(
                        static_cast<double>(sent_hb) / target_hbps * 1e9);
        std::int64_t now = now_ns();
        if (due - now > 2'000'000) {
          std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
        } else {
          while (now_ns() < due) {
          }
        }
      }
    }
    return static_cast<double>(now_ns() - start) / 1e9;
  }

 private:
  static constexpr std::size_t kBurst = 16;

  // Builds up to kBurst datagrams of fresh heartbeats; returns the count.
  std::size_t fill_burst() {
    for (std::size_t d = 0; d < kBurst; ++d) {
      std::vector<std::uint8_t>& buf = bufs_[d];
      if (records_ <= 1) {
        buf = single_proto_;
        patch_single(buf);
      } else {
        net::begin_packed_batch(buf);
        for (std::size_t r = 0; r < records_; ++r) {
          net::append_packed_heartbeat(buf, next_from(),
                                       ++seqs_[cursor_],
                                       TimePoint::from_nanos(now_ns()));
          advance();
        }
        net::finish_packed_batch(buf);
      }
    }
    return kBurst;
  }

  net::NodeId next_from() { return static_cast<net::NodeId>(cursor_); }
  void advance() { cursor_ = (cursor_ + 1) % endpoints_; }

  void patch_single(std::vector<std::uint8_t>& buf) {
    const auto from = static_cast<std::uint32_t>(cursor_);
    const auto seq = static_cast<std::uint64_t>(++seqs_[cursor_]);
    const auto send = static_cast<std::uint64_t>(now_ns());
    for (int i = 0; i < 4; ++i) {
      buf[4 + i] = static_cast<std::uint8_t>(from >> (8 * i));
    }
    for (int i = 0; i < 8; ++i) {
      buf[16 + i] = static_cast<std::uint8_t>(seq >> (8 * i));
      buf[24 + i] = static_cast<std::uint8_t>(send >> (8 * i));
    }
    advance();
  }

  // Returns datagrams actually sent.
  std::size_t send_burst(std::size_t count) {
#ifdef __linux__
    mmsghdr msgs[kBurst];
    iovec iovs[kBurst];
    std::memset(msgs, 0, sizeof msgs);
    for (std::size_t i = 0; i < count; ++i) {
      iovs[i].iov_base = bufs_[i].data();
      iovs[i].iov_len = bufs_[i].size();
      msgs[i].msg_hdr.msg_iov = &iovs[i];
      msgs[i].msg_hdr.msg_iovlen = 1;
    }
    int rc;
    do {
      rc = ::sendmmsg(fd_, msgs, static_cast<unsigned>(count), 0);
    } while (rc < 0 && errno == EINTR);
    return rc < 0 ? 0 : static_cast<std::size_t>(rc);
#else
    std::size_t sent = 0;
    for (std::size_t i = 0; i < count; ++i) {
      ssize_t rc;
      do {
        rc = ::send(fd_, bufs_[i].data(), bufs_[i].size(), 0);
      } while (rc < 0 && errno == EINTR);
      if (rc >= 0) ++sent;
    }
    return sent;
#endif
  }

  std::size_t endpoints_;
  std::size_t records_;
  std::size_t cursor_ = 0;
  int fd_ = -1;
  std::uint64_t offered_ = 0;
  std::vector<std::int64_t> seqs_;
  std::vector<std::vector<std::uint8_t>> bufs_;
  std::vector<std::uint8_t> single_proto_;
};

struct PhaseResult {
  std::string mode;
  std::size_t records = 1;
  bool capture = false;
  std::int64_t target_hbps = 0;  // 0 = saturation
  std::uint64_t offered = 0;
  std::uint64_t ingested = 0;
  std::uint64_t datagrams = 0;
  std::uint64_t batches = 0;
  std::uint64_t drops_decode = 0;
  std::uint64_t drops_capacity = 0;
  std::uint64_t captured = 0;
  double wall_s = 0.0;

  double offered_hbps() const { return wall_s > 0 ? offered / wall_s : 0; }
  double ingested_hbps() const { return wall_s > 0 ? ingested / wall_s : 0; }
  double delivery() const {
    return offered > 0 ? static_cast<double>(ingested) / offered : 0.0;
  }
};

struct PhaseOpts {
  std::size_t endpoints = 64;
  std::size_t batch = 32;
  std::int64_t eta_ms = 100;
  double phase_s = 2.0;
  std::string capture_dir = ".";
};

PhaseResult run_phase(const PhaseOpts& opts, std::size_t records,
                      std::int64_t target_hbps, bool capture) {
  serve::ServeConfig config;
  config.host = "127.0.0.1";
  config.port = 0;
  config.max_endpoints = opts.endpoints;
  config.eta = Duration::millis(opts.eta_ms);
  config.batch = opts.batch;
  config.capture = capture;
  config.capture_dir = opts.capture_dir;
  config.capture_prefix = "bench-serve";
  config.suite = "lite";
  config.run_id = "bench-serve";
  serve::ServeDaemon daemon(config);
  PhaseResult result;
  result.mode = records <= 1 ? "single" : "packed";
  result.records = records <= 1 ? 1 : records;
  result.capture = capture;
  result.target_hbps = target_hbps;
  if (!daemon.init()) {
    std::fprintf(stderr, "bench_serve: daemon init failed\n");
    return result;
  }
  std::thread daemon_thread([&daemon] { daemon.run(); });
  Sender sender("127.0.0.1", daemon.udp_port(), opts.endpoints, records);
  if (!sender.ok()) {
    std::fprintf(stderr, "bench_serve: sender socket failed\n");
    daemon.request_stop();
    daemon_thread.join();
    return result;
  }
  result.wall_s = sender.run(opts.phase_s, target_hbps);
  // Let the daemon drain what the kernel still queues before stopping.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  daemon.request_stop();
  daemon_thread.join();

  result.offered = sender.offered();
  const serve::ServeDaemon::Stats& stats = daemon.stats();
  result.ingested = stats.heartbeats;
  result.datagrams = stats.datagrams;
  result.batches = stats.batches;
  result.drops_decode = stats.drops_decode;
  result.drops_capacity = stats.drops_capacity;
  result.captured = stats.captured;
  return result;
}

std::string phase_json(const PhaseResult& p) {
  char line[512];
  std::snprintf(
      line, sizeof line,
      "    {\"mode\": \"%s\", \"records_per_datagram\": %zu, "
      "\"capture\": %s, \"target_hbps\": %lld, \"wall_s\": %.3f, "
      "\"offered\": %llu, \"offered_hbps\": %.0f, \"ingested\": %llu, "
      "\"ingested_hbps\": %.0f, \"delivery\": %.4f, \"datagrams\": %llu, "
      "\"batches\": %llu, \"drops_decode\": %llu, \"drops_capacity\": %llu, "
      "\"captured\": %llu}",
      p.mode.c_str(), p.records, p.capture ? "true" : "false",
      static_cast<long long>(p.target_hbps), p.wall_s,
      static_cast<unsigned long long>(p.offered), p.offered_hbps(),
      static_cast<unsigned long long>(p.ingested), p.ingested_hbps(),
      p.delivery(), static_cast<unsigned long long>(p.datagrams),
      static_cast<unsigned long long>(p.batches),
      static_cast<unsigned long long>(p.drops_decode),
      static_cast<unsigned long long>(p.drops_capacity),
      static_cast<unsigned long long>(p.captured));
  return line;
}

int send_only(const ArgParser& args) {
  const std::string host = args.get_string("--host", "127.0.0.1");
  const auto port = args.get_int("--target", 0);
  const auto rate = args.get_int("--rate", 0);
  const double duration_s = args.get_double("--duration-s", 1.0);
  const auto records = args.get_int("--records", 64);
  const auto endpoints = args.get_int("--endpoints", 16);
  if (port <= 0 || port > 65535) {
    std::fprintf(stderr, "bench_serve: --send-only needs --target PORT\n");
    return 2;
  }
  Sender sender(host, static_cast<std::uint16_t>(port),
                static_cast<std::size_t>(std::max<std::int64_t>(1, endpoints)),
                static_cast<std::size_t>(std::max<std::int64_t>(1, records)));
  if (!sender.ok()) {
    std::fprintf(stderr, "bench_serve: cannot open sender socket\n");
    return 1;
  }
  const double wall = sender.run(duration_s, rate);
  std::printf("sent %llu heartbeats in %.3f s (%.0f hb/s offered)\n",
              static_cast<unsigned long long>(sender.offered()), wall,
              wall > 0 ? sender.offered() / wall : 0.0);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const ArgParser args(argc, argv);
  if (args.get_flag("--send-only")) return send_only(args);

  PhaseOpts opts;
  opts.endpoints =
      static_cast<std::size_t>(std::max<std::int64_t>(1, args.get_int("--endpoints", 64)));
  opts.batch =
      static_cast<std::size_t>(std::max<std::int64_t>(1, args.get_int("--batch", 32)));
  opts.eta_ms = std::max<std::int64_t>(1, args.get_int("--eta-ms", 100));
  opts.phase_s = std::max(0.05, args.get_double("--phase-s", 2.0));
  opts.capture_dir = args.get_string("--capture-dir", ".");
  const auto records = static_cast<std::size_t>(
      std::max<std::int64_t>(2, args.get_int("--records", 256)));
  const std::vector<std::int64_t> packed_rates = parse_rates(args.get_string(
      "--rates", "500000,1000000,1500000,2000000"));
  const std::vector<std::int64_t> single_rates = parse_rates(
      args.get_string("--single-rates", "100000,250000,500000"));
  const std::string modes = args.get_string("--modes", "packed,single");
  const bool capture_phase = !args.get_flag("--no-capture-phase");
  const std::string out_path = args.get_string("--out", "serve_row.json");
  const bool run_packed = modes.find("packed") != std::string::npos;
  const bool run_single = modes.find("single") != std::string::npos;

  std::vector<PhaseResult> phases;
  auto announce = [](const PhaseResult& p) {
    std::printf("%-6s r=%-4zu target=%-9lld offered %9.0f hb/s  ingested "
                "%9.0f hb/s  delivery %.4f%s\n",
                p.mode.c_str(), p.records,
                static_cast<long long>(p.target_hbps), p.offered_hbps(),
                p.ingested_hbps(), p.delivery(),
                p.capture ? "  [capture]" : "");
    std::fflush(stdout);
  };

  if (run_packed) {
    phases.push_back(run_phase(opts, records, 0, false));
    announce(phases.back());
    for (const std::int64_t rate : packed_rates) {
      phases.push_back(run_phase(opts, records, rate, false));
      announce(phases.back());
    }
    if (capture_phase) {
      phases.push_back(run_phase(opts, records, 0, true));
      announce(phases.back());
    }
  }
  if (run_single) {
    phases.push_back(run_phase(opts, 1, 0, false));
    announce(phases.back());
    for (const std::int64_t rate : single_rates) {
      phases.push_back(run_phase(opts, 1, rate, false));
      announce(phases.back());
    }
  }

  // Sustained ceiling: highest paced target held by both sides — sender
  // offered >= 98% of target, daemon ingested >= 98% of offered.
  double sustained = 0.0;
  double saturation_packed = 0.0;
  double saturation_single = 0.0;
  for (const PhaseResult& p : phases) {
    if (p.target_hbps > 0 && !p.capture &&
        p.offered_hbps() >= 0.98 * static_cast<double>(p.target_hbps) &&
        p.delivery() >= 0.98) {
      sustained = std::max(sustained, p.ingested_hbps());
    }
    if (p.target_hbps == 0 && !p.capture) {
      if (p.mode == "packed") {
        saturation_packed = std::max(saturation_packed, p.ingested_hbps());
      } else {
        saturation_single = std::max(saturation_single, p.ingested_hbps());
      }
    }
  }

  std::string json = "{\n";
  const std::string commit = tools::current_commit();
  char head[384];
  std::snprintf(head, sizeof head,
                "  \"bench\": \"serve\",\n  \"commit\": \"%s\",\n"
                "  \"hw_jobs\": %zu,\n  \"endpoints\": %zu,\n"
                "  \"batch\": %zu,\n  \"eta_ms\": %lld,\n"
                "  \"phase_s\": %.2f,\n",
                commit.c_str(), exec::hardware_jobs(), opts.endpoints,
                opts.batch, static_cast<long long>(opts.eta_ms),
                opts.phase_s);
  json += head;
  json += "  \"phases\": [\n";
  for (std::size_t i = 0; i < phases.size(); ++i) {
    json += phase_json(phases[i]);
    json += i + 1 < phases.size() ? ",\n" : "\n";
  }
  json += "  ],\n";
  char tail[256];
  std::snprintf(tail, sizeof tail,
                "  \"sustained_ceiling_hbps\": %.0f,\n"
                "  \"saturation_packed_hbps\": %.0f,\n"
                "  \"saturation_single_hbps\": %.0f\n}\n",
                sustained, saturation_packed, saturation_single);
  json += tail;

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_serve: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::printf("%s", json.c_str());
  return 0;
}
