// perfbench_selftest — checks the benchmark itself: the generator keeps to
// its schedule, block attribution recovers planted detections, and every
// output check fails on a corrupted input.
//
//   perfbench_selftest --work-dir DIR
#include <poll.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <utility>

#include "attribution.hpp"
#include "checks.hpp"
#include "exp/report.hpp"
#include "generator.hpp"
#include "net/codec.hpp"
#include "net/udp_ingest.hpp"
#include "record.hpp"
#include "schedule.hpp"
#include "wan/tracestore.hpp"

using namespace perfbench;

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

bool any_contains(const std::vector<std::string>& lines,
                  const std::string& needle) {
  for (const std::string& line : lines) {
    if (line.find(needle) != std::string::npos) return true;
  }
  return false;
}

// Sends a tiny schedule over loopback and checks every heartbeat: seq = k,
// stamped no earlier than its due time and less than half a period later
// (so never in another heartbeat's slot, while a shared host may still
// stall the sender for milliseconds), exactly once unless its group is
// silent, and block records pointing at the right datagram count.
void generator_keeps_schedule(bool packed) {
  ScheduleConfig cfg;
  cfg.endpoints = 40;
  cfg.groups = 4;
  cfg.eta_ns = 50'000'000;
  cfg.packed = packed;
  cfg.pack = 4;
  cfg.periods = 14;
  cfg.warm_periods = 2;
  cfg.block_spacing_ns = 35'000'000;
  cfg.seed = 7;
  const Schedule schedule(cfg);
  const std::string mode = packed ? "packed" : "single";
  expect(!schedule.blocks().empty(), mode + ": schedule has blocks");

  fdqos::net::UdpIngestSocket::Options opts;
  fdqos::net::UdpIngestSocket socket(opts);
  Generator generator(schedule, socket.local_port());
  expect(socket.ok() && generator.ok(), mode + ": loopback sockets open");
  if (!socket.ok() || !generator.ok()) return;

  std::atomic<bool> done{false};
  const std::int64_t t0 = now_ns() + 2'000'000;
  GeneratorLog log;
  std::thread sender([&] {
    log = generator.run(t0);
    done.store(true);
  });
  std::map<std::pair<std::int32_t, std::int64_t>, int> seen;
  std::map<std::int32_t, std::size_t> group_of;
  for (std::size_t g = 0; g < schedule.groups(); ++g) {
    for (const auto id : schedule.group_members(g)) group_of[id] = g;
  }
  bool decodes = true;
  std::int64_t worst_late = 0, earliest = 0;
  std::uint64_t datagrams = 0;
  const auto take = [&](const fdqos::net::HeartbeatFrame& f) {
    ++seen[{f.from, f.seq}];
    const std::int64_t due =
        t0 + schedule.burst_offset_ns(f.seq, group_of[f.from]);
    const std::int64_t late = f.send_time.count_nanos() - due;
    worst_late = std::max(worst_late, late);
    earliest = std::min(earliest, late);
  };
  for (;;) {
    const std::size_t n = socket.recv_batch();
    for (std::size_t i = 0; i < n; ++i) {
      ++datagrams;
      fdqos::net::HeartbeatFrame frame;
      fdqos::net::PackedBatchView view;
      if (packed && fdqos::net::decode_packed_batch(socket.datagram(i), view)) {
        for (std::uint32_t j = 0; j < view.count(); ++j) {
          view.get(j, frame);
          take(frame);
        }
      } else if (!packed &&
                 fdqos::net::decode_heartbeat_frame(socket.datagram(i), frame)) {
        take(frame);
      } else {
        decodes = false;
      }
    }
    if (n > 0) continue;
    pollfd pfd{socket.fd(), POLLIN, 0};
    if (::poll(&pfd, 1, 20) == 0 && done.load()) break;
  }
  sender.join();

  bool exact = true;
  for (std::int64_t k = 0; k < cfg.periods; ++k) {
    for (std::size_t g = 0; g < schedule.groups(); ++g) {
      for (const auto id : schedule.group_members(g)) {
        const auto it = seen.find({id, k});
        const int count = it == seen.end() ? 0 : it->second;
        if (count != (schedule.silent(g, k) ? 0 : 1)) exact = false;
      }
    }
  }
  expect(decodes, mode + ": every datagram decodes");
  expect(exact, mode + ": each due heartbeat arrives once with seq = k, "
                       "silent ones never");
  expect(earliest >= 0 && worst_late < cfg.eta_ns / 2,
         mode + ": send stamps at or after the due time, within half a "
                "period (worst " + std::to_string(worst_late / 1000) + " us)");
  expect(log.datagrams_sent == datagrams && log.send_failures == 0,
         mode + ": generator count matches what arrived");
  expect(log.heartbeats_sent == schedule.total_heartbeats(),
         mode + ": generator sent every scheduled heartbeat");
  bool blocks_ok = log.block_send_ns.size() == schedule.blocks().size();
  std::uint64_t upto = 0;
  std::size_t b = 0;
  for (std::int64_t k = 0; k < cfg.periods && blocks_ok; ++k) {
    for (std::size_t g = 0; g < schedule.groups(); ++g) {
      upto += schedule.datagrams_in_burst(k, g);
      if (b < schedule.blocks().size() && schedule.blocks()[b].last_k == k &&
          schedule.blocks()[b].group == g) {
        blocks_ok = blocks_ok && log.block_datagrams[b] == upto;
        ++b;
      }
    }
  }
  expect(blocks_ok, mode + ": block records carry their burst's datagram "
                           "count");
}

void attribution_recovers_planted_detection() {
  const std::int64_t ms = 1'000'000;
  AttributionParams params;
  params.eta_ns = 100 * ms;
  params.width_ns = 50 * ms;
  params.persist_ns = 2 * ms;
  // Block c (10 endpoints, last heartbeat at 950 ms) is detected at 1060 ms
  // and recovers when the daemon drains its resume burst (datagram 70, at
  // 1101 ms). Our block b (last heartbeat at 1000 ms, drained at 1001 ms)
  // is detected at 1104 ms; before that, inside b's window, a phase group
  // of the same size is falsely suspected for half a millisecond.
  std::vector<CounterSample> samples = {
      {0, 0, 0},
      {1000 * ms, 0, 49},
      {1001 * ms, 0, 50},
      {1060 * ms, 10, 60},       // c detected
      {1101 * ms, 0, 70},        // c recovers
      {1102 * ms, 10, 70},       // false suspicion of a whole group
      {1102 * ms + ms / 2, 0, 70},
      {1103 * ms, 4, 70},        // b, partly
      {1104 * ms, 10, 71},       // b, whole
      {1300 * ms, 10, 90},
  };
  std::vector<BlockEvidence> blocks = {{950 * ms, 45, 70, 10},
                                       {1000 * ms, 50, 90, 10}};
  auto found = attribute_blocks(samples, blocks, params);
  expect(found.size() == 2 && found[0].detected && found[1].detected &&
             std::abs(found[0].td_ms - 110.0) < 0.01 &&
             std::abs(found[1].td_ms - 104.0) < 0.01,
         "attribution: planted detections recovered, transient ignored");

  // b detected at 1103 ms while c recovers 1 ms later: c's step down is
  // added back during the persistence check.
  std::vector<CounterSample> overlap = {
      {0, 0, 0},          {1001 * ms, 0, 50},  {1060 * ms, 10, 60},
      {1103 * ms, 20, 65}, {1104 * ms, 10, 70}, {1300 * ms, 10, 90},
  };
  found = attribute_blocks(overlap, blocks, params);
  expect(found.size() == 2 && found[1].detected &&
             std::abs(found[1].td_ms - 103.0) < 0.01,
         "attribution: a recovery right after a detection does not hide it");

  // b only half detected inside its window: censored.
  samples[8].suspected = 5;
  samples[9].suspected = 5;
  found = attribute_blocks(samples, blocks, params);
  expect(found.size() == 2 && !found[1].detected,
         "attribution: partial detection is censored");

  // b detected after its window (drained at 1001 ms, window ends 1151 ms).
  samples[7] = {1199 * ms, 0, 70};
  samples[8] = {1200 * ms, 10, 71};
  found = attribute_blocks(samples, blocks, params);
  expect(found.size() == 2 && !found[1].detected,
         "attribution: detection after the window is censored");

  // A block whose burst the daemon never drained.
  blocks[1].datagrams = 1000;
  found = attribute_blocks(samples, blocks, params);
  expect(found.size() == 2 && !found[1].detected,
         "attribution: undrained block is censored");
}

void paper_checks_fail_on_corruption() {
  fdqos::exp::QosExperimentConfig config;
  config.runs = 1;
  config.num_cycles = 800;
  config.seed = 5;
  config.jobs = 1;
  fdqos::exp::QosReport report = fdqos::exp::run_qos_experiment(config);
  const std::string fp = fdqos::exp::qos_report_fingerprint(report);
  const auto& m = report.results.front().metrics;
  const std::vector<std::uint64_t> pending = {
      m.crashes_observed - m.detections - m.missed_detections};
  expect(check_paper({&report}, {fp, fp}, pending, 5).empty(),
         "paper check: a clean report passes");

  std::string flipped = fp;
  flipped[flipped.size() / 2] ^= 0x01;
  expect(any_contains(check_paper({&report}, {fp, flipped}, pending, 5),
                      "differs"),
         "paper check: a flipped fingerprint byte fails");
  expect(any_contains(check_paper({&report}, {flipped}, pending, 42),
                      "pinned"),
         "paper check: a seed-42 fingerprint off the pin fails");

  fdqos::exp::QosReport corrupt = report;
  corrupt.heartbeats_delivered = corrupt.heartbeats_sent + 1;
  expect(any_contains(check_paper({&corrupt}, {fp}, pending, 5), "invariant"),
         "paper check: a report breaking an invariant fails");
  corrupt = report;
  ++corrupt.results.back().metrics.crashes_observed;
  expect(any_contains(check_paper({&corrupt}, {fp}, pending, 5), "pending"),
         "paper check: a crash count off the per-run accounting fails");
  expect(any_contains(check_paper({&report}, {fp}, {2, 0}, 5), "pending"),
         "paper check: two crashes pending in one run fail");
}

void serve_checks_fail_on_corruption(const std::string& dir) {
  std::filesystem::create_directories(dir);
  fdqos::wan::RotatingFdtWriter::Options opts;
  opts.directory = dir;
  opts.prefix = "selftest";
  opts.max_samples = 100;
  std::vector<std::string> segments;
  {
    fdqos::wan::RotatingFdtWriter writer(opts);
    for (int i = 0; i < 250; ++i) {
      writer.append(fdqos::TimePoint::from_nanos(i * 1000),
                    fdqos::Duration::nanos(500));
    }
    writer.finalize();
    segments = writer.segments();
  }
  ServeFacts good;
  good.endpoints = 10;
  good.admitted = 10;
  good.offered = 300;
  good.ingested = 250;
  good.datagrams_sent = 30;
  good.datagrams_received = 25;
  good.capture = true;
  good.captured = 250;
  good.segments = segments;
  expect(check_serve(good).empty(), "serve check: clean facts pass");

  const auto fails = [&](const char* what, auto corrupt) {
    ServeFacts f = good;
    corrupt(f);
    expect(!check_serve(f).empty(), std::string("serve check: ") + what);
  };
  fails("decode drops fail", [](ServeFacts& f) { f.drops_decode = 1; });
  fails("capacity drops fail", [](ServeFacts& f) { f.drops_capacity = 1; });
  fails("a missing admission fails", [](ServeFacts& f) { f.admitted = 9; });
  fails("ingested > offered fails", [](ServeFacts& f) { f.ingested = 301; });
  fails("received > sent fails",
        [](ServeFacts& f) { f.datagrams_received = 31; });
  fails("captured != ingested fails", [](ServeFacts& f) { f.captured = 249; });
  fails("a lost segment fails", [](ServeFacts& f) { f.segments.pop_back(); });
  fails("capture off with samples fails",
        [](ServeFacts& f) { f.capture = false; });

  std::filesystem::resize_file(segments.back(),
                               std::filesystem::file_size(segments.back()) - 3);
  expect(!check_serve(good).empty(), "serve check: a truncated segment fails");
  for (const std::string& path : segments) std::filesystem::remove(path);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3 || std::string(argv[1]) != "--work-dir") {
    std::fprintf(stderr, "usage: perfbench_selftest --work-dir DIR\n");
    return 2;
  }
  generator_keeps_schedule(false);
  generator_keeps_schedule(true);
  attribution_recovers_planted_detection();
  paper_checks_fail_on_corruption();
  serve_checks_fail_on_corruption(std::string(argv[2]) + "/selftest");
  std::printf("%s: %d failure(s)\n", g_failures ? "FAILED" : "PASSED",
              g_failures);
  return g_failures ? 1 : 0;
}
