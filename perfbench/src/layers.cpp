#include "layers.hpp"

#include <poll.h>

#include <atomic>
#include <filesystem>
#include <thread>
#include <unordered_map>

#include "common/rng.hpp"
#include "fd/detector_bank.hpp"
#include "fd/fleet_ingest.hpp"
#include "fd/suite.hpp"
#include "generator.hpp"
#include "net/codec.hpp"
#include "net/udp_ingest.hpp"
#include "wan/italy_japan.hpp"
#include "wan/tracestore.hpp"

namespace perfbench {
namespace {

using fdqos::Duration;
using fdqos::TimePoint;

constexpr std::int64_t kNetDelayNs = 200'000;  // standalone arrival delay
constexpr std::uint64_t kLayerHeartbeats = 1'000'000;

// Results of timed loops land here so the compiler cannot drop the loops.
volatile double g_sink = 0.0;

// Groups-then-lanes, one predictor group per distinct predictor_key — the
// assembly the daemon and the experiment engines use.
void assemble(fdqos::fd::DetectorBank& bank,
              const std::vector<fdqos::fd::FdSpec>& specs) {
  std::unordered_map<std::string, std::size_t> group_of;
  for (const auto& spec : specs) {
    auto it = group_of.find(spec.predictor_key);
    const std::size_t group = it != group_of.end()
                                  ? it->second
                                  : bank.add_group(spec.make_predictor());
    group_of.emplace(spec.predictor_key, group);
    bank.add_lane(spec.name, group, spec.make_margin());
  }
}

std::vector<fdqos::fd::FdSpec> lite_suite() {
  fdqos::fd::FdSpec spec;
  spec.name = "Last+CI_low";
  spec.predictor_label = "Last";
  spec.margin_label = "CI_low";
  spec.predictor_key = fdqos::fd::paper_predictor_key("Last");
  spec.make_predictor = fdqos::fd::make_paper_predictor("Last");
  spec.make_margin = fdqos::fd::make_paper_margin("CI_low");
  return {std::move(spec)};
}

// The workload's schedule cut to about kLayerHeartbeats heartbeats.
ScheduleConfig layer_schedule(const ScheduleConfig& schedule) {
  ScheduleConfig cut = schedule;
  const auto periods = static_cast<std::int64_t>(
      kLayerHeartbeats / schedule.endpoints);
  cut.periods = std::clamp<std::int64_t>(periods, cut.warm_periods + 8,
                                         schedule.periods);
  return cut;
}

double per(std::int64_t ns, std::uint64_t n) {
  return n ? static_cast<double>(ns) / static_cast<double>(n) : 0.0;
}

// recv_batch() fed by the generator at the workload's own schedule.
void measure_recv(const ScheduleConfig& schedule, ServeLayerTimes& out,
                  Outcome& outcome) {
  ScheduleConfig cut = schedule;
  cut.periods = std::max<std::int64_t>(
      2, 500'000'000 / std::max<std::int64_t>(1, schedule.eta_ns));
  cut.warm_periods = cut.periods;  // no blocks
  const Schedule plan(cut);
  fdqos::net::UdpIngestSocket::Options opts;
  fdqos::net::UdpIngestSocket socket(opts);
  Generator generator(plan, socket.local_port());
  if (!socket.ok() || !generator.ok()) {
    outcome.check(false, "layers: loopback socket setup failed");
    return;
  }
  std::atomic<bool> done{false};
  pin_current_thread(Role::kDaemon);
  std::thread sender([&] {
    pin_current_thread(Role::kGenerator);
    generator.run(now_ns() + 1'000'000);
    done.store(true);
  });
  std::int64_t busy = 0;
  std::uint64_t calls = 0, heartbeats = 0;
  for (;;) {
    const std::int64_t start = now_ns();
    const std::size_t n = socket.recv_batch();
    if (n > 0) {
      busy += now_ns() - start;
      ++calls;
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t len = socket.datagram(i).size();
        heartbeats += cut.packed ? (len - fdqos::net::kPackedBatchHeaderBytes) /
                                       fdqos::net::kPackedRecordBytes
                                 : 1;
      }
      continue;
    }
    pollfd pfd{socket.fd(), POLLIN, 0};
    if (::poll(&pfd, 1, 5) == 0 && done.load()) break;
  }
  sender.join();
  out.recv_batch_ns = per(busy, calls);
  out.recv_ns_per_hb = per(busy, heartbeats);
}

void measure_decode(const Schedule& plan, ServeLayerTimes& out) {
  std::vector<std::vector<std::uint8_t>> period;
  std::vector<std::vector<std::uint8_t>> burst;
  for (std::size_t g = 0; g < plan.groups(); ++g) {
    const std::size_t n = plan.encode_burst(1, g, 1'000'000, burst);
    period.insert(period.end(), burst.begin(), burst.begin() + n);
  }
  const std::uint64_t reps =
      std::max<std::uint64_t>(1, kLayerHeartbeats / plan.config().endpoints);
  fdqos::net::HeartbeatFrame frame;
  fdqos::net::PackedBatchView view;
  std::uint64_t decoded = 0;
  std::int64_t sum = 0;
  const std::int64_t start = now_ns();
  for (std::uint64_t r = 0; r < reps; ++r) {
    for (const auto& wire : period) {
      if (plan.config().packed) {
        if (!fdqos::net::decode_packed_batch(wire, view)) continue;
        for (std::uint32_t j = 0; j < view.count(); ++j) {
          view.get(j, frame);
          sum += frame.seq;
          ++decoded;
        }
      } else if (fdqos::net::decode_heartbeat_frame(wire, frame)) {
        sum += frame.seq;
        ++decoded;
      }
    }
  }
  out.decode_ns_per_hb = per(now_ns() - start, decoded);
  g_sink = static_cast<double>(sum);
}

// The fleet at the workload's schedule in virtual time. With `admission`
// every heartbeat goes through FleetIngest::offer and one flush per burst
// (timed together); without, bursts go straight to ingest_columns.
void drive_fleet(const Schedule& plan, bool admission, ServeLayerTimes& out) {
  const ScheduleConfig& cfg = plan.config();
  fdqos::sim::Simulator sim;
  auto fleet = make_lite_fleet(sim, cfg.endpoints, cfg.eta_ns);
  fdqos::fd::FleetIngest ingest(*fleet, cfg.endpoints);
  fdqos::fd::FleetBank::HeartbeatColumns columns;
  std::vector<std::uint32_t> first_slot(plan.groups() + 1, 0);
  for (std::size_t g = 0; g < plan.groups(); ++g) {
    first_slot[g + 1] =
        first_slot[g] + static_cast<std::uint32_t>(plan.group_members(g).size());
  }
  std::int64_t timer = 0, work = 0;
  std::uint64_t heartbeats = 0;
  for (std::int64_t k = 0; k < cfg.periods; ++k) {
    for (std::size_t g = 0; g < plan.groups(); ++g) {
      const TimePoint at =
          TimePoint::from_nanos(plan.burst_offset_ns(k, g) + kNetDelayNs);
      std::int64_t start = now_ns();
      sim.run_until(at);
      timer += now_ns() - start;
      if (plan.silent(g, k)) continue;
      const auto& ids = plan.group_members(g);
      heartbeats += ids.size();
      if (admission) {
        start = now_ns();
        for (const fdqos::net::NodeId id : ids) ingest.offer(id, k);
        ingest.flush();
        work += now_ns() - start;
        continue;
      }
      columns.clear();
      for (std::uint32_t i = 0; i < ids.size(); ++i) {
        columns.endpoint.push_back(first_slot[g] + i);
        columns.seq.push_back(k);
      }
      start = now_ns();
      fleet->ingest_columns(columns);
      work += now_ns() - start;
    }
  }
  if (admission) {
    out.offer_ns = per(work, heartbeats);
  } else {
    out.fleet_ingest_ns = per(work, heartbeats);
    out.fleet_timer_ns = per(timer, heartbeats);
  }
}

void measure_capture(const std::string& work_dir, ServeLayerTimes& out,
                     Outcome& outcome) {
  fdqos::wan::RotatingFdtWriter::Options opts;
  opts.directory = work_dir;
  opts.prefix = "perfbench-layer";
  std::vector<std::string> segments;
  {
    fdqos::wan::RotatingFdtWriter writer(opts);
    const std::int64_t start = now_ns();
    for (std::uint64_t i = 0; i < kLayerHeartbeats; ++i) {
      writer.append(TimePoint::from_nanos(static_cast<std::int64_t>(i) * 10'000),
                    Duration::nanos(kNetDelayNs + static_cast<std::int64_t>(i % 97)));
    }
    out.capture_append_ns = per(now_ns() - start, kLayerHeartbeats);
    outcome.check(writer.finalize() && writer.ok(),
                  "layers: capture writer failed");
    segments = writer.segments();
  }
  for (const std::string& path : segments) {
    std::error_code ec;
    std::filesystem::remove(path, ec);
  }
}

}  // namespace

std::unique_ptr<fdqos::fd::FleetBank> make_lite_fleet(
    fdqos::sim::Simulator& simulator, std::size_t members,
    std::int64_t eta_ns) {
  fdqos::fd::FleetBank::Config fc;
  fc.eta = Duration::nanos(eta_ns);
  fc.cold_start_timeout = fc.eta;
  fc.name = "perfbench";
  fc.expected_endpoints = members;
  auto fleet = std::make_unique<fdqos::fd::FleetBank>(simulator, fc);
  const auto specs = lite_suite();
  for (std::size_t slot = 0; slot < members; ++slot) {
    assemble(fleet->add_member(static_cast<fdqos::net::NodeId>(slot)), specs);
  }
  fleet->start();
  return fleet;
}

ServeLayerTimes measure_serve_layers(const ScheduleConfig& schedule,
                                     bool capture, const std::string& work_dir,
                                     Outcome& outcome) {
  ServeLayerTimes out;
  measure_recv(schedule, out, outcome);
  const Schedule plan(layer_schedule(schedule));
  measure_decode(plan, out);
  drive_fleet(plan, true, out);
  drive_fleet(plan, false, out);
  if (capture) measure_capture(work_dir, out, outcome);
  return out;
}

PaperLayerTimes measure_paper_layers(std::uint64_t seed, std::int64_t cycles) {
  PaperLayerTimes out;
  const Duration eta = Duration::seconds(1);

  // One delay stream: the link's delay and loss draws per heartbeat.
  fdqos::Rng rng = fdqos::Rng(seed).fork("perfbench");
  auto delay = fdqos::wan::make_italy_japan_delay();
  auto loss = fdqos::wan::make_italy_japan_loss();
  std::vector<std::int64_t> seqs;
  std::vector<Duration> delays;
  seqs.reserve(static_cast<std::size_t>(cycles));
  delays.reserve(static_cast<std::size_t>(cycles));
  std::int64_t start = now_ns();
  for (std::int64_t k = 1; k <= cycles; ++k) {
    const TimePoint sent = TimePoint::origin() + eta * k;
    if (loss->drop(rng, sent)) continue;
    seqs.push_back(k);
    delays.push_back(delay->sample(rng, sent));
  }
  out.delay_sample_ns = per(now_ns() - start, static_cast<std::uint64_t>(cycles));

  // Each paper predictor: predict() then observe() per delivered sample.
  std::vector<double> delays_ms;
  for (const Duration d : delays) delays_ms.push_back(d.to_millis_double());
  double sink = 0.0;
  for (const std::string& label : fdqos::fd::paper_predictor_labels()) {
    auto predictor = fdqos::fd::make_paper_predictor(label)();
    start = now_ns();
    for (const double d : delays_ms) {
      sink += predictor->predict();
      predictor->observe(d);
    }
    out.observe_ns[label] = per(now_ns() - start, delays_ms.size());
  }
  g_sink = sink;

  // A standalone 30-lane bank: timers fired up to each arrival, then the
  // heartbeat observed.
  fdqos::sim::Simulator sim;
  fdqos::fd::DetectorBank::Config bc;
  bc.eta = eta;
  fdqos::fd::DetectorBank bank(sim, bc);
  assemble(bank, fdqos::fd::make_paper_suite());
  bank.start();
  start = now_ns();
  for (std::size_t i = 0; i < seqs.size(); ++i) {
    sim.run_until(TimePoint::origin() + eta * seqs[i] + delays[i]);
    bank.observe_heartbeat(seqs[i]);
  }
  out.bank_observe_ns = per(now_ns() - start, seqs.size());
  return out;
}

}  // namespace perfbench
