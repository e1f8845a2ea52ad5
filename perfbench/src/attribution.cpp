#include "attribution.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <thread>

#include "obs/instruments.hpp"
#include "record.hpp"

namespace perfbench {

ObserverLog observe_counters(const std::atomic<bool>& stop,
                             std::atomic<bool>& ready, std::int64_t poll_ns,
                             clockid_t generator_clock,
                             std::int64_t cpu_every_ns) {
  const std::int64_t cpu_start = thread_cpu_ns();
  auto& ins = fdqos::obs::instruments();
  const auto net = [&] {
    return static_cast<std::int64_t>(ins.fd_transitions_to_suspect.value()) -
           static_cast<std::int64_t>(ins.fd_transitions_to_trust.value());
  };
  const std::int64_t net0 = net();
  const std::uint64_t dgrams0 = ins.serve_datagrams_total.value();

  ObserverLog log;
  log.samples.reserve(1 << 18);
  log.samples.push_back(CounterSample{now_ns(), 0, 0});
  const auto read_cpu = [&](std::uint64_t dgrams) {
    timespec ts{};
    // Fails once the generator thread has exited: the sample is marked.
    const bool alive = clock_gettime(generator_clock, &ts) == 0;
    log.cpu.push_back(CpuSample{
        now_ns(), process_cpu_ns(),
        alive ? static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 +
                    ts.tv_nsec
              : -1,
        thread_cpu_ns() - cpu_start, dgrams});
  };
  read_cpu(0);
  std::int64_t next_cpu = now_ns() + cpu_every_ns;
  ready.store(true);
  while (!stop.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(poll_ns));
    // Datagrams first: a block's burst is then never seen drained later
    // than the suspicions its processing caused.
    const std::uint64_t dgrams = ins.serve_datagrams_total.value() - dgrams0;
    const std::int64_t suspected = net() - net0;
    const CounterSample& last = log.samples.back();
    if (suspected != last.suspected || dgrams != last.datagrams) {
      log.samples.push_back(CounterSample{now_ns(), suspected, dgrams});
    }
    if (now_ns() >= next_cpu) {
      read_cpu(dgrams);
      next_cpu += cpu_every_ns;
    }
  }
  log.cpu_ns = thread_cpu_ns() - cpu_start;
  return log;
}

std::vector<BlockDetection> attribute_blocks(
    const std::vector<CounterSample>& samples,
    const std::vector<BlockEvidence>& blocks, const AttributionParams& params) {
  std::vector<BlockDetection> out(blocks.size());
  if (samples.empty()) return out;
  const std::int64_t run_end = samples.back().t_ns;
  constexpr std::int64_t kNever = std::numeric_limits<std::int64_t>::max();
  // When the daemon had drained `datagrams`: the first sample reaching it.
  const auto drained_at = [&](std::uint64_t datagrams) {
    const auto it = std::lower_bound(
        samples.begin(), samples.end(), datagrams,
        [](const CounterSample& s, std::uint64_t n) { return s.datagrams < n; });
    return it == samples.end() ? kNever : it->t_ns;
  };
  std::vector<std::int64_t> recovered(blocks.size(), kNever);

  for (std::size_t b = 0; b < blocks.size(); ++b) {
    const BlockEvidence& block = blocks[b];
    BlockDetection& det = out[b];
    const std::int64_t drained = drained_at(block.datagrams);
    if (drained == kNever) {
      det.td_ms = static_cast<double>(run_end - block.last_send_ns) / 1e6;
      continue;
    }
    const std::int64_t lo = block.last_send_ns + params.eta_ns;
    const std::int64_t hi = drained + params.eta_ns + params.width_ns;
    det.td_ms = static_cast<double>(std::min(hi, run_end) -
                                    block.last_send_ns) / 1e6;
    const auto need = static_cast<std::int64_t>(block.size) -
                      static_cast<std::int64_t>(static_cast<double>(
                          block.size) * params.tolerance_frac);
    // Net suspicions at sample j, with the steps down of earlier detected
    // blocks recovering after `since` added back.
    const auto corrected = [&](std::size_t j, std::int64_t since) {
      std::int64_t value = samples[j].suspected;
      for (std::size_t c = 0; c < b; ++c) {
        if (recovered[c] > since && recovered[c] <= samples[j].t_ns) {
          value += static_cast<std::int64_t>(blocks[c].size);
        }
      }
      return value;
    };

    // Start from the sample in effect when the window opens.
    std::size_t i = static_cast<std::size_t>(
        std::upper_bound(samples.begin(), samples.end(), lo,
                         [](std::int64_t t, const CounterSample& s) {
                           return t < s.t_ns;
                         }) -
        samples.begin());
    if (i > 0) --i;
    std::int64_t low = samples[i].suspected;
    for (++i; i < samples.size() && samples[i].t_ns <= hi; ++i) {
      const std::int64_t t = samples[i].t_ns;
      bool holds = samples[i].suspected - low >= need;
      for (std::size_t j = i + 1;
           holds && j < samples.size() && samples[j].t_ns <= t + params.persist_ns;
           ++j) {
        holds = corrected(j, t) - low >= need;
      }
      if (holds) {
        det.detected = true;
        det.td_ms = static_cast<double>(t - block.last_send_ns) / 1e6;
        recovered[b] = drained_at(block.resume_datagrams);
        break;
      }
      low = std::min(low, samples[i].suspected);
    }
  }
  return out;
}

}  // namespace perfbench
