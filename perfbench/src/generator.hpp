// The serve load source: one thread, one UDP socket, open loop.
//
// Walks the schedule burst by burst, sleeps until each burst is due,
// stamps its heartbeats with the actual send time and sends the burst as
// one sendmmsg call. It never waits for the daemon, so a slow daemon sees
// a growing queue (and kernel drops), not a slower sender. It records how
// late it ran behind the schedule and, for every block, the send time and
// the datagram count up to that block's last heartbeat.
#pragma once

#include <cstdint>
#include <vector>

#include "schedule.hpp"

namespace perfbench {

struct GeneratorLog {
  std::uint64_t heartbeats_sent = 0;
  std::uint64_t datagrams_sent = 0;
  std::uint64_t send_failures = 0;   // datagrams sendmmsg did not take
  std::vector<double> late_us;       // per burst: start − due
  // Per block (Schedule::blocks() order): send stamp of the last heartbeat,
  // and the number of datagrams sent up to and including the burst of its
  // last heartbeat and of its first heartbeat after the silence.
  std::vector<std::int64_t> block_send_ns;
  std::vector<std::uint64_t> block_datagrams;
  std::vector<std::uint64_t> block_resume_datagrams;
  std::int64_t cpu_ns = 0;  // CPU time of the generator thread
  std::int64_t end_ns = 0;  // when the last burst went out
};

class Generator {
 public:
  // Opens one UDP socket connected to 127.0.0.1:port.
  Generator(const Schedule& schedule, std::uint16_t port);
  ~Generator();
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  bool ok() const { return fd_ >= 0; }

  // Sends every burst of the schedule, burst (k, g) due at
  // t0_ns + Schedule::burst_offset_ns(k, g).
  GeneratorLog run(std::int64_t t0_ns);

 private:
  const Schedule& schedule_;
  int fd_ = -1;
};

}  // namespace perfbench
