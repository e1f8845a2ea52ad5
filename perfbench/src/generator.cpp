#include "generator.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <utility>

#include "net/codec.hpp"
#include "record.hpp"

namespace perfbench {
namespace {

// Sleep to this far before a burst is due, then spin: sleep_until
// overshoots by tens of microseconds.
constexpr std::int64_t kSpinNs = 80'000;
constexpr std::size_t kMaxVlen = 1024;  // UIO_MAXIOV

}  // namespace

Generator::Generator(const Schedule& schedule, std::uint16_t port)
    : schedule_(schedule) {
  fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd_ < 0) return;
  const int sndbuf = 4 << 20;
  ::setsockopt(fd_, SOL_SOCKET, SO_SNDBUF, &sndbuf, sizeof sndbuf);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Generator::~Generator() {
  if (fd_ >= 0) ::close(fd_);
}

GeneratorLog Generator::run(std::int64_t t0_ns) {
  const std::int64_t cpu_start = thread_cpu_ns();
  const ScheduleConfig& cfg = schedule_.config();
  const auto& blocks = schedule_.blocks();
  GeneratorLog log;
  log.late_us.reserve(static_cast<std::size_t>(cfg.periods) *
                      schedule_.groups());
  log.block_send_ns.reserve(blocks.size());
  log.block_datagrams.reserve(blocks.size());
  log.block_resume_datagrams.assign(blocks.size(), 0);
  // Resume bursts in send order: (k, group) order is time order.
  std::vector<std::size_t> by_resume(blocks.size());
  for (std::size_t b = 0; b < blocks.size(); ++b) by_resume[b] = b;
  std::sort(by_resume.begin(), by_resume.end(), [&](std::size_t x, std::size_t y) {
    return std::pair(blocks[x].resume_k, blocks[x].group) <
           std::pair(blocks[y].resume_k, blocks[y].group);
  });
  std::size_t next_resume = 0;

  std::vector<std::vector<std::uint8_t>> datagrams;
  std::vector<mmsghdr> msgs;
  std::vector<iovec> iov;
  std::size_t next_block = 0;

  for (std::int64_t k = 0; k < cfg.periods; ++k) {
    for (std::size_t g = 0; g < schedule_.groups(); ++g) {
      const std::int64_t due = t0_ns + schedule_.burst_offset_ns(k, g);
      if (now_ns() < due - kSpinNs) sleep_until_ns(due - kSpinNs);
      while (now_ns() < due) {
      }
      const std::int64_t start = now_ns();
      log.late_us.push_back(static_cast<double>(start - due) / 1e3);

      const std::size_t count = schedule_.encode_burst(k, g, start, datagrams);
      msgs.resize(std::max(msgs.size(), count));
      iov.resize(std::max(iov.size(), count));
      for (std::size_t i = 0; i < count; ++i) {
        iov[i] = iovec{datagrams[i].data(), datagrams[i].size()};
        msgs[i] = mmsghdr{};
        msgs[i].msg_hdr.msg_iov = &iov[i];
        msgs[i].msg_hdr.msg_iovlen = 1;
      }
      std::size_t sent = 0;
      while (sent < count) {
        const auto chunk =
            static_cast<unsigned>(std::min(count - sent, kMaxVlen));
        const int rc = ::sendmmsg(fd_, msgs.data() + sent, chunk, 0);
        if (rc < 0 && errno == EINTR) continue;
        if (rc <= 0) break;
        sent += static_cast<std::size_t>(rc);
      }
      log.send_failures += count - sent;
      log.datagrams_sent += sent;
      const std::size_t burst_heartbeats = schedule_.heartbeats_in_burst(k, g);
      log.heartbeats_sent +=
          sent == count ? burst_heartbeats
          : cfg.packed  ? std::min(burst_heartbeats, sent * cfg.pack)
                        : sent;

      if (next_block < blocks.size() && blocks[next_block].last_k == k &&
          blocks[next_block].group == g) {
        log.block_send_ns.push_back(start);
        log.block_datagrams.push_back(log.datagrams_sent);
        ++next_block;
      }
      if (next_resume < blocks.size() &&
          blocks[by_resume[next_resume]].resume_k == k &&
          blocks[by_resume[next_resume]].group == g) {
        log.block_resume_datagrams[by_resume[next_resume]] = log.datagrams_sent;
        ++next_resume;
      }
    }
  }
  log.cpu_ns = thread_cpu_ns() - cpu_start;
  log.end_ns = now_ns();
  return log;
}

}  // namespace perfbench
