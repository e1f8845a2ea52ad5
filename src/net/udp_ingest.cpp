#include "net/udp_ingest.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <ctime>
#include <limits>

#include "common/assert.hpp"
#include "common/log.hpp"

namespace fdqos::net {
namespace {

// One receive slot's header. recvmmsg wants an mmsghdr array; the single
// path hands the embedded msghdr to recvmsg, so both paths share it.
#ifdef __linux__
using SlotHeader = mmsghdr;
#else
struct SlotHeader {
  msghdr msg_hdr;
};
#endif

// Per-slot control buffer: room for the timestamp and the drop count.
constexpr std::size_t kControlBytes =
    CMSG_SPACE(sizeof(timespec)) + CMSG_SPACE(sizeof(std::uint32_t));
constexpr std::int64_t kNoStamp = std::numeric_limits<std::int64_t>::min();

template <typename Clock>
std::int64_t clock_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// What the kernel attached to one received message: its CLOCK_REALTIME
// receive stamp (kNoStamp when none) and the socket's drop count, when it
// carries one.
struct ControlData {
  std::int64_t stamp_ns = kNoStamp;
  bool has_overflow = false;
  std::uint32_t overflow = 0;
};

ControlData read_control_data(msghdr& hdr) {
  ControlData out;
  for (cmsghdr* c = CMSG_FIRSTHDR(&hdr); c != nullptr;
       c = CMSG_NXTHDR(&hdr, c)) {
    if (c->cmsg_level != SOL_SOCKET) continue;
#ifdef SCM_TIMESTAMPNS
    if (c->cmsg_type == SCM_TIMESTAMPNS) {
      timespec ts;
      std::memcpy(&ts, CMSG_DATA(c), sizeof ts);
      out.stamp_ns = static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 +
                     ts.tv_nsec;
    }
#endif
#ifdef SO_RXQ_OVFL
    if (c->cmsg_type == SO_RXQ_OVFL) {
      std::memcpy(&out.overflow, CMSG_DATA(c), sizeof out.overflow);
      out.has_overflow = true;
    }
#endif
  }
  return out;
}

}  // namespace

UdpIngestSocket::UdpIngestSocket(const Options& opts)
    : batch_(opts.batch), slot_bytes_(opts.datagram_bytes) {
  FDQOS_REQUIRE(batch_ > 0);
  FDQOS_REQUIRE(slot_bytes_ > 0);
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof addr);
  addr.sin_family = AF_INET;
  addr.sin_port = htons(opts.port);
  if (inet_pton(AF_INET, opts.host.c_str(), &addr.sin_addr) != 1) {
    FDQOS_LOG_ERROR(
        "ingest: bind host '%s' is not an IPv4 literal (hostnames are not "
        "resolved; see net/udp_ingest.hpp)",
        opts.host.c_str());
    return;
  }
  fd_ = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK, 0);
  if (fd_ < 0) {
    FDQOS_LOG_ERROR("ingest: socket() failed: %s", std::strerror(errno));
    return;
  }
  if (opts.rcvbuf_bytes > 0) {
    // Best-effort: the kernel clamps to rmem_max; a burst that overflows
    // the default 212KB buffer silently drops datagrams, which would show
    // up as mysterious loss in the bench rather than an error anywhere.
    const int want = opts.rcvbuf_bytes;
    (void)::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &want, sizeof want);
  }
  [[maybe_unused]] const int on = 1;
#ifdef SO_TIMESTAMPNS
  // Best-effort too: without stamps arrival() reports none and the caller
  // falls back to its drain instant.
  if (::setsockopt(fd_, SOL_SOCKET, SO_TIMESTAMPNS, &on, sizeof on) != 0) {
    FDQOS_LOG_DEBUG("ingest: SO_TIMESTAMPNS refused: %s",
                    std::strerror(errno));
  }
#endif
#ifdef SO_RXQ_OVFL
  // Best-effort: without it kernel_drops() stays 0.
  if (::setsockopt(fd_, SOL_SOCKET, SO_RXQ_OVFL, &on, sizeof on) != 0) {
    FDQOS_LOG_DEBUG("ingest: SO_RXQ_OVFL refused: %s", std::strerror(errno));
  }
#endif
  if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    FDQOS_LOG_ERROR("ingest: bind(%s:%u) failed: %s", opts.host.c_str(),
                    opts.port, std::strerror(errno));
    ::close(fd_);
    fd_ = -1;
    return;
  }
  sockaddr_in bound;
  socklen_t len = sizeof bound;
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
    local_port_ = ntohs(bound.sin_port);
  }

  slab_.reset(new std::uint8_t[batch_ * slot_bytes_]);
  lengths_.assign(batch_, 0);
  arrivals_.assign(batch_, kNoStamp);
  // One slot header + one iovec + one control buffer per slot, wired up
  // once; a receive writes back only msg_len, msg_flags and
  // msg_controllen, and the last is reset before every receive.
  headers_.assign(batch_ * (sizeof(SlotHeader) + sizeof(iovec) + kControlBytes),
                  0);
  auto* msgs = reinterpret_cast<SlotHeader*>(headers_.data());
  auto* iovs =
      reinterpret_cast<iovec*>(headers_.data() + batch_ * sizeof(SlotHeader));
  std::uint8_t* control =
      headers_.data() + batch_ * (sizeof(SlotHeader) + sizeof(iovec));
  for (std::size_t i = 0; i < batch_; ++i) {
    iovs[i].iov_base = slab_.get() + i * slot_bytes_;
    iovs[i].iov_len = slot_bytes_;
    msgs[i].msg_hdr.msg_iov = &iovs[i];
    msgs[i].msg_hdr.msg_iovlen = 1;
    msgs[i].msg_hdr.msg_control = control + i * kControlBytes;
  }
#ifdef __linux__
  use_recvmmsg_ = !opts.force_single_recv;
#else
  (void)opts.force_single_recv;
#endif
}

UdpIngestSocket::~UdpIngestSocket() {
  if (fd_ >= 0) ::close(fd_);
}

std::size_t UdpIngestSocket::recv_batch() {
  if (fd_ < 0) return 0;
#ifdef __linux__
  if (use_recvmmsg_) {
    auto* msgs = reinterpret_cast<SlotHeader*>(headers_.data());
    for (std::size_t i = 0; i < batch_; ++i) {
      msgs[i].msg_hdr.msg_controllen = kControlBytes;
    }
    int rc;
    do {
      rc = ::recvmmsg(fd_, msgs, static_cast<unsigned>(batch_), MSG_DONTWAIT,
                      nullptr);
    } while (rc < 0 && errno == EINTR);
    if (rc < 0) {
      if (errno != EAGAIN && errno != EWOULDBLOCK) {
        FDQOS_LOG_DEBUG("ingest: recvmmsg failed: %s", std::strerror(errno));
      }
      return 0;
    }
    const auto drained = static_cast<std::size_t>(rc);
    for (std::size_t i = 0; i < drained; ++i) lengths_[i] = msgs[i].msg_len;
    read_control(drained);
    return drained;
  }
#endif
  const std::size_t drained = recv_batch_single();
  read_control(drained);
  return drained;
}

std::size_t UdpIngestSocket::recv_batch_single() {
  auto* msgs = reinterpret_cast<SlotHeader*>(headers_.data());
  std::size_t n = 0;
  while (n < batch_) {
    msghdr& hdr = msgs[n].msg_hdr;
    hdr.msg_controllen = kControlBytes;
    const ssize_t rc = ::recvmsg(fd_, &hdr, 0);
    if (rc < 0) {
      if (errno == EINTR) continue;
      if (errno != EAGAIN && errno != EWOULDBLOCK) {
        FDQOS_LOG_DEBUG("ingest: recvmsg failed: %s", std::strerror(errno));
      }
      break;
    }
    lengths_[n] = static_cast<std::size_t>(rc);
    ++n;
  }
  return n;
}

void UdpIngestSocket::read_control(std::size_t drained) {
  if (drained == 0) return;
  // One (realtime, steady) pair per drain maps every stamp of the batch
  // into the steady domain the caller runs its timers on.
  const std::int64_t offset = clock_ns<std::chrono::steady_clock>() -
                              clock_ns<std::chrono::system_clock>();
  auto* msgs = reinterpret_cast<SlotHeader*>(headers_.data());
  for (std::size_t i = 0; i < drained; ++i) {
    const ControlData control = read_control_data(msgs[i].msg_hdr);
    arrivals_[i] =
        control.stamp_ns == kNoStamp ? kNoStamp : control.stamp_ns + offset;
    if (control.has_overflow) {
      // The kernel's count is 32 bits and wraps; widen by its increments.
      kernel_drops_ += control.overflow - overflow_count_;
      overflow_count_ = control.overflow;
    }
  }
}

std::span<const std::uint8_t> UdpIngestSocket::datagram(std::size_t i) const {
  FDQOS_REQUIRE(i < batch_);
  return {slab_.get() + i * slot_bytes_, lengths_[i]};
}

std::optional<std::int64_t> UdpIngestSocket::arrival(std::size_t i) const {
  FDQOS_REQUIRE(i < batch_);
  if (arrivals_[i] == kNoStamp) return std::nullopt;
  return arrivals_[i];
}

}  // namespace fdqos::net
