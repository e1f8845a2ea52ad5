// UdpIngestSocket — batched datagram drain for the `fdqos serve` daemon.
//
// UdpTransport (net/udp_transport.hpp) drains one datagram per recv() and
// allocates a Message per decode — right for a peer in the experiment mesh,
// wrong for an ingest daemon absorbing a fleet's heartbeat traffic, where
// per-syscall and per-allocation costs dominate. This socket owns a
// preallocated slab of receive slots and drains up to `batch` datagrams
// per recv_batch() call via recvmmsg(2) on Linux, falling back to a
// single-recvmsg loop elsewhere (or when Options::force_single_recv is set,
// which the tests use to pin both paths to identical behaviour). The
// steady state performs zero heap allocation: callers read the drained
// datagrams in place through datagram(i) views.
//
// Arrival stamps: on Linux the socket asks the kernel for a receive
// timestamp per datagram (SO_TIMESTAMPNS), so a caller that drains late
// still knows when each datagram really arrived. Both drain paths share
// one slot header with its own control buffer, so they stamp alike.
//
// Kernel drops: the socket also asks for SO_RXQ_OVFL, the kernel's running
// count of datagrams it dropped at this socket (a full receive queue),
// which rides on each datagram queued after a drop. kernel_drops() reports
// the latest count seen, so loss before the daemon ever saw a datagram is
// told apart from loss inside it.
//
// Like UdpTransport, the bind host must be an IPv4 literal — construction
// fails fast (ok() == false) on anything inet_pton rejects.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace fdqos::net {

class UdpIngestSocket {
 public:
  struct Options {
    std::string host = "127.0.0.1";  // IPv4 literal; see header comment
    std::uint16_t port = 0;          // 0 = kernel-assigned (local_port())
    std::size_t batch = 32;          // max datagrams drained per call
    std::size_t datagram_bytes = 65536;  // per-slot capacity (max UDP)
    int rcvbuf_bytes = 4 << 20;      // SO_RCVBUF request; 0 = kernel default
    bool force_single_recv = false;  // skip recvmmsg even where available
  };

  explicit UdpIngestSocket(const Options& opts);
  ~UdpIngestSocket();
  UdpIngestSocket(const UdpIngestSocket&) = delete;
  UdpIngestSocket& operator=(const UdpIngestSocket&) = delete;

  // False if construction failed (bad literal, socket/bind error); the
  // failure was logged and every recv_batch() returns 0.
  bool ok() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  std::uint16_t local_port() const { return local_port_; }

  // Drains up to Options::batch datagrams without blocking. Returns the
  // number drained (0 = nothing pending). EINTR is retried; any other
  // error ends the drain with what was already received. Slots stay valid
  // until the next recv_batch() call.
  std::size_t recv_batch();

  // Bytes of drained datagram i (i < the last recv_batch() return value).
  // A datagram longer than Options::datagram_bytes arrives truncated and
  // will fail decoding downstream — counted there, never a crash here.
  std::span<const std::uint8_t> datagram(std::size_t i) const;

  // Kernel arrival instant of drained datagram i, in
  // std::chrono::steady_clock nanoseconds since its epoch; nullopt when
  // the kernel attached no stamp (non-Linux, or the option was refused).
  // The kernel stamps on CLOCK_REALTIME; recv_batch() converts with one
  // (realtime, steady) pair sampled per drain, so a wall-clock step
  // between the arrival and the drain shifts the stamp by that step.
  std::optional<std::int64_t> arrival(std::size_t i) const;

  bool using_recvmmsg() const { return use_recvmmsg_; }

  // Datagrams the kernel dropped at this socket since it opened, as of the
  // last datagram drained (0 where SO_RXQ_OVFL is unavailable). A drop
  // shows up with the next datagram queued after it.
  std::uint64_t kernel_drops() const { return kernel_drops_; }

 private:
  std::size_t recv_batch_single();
  void read_control(std::size_t drained);

  int fd_ = -1;
  std::uint16_t local_port_ = 0;
  std::size_t batch_ = 0;
  std::size_t slot_bytes_ = 0;
  bool use_recvmmsg_ = false;
  // batch_ × slot_bytes_ receive slots, left uninitialised: the kernel
  // writes each datagram, and datagram(i) exposes only lengths_[i] bytes.
  std::unique_ptr<std::uint8_t[]> slab_;
  std::vector<std::size_t> lengths_;        // filled per drained datagram
  std::vector<std::int64_t> arrivals_;      // steady ns, or a no-stamp mark
  std::uint32_t overflow_count_ = 0;  // last SO_RXQ_OVFL value (wraps)
  std::uint64_t kernel_drops_ = 0;    // widened running total
  std::vector<std::uint8_t> headers_;  // opaque slot header/iovec/control
};

}  // namespace fdqos::net
