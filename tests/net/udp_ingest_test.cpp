// UdpIngestSocket loopback coverage, parameterized over both drain paths
// (recvmmsg and the portable single-recv fallback) so they stay
// behaviourally identical.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "net/udp_ingest.hpp"

namespace fdqos::net {
namespace {

// A plain blocking UDP sender aimed at the ingest socket under test.
class LoopbackSender {
 public:
  explicit LoopbackSender(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
    std::memset(&dest_, 0, sizeof dest_);
    dest_.sin_family = AF_INET;
    dest_.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &dest_.sin_addr);
  }
  ~LoopbackSender() {
    if (fd_ >= 0) ::close(fd_);
  }

  void send(const std::vector<std::uint8_t>& bytes) {
    ASSERT_GE(fd_, 0);
    const ssize_t n =
        ::sendto(fd_, bytes.data(), bytes.size(), 0,
                 reinterpret_cast<const sockaddr*>(&dest_), sizeof dest_);
    ASSERT_EQ(n, static_cast<ssize_t>(bytes.size()));
  }

 private:
  int fd_ = -1;
  sockaddr_in dest_{};
};

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Drains until `want` datagrams arrived or ~2s elapsed, appending each
// datagram's bytes to `out`.
std::size_t drain_until(UdpIngestSocket& sock, std::size_t want,
                        std::vector<std::vector<std::uint8_t>>& out) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (out.size() < want && std::chrono::steady_clock::now() < deadline) {
    const std::size_t n = sock.recv_batch();
    for (std::size_t i = 0; i < n; ++i) {
      const auto view = sock.datagram(i);
      out.emplace_back(view.begin(), view.end());
    }
    if (n == 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return out.size();
}

class UdpIngestSocketTest : public testing::TestWithParam<bool> {};

TEST_P(UdpIngestSocketTest, DrainsDatagramsWithContentIntact) {
  UdpIngestSocket::Options opts;
  opts.batch = 8;
  opts.force_single_recv = GetParam();
  UdpIngestSocket sock(opts);
  ASSERT_TRUE(sock.ok());
  ASSERT_NE(sock.local_port(), 0);
  if (!GetParam()) {
#ifdef __linux__
    EXPECT_TRUE(sock.using_recvmmsg());
#endif
  } else {
    EXPECT_FALSE(sock.using_recvmmsg());
  }

  LoopbackSender sender(sock.local_port());
  std::vector<std::vector<std::uint8_t>> sent;
  for (std::uint8_t i = 0; i < 20; ++i) {
    std::vector<std::uint8_t> payload(1 + i, i);  // distinct length + fill
    sender.send(payload);
    sent.push_back(std::move(payload));
  }

  std::vector<std::vector<std::uint8_t>> got;
  ASSERT_EQ(drain_until(sock, sent.size(), got), sent.size());
  // Loopback preserves order; every datagram arrives byte-identical.
  EXPECT_EQ(got, sent);
}

TEST_P(UdpIngestSocketTest, RespectsBatchCap) {
  UdpIngestSocket::Options opts;
  opts.batch = 4;
  opts.force_single_recv = GetParam();
  UdpIngestSocket sock(opts);
  ASSERT_TRUE(sock.ok());

  LoopbackSender sender(sock.local_port());
  for (int i = 0; i < 10; ++i) sender.send({static_cast<std::uint8_t>(i)});

  // Give loopback a moment, then every drain returns at most `batch`.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  std::size_t total = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (total < 10 && std::chrono::steady_clock::now() < deadline) {
    const std::size_t n = sock.recv_batch();
    EXPECT_LE(n, opts.batch);
    total += n;
    if (n == 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(total, 10u);
}

TEST_P(UdpIngestSocketTest, EmptySocketDrainsZeroWithoutBlocking) {
  UdpIngestSocket::Options opts;
  opts.force_single_recv = GetParam();
  UdpIngestSocket sock(opts);
  ASSERT_TRUE(sock.ok());
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(sock.recv_batch(), 0u);
  EXPECT_LT(std::chrono::steady_clock::now() - t0,
            std::chrono::milliseconds(100));
}

TEST_P(UdpIngestSocketTest, OversizedDatagramArrivesTruncatedNotFatal) {
  UdpIngestSocket::Options opts;
  opts.datagram_bytes = 64;  // tiny slots
  opts.force_single_recv = GetParam();
  UdpIngestSocket sock(opts);
  ASSERT_TRUE(sock.ok());

  LoopbackSender sender(sock.local_port());
  sender.send(std::vector<std::uint8_t>(256, 0xab));

  std::vector<std::vector<std::uint8_t>> got;
  ASSERT_EQ(drain_until(sock, 1, got), 1u);
  // Truncated to slot capacity — downstream decode fails, nothing crashes.
  EXPECT_LE(got[0].size(), 64u);
}

TEST_P(UdpIngestSocketTest, StampsEachDatagramWithItsSteadyArrival) {
#ifndef __linux__
  GTEST_SKIP() << "kernel receive stamps are Linux-only";
#endif
  UdpIngestSocket::Options opts;
  opts.batch = 8;
  opts.force_single_recv = GetParam();
  UdpIngestSocket sock(opts);
  ASSERT_TRUE(sock.ok());

  LoopbackSender sender(sock.local_port());
  const std::int64_t before = steady_ns();
  for (std::uint8_t i = 0; i < 3; ++i) {
    sender.send({i});
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  const std::size_t drained = sock.recv_batch();
  const std::int64_t after = steady_ns();
  ASSERT_EQ(drained, 3u);

  // Drained at once, yet each keeps its own arrival, a few ms apart.
  std::int64_t previous = before;
  for (std::size_t i = 0; i < drained; ++i) {
    const std::optional<std::int64_t> arrival = sock.arrival(i);
    ASSERT_TRUE(arrival.has_value()) << "datagram " << i;
    EXPECT_GE(*arrival, previous) << "datagram " << i;
    EXPECT_LE(*arrival, after) << "datagram " << i;
    previous = *arrival;
  }
}

// A receive queue far smaller than the burst overflows; the kernel's drop
// count rides on the next datagram queued after the drops.
TEST_P(UdpIngestSocketTest, CountsKernelDropsWhenTheReceiveQueueOverflows) {
  UdpIngestSocket::Options opts;
  opts.batch = 64;
  opts.rcvbuf_bytes = 2048;  // the kernel rounds up to its minimum
  opts.force_single_recv = GetParam();
  UdpIngestSocket sock(opts);
  ASSERT_TRUE(sock.ok());
  LoopbackSender sender(sock.local_port());
  const std::vector<std::uint8_t> payload(256, 0x5a);
  for (int i = 0; i < 400; ++i) sender.send(payload);
  std::size_t queued = 0;
  for (std::size_t n; (n = sock.recv_batch()) > 0;) queued += n;
  ASSERT_GT(queued, 0u);
  ASSERT_LT(queued, 400u) << "the receive queue never overflowed";

  sender.send(payload);
  std::vector<std::vector<std::uint8_t>> got;
  ASSERT_EQ(drain_until(sock, 1, got), 1u);
  EXPECT_EQ(sock.kernel_drops(), 400u - queued);
}

INSTANTIATE_TEST_SUITE_P(BothDrainPaths, UdpIngestSocketTest,
                         testing::Values(false, true),
                         [](const testing::TestParamInfo<bool>& info) {
                           return info.param ? "SingleRecv" : "Recvmmsg";
                         });

TEST(UdpIngestSocket, FailsFastOnHostnameBindAddress) {
  UdpIngestSocket::Options opts;
  opts.host = "ingest.example.com";  // not an IPv4 literal
  UdpIngestSocket sock(opts);
  EXPECT_FALSE(sock.ok());
  EXPECT_EQ(sock.recv_batch(), 0u);
}

}  // namespace
}  // namespace fdqos::net
