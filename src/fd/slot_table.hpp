// SlotTable — a flat open-addressing map from endpoint id to slot index.
//
// Both fleet lookups by endpoint id go through this one type: admission
// (fd::FleetIngest, once per ingested heartbeat) and routing
// (FleetBank::handle_up). A lookup hashes the id multiplicatively, lands
// on a power-of-two table of 8-byte {id, slot} pairs kept at most half
// full, and probes linearly — one cache line in the common case, where a
// node-based std::unordered_map pays a modulo by a prime and then chases
// a bucket → node → key chain.
//
// Every NodeId is a valid key (negative ids, INT32_MIN and INT32_MAX
// included): an entry is empty when its slot is kNoSlot, never by a
// reserved id. There is no erase.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "net/message.hpp"

namespace fdqos::fd {

class SlotTable {
 public:
  static constexpr std::uint32_t kNoSlot =
      std::numeric_limits<std::uint32_t>::max();

  // Sized so `expected` ids fit without rehashing.
  explicit SlotTable(std::size_t expected = 0);

  // The slot `id` maps to, or kNoSlot.
  std::uint32_t find(net::NodeId id) const;
  // Maps `id` to `slot` unless it is mapped already (the first mapping
  // wins); returns the slot `id` maps to afterwards. Grows the table
  // (doubling) to keep the load at most one half.
  std::uint32_t emplace(net::NodeId id, std::uint32_t slot);

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  void clear();
  void reserve(std::size_t expected);

  // Table geometry, exposed so tests can build ids that collide.
  std::size_t buckets() const { return entries_.size(); }
  std::size_t home(net::NodeId id) const;
  std::size_t memory_bytes() const { return entries_.capacity() * sizeof(Entry); }

 private:
  struct Entry {
    net::NodeId id;
    std::uint32_t slot;  // kNoSlot = empty
  };

  void rehash(std::size_t buckets);

  std::vector<Entry> entries_;
  unsigned shift_ = 63;  // 64 − log2(buckets())
  std::size_t size_ = 0;
};

}  // namespace fdqos::fd
