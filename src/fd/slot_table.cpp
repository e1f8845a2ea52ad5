#include "fd/slot_table.hpp"

#include <algorithm>
#include <bit>

#include "common/assert.hpp"

namespace fdqos::fd {
namespace {

constexpr std::size_t kMinBuckets = 2;

// Buckets for `n` ids at load ≤ ½.
std::size_t buckets_for(std::size_t n) {
  return std::bit_ceil(std::max(kMinBuckets, 2 * n));
}

}  // namespace

SlotTable::SlotTable(std::size_t expected) { rehash(buckets_for(expected)); }

std::size_t SlotTable::home(net::NodeId id) const {
  // Fibonacci hashing: the top bits of id · 2⁶⁴/φ.
  const std::uint64_t key = static_cast<std::uint32_t>(id);
  return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ULL) >> shift_);
}

std::uint32_t SlotTable::find(net::NodeId id) const {
  const std::size_t mask = entries_.size() - 1;
  for (std::size_t i = home(id);; i = (i + 1) & mask) {
    const Entry& e = entries_[i];
    if (e.slot == kNoSlot || e.id == id) return e.slot;
  }
}

std::uint32_t SlotTable::emplace(net::NodeId id, std::uint32_t slot) {
  FDQOS_REQUIRE(slot != kNoSlot);
  if (2 * (size_ + 1) > entries_.size()) rehash(2 * entries_.size());
  const std::size_t mask = entries_.size() - 1;
  for (std::size_t i = home(id);; i = (i + 1) & mask) {
    Entry& e = entries_[i];
    if (e.slot == kNoSlot) {
      e = {id, slot};
      ++size_;
      return slot;
    }
    if (e.id == id) return e.slot;
  }
}

void SlotTable::clear() {
  for (Entry& e : entries_) e.slot = kNoSlot;
  size_ = 0;
}

void SlotTable::reserve(std::size_t expected) {
  const std::size_t want = buckets_for(expected);
  if (want > entries_.size()) rehash(want);
}

void SlotTable::rehash(std::size_t buckets) {
  std::vector<Entry> old(buckets, Entry{0, kNoSlot});
  old.swap(entries_);
  shift_ = static_cast<unsigned>(64 - std::countr_zero(buckets));
  size_ = 0;
  for (const Entry& e : old) {
    if (e.slot != kNoSlot) emplace(e.id, e.slot);
  }
}

}  // namespace fdqos::fd
