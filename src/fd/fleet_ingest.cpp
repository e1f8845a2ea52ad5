#include "fd/fleet_ingest.hpp"

#include "common/assert.hpp"

namespace fdqos::fd {

FleetIngest::FleetIngest(FleetBank& fleet, std::size_t capacity)
    : fleet_(fleet), capacity_(capacity), slot_of_(capacity) {
  FDQOS_REQUIRE(fleet.members() >= capacity);
}

bool FleetIngest::offer(net::NodeId source, std::int64_t seq) {
  std::uint32_t slot = slot_of_.find(source);
  if (slot == SlotTable::kNoSlot) {
    if (slot_of_.size() >= capacity_) {
      ++counters_.dropped_capacity;
      return false;
    }
    slot = slot_of_.emplace(source,
                            static_cast<std::uint32_t>(slot_of_.size()));
  }
  batch_.endpoint.push_back(slot);
  batch_.seq.push_back(seq);
  return true;
}

void FleetIngest::flush() {
  if (batch_.size() == 0) return;
  fleet_.ingest_columns(batch_);
  batch_.clear();
}

std::size_t FleetIngest::slot_of(net::NodeId source) const {
  const std::uint32_t slot = slot_of_.find(source);
  return slot == SlotTable::kNoSlot ? capacity_ : slot;
}

}  // namespace fdqos::fd
