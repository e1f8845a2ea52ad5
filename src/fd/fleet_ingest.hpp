// FleetIngest — dynamic endpoint admission in front of a FleetBank.
//
// A FleetBank's member set is fixed at start() (the shard tick and timer
// heap are sized around it), but a live ingest daemon (`fdqos serve`)
// learns its monitored fleet from the traffic itself: the first heartbeat
// from an unknown source claims the next free member slot. This front-end
// owns that mapping. The daemon pre-adds `capacity` members before
// start(); FleetIngest hands slots out on first sight and buffers
// (slot, seq) pairs into a columnar batch the daemon flushes once per
// receive batch — so the bank sees exactly the ingest_columns() fast path
// the fleet bench exercises. Heartbeats beyond capacity are counted and
// dropped (the FleetBank contract: wire input is data, never an abort).
// The id → slot lookup on every heartbeat is a flat SlotTable sized for
// `capacity` up front, so admission never rehashes under load.
#pragma once

#include <cstdint>

#include "fd/fleet_bank.hpp"
#include "fd/slot_table.hpp"

namespace fdqos::fd {

class FleetIngest {
 public:
  struct Counters {
    std::uint64_t dropped_capacity = 0;  // heartbeats refused: no free slot
  };

  // `capacity` member slots must already exist on `fleet` (the daemon adds
  // them before start()); FleetIngest never adds members itself.
  FleetIngest(FleetBank& fleet, std::size_t capacity);

  // Offers one heartbeat. Known sources and admissible new ones buffer
  // into the pending batch and return true; once every slot is claimed,
  // unknown sources are counted as dropped and refused.
  bool offer(net::NodeId source, std::int64_t seq);

  // Hands the buffered batch to the fleet (one ingest_columns() call) and
  // clears it. No-op on an empty batch.
  void flush();

  std::size_t pending() const { return batch_.size(); }
  std::size_t admitted() const { return slot_of_.size(); }
  std::size_t capacity() const { return capacity_; }
  const Counters& counters() const { return counters_; }
  // Slot of an admitted source, or capacity() if never admitted.
  std::size_t slot_of(net::NodeId source) const;

 private:
  FleetBank& fleet_;
  std::size_t capacity_;
  SlotTable slot_of_;
  FleetBank::HeartbeatColumns batch_;
  Counters counters_;
};

}  // namespace fdqos::fd
