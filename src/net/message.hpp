// Wire-level message model.
//
// Matches the paper's link assumptions (§2.2): messages travel over fair-
// lossy, UDP-like links — they can be dropped or reordered but never
// created, corrupted, or duplicated. A heartbeat is a Message of type
// kHeartbeat whose `seq` is the sender's cycle number i (send time
// σ_i = i·η).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/time.hpp"

namespace fdqos::net {

using NodeId = std::int32_t;

enum class MessageType : std::uint32_t {
  kHeartbeat = 1,
  kPing = 2,       // decoded for wire compatibility; nothing sends it
  kPong = 3,       // decoded for wire compatibility; nothing sends it
  kUser = 100,     // application payloads
};

struct Message {
  NodeId from = 0;
  NodeId to = 0;
  MessageType type = MessageType::kHeartbeat;
  std::int64_t seq = 0;
  TimePoint send_time;               // stamped by the sender (global timeline)
  std::vector<std::uint8_t> payload;  // opaque application bytes

  std::string to_string() const;
};

const char* message_type_name(MessageType type);

}  // namespace fdqos::net
