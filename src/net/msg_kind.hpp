// Message-kind tags. The first byte of every datagram on the wire is one of
// these values, so the simulated network can account messages per kind
// (experiment E1) and stacks can demultiplex before full decoding.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace tw::net {

enum class MsgKind : std::uint8_t {
  invalid = 0,

  // Clock synchronization service (tw::csync).
  clocksync_request = 1,
  clocksync_reply = 2,

  // Timewheel atomic broadcast (tw::bcast).
  proposal = 8,
  decision = 9,
  retransmit_request = 10,
  proposal_batch = 11,  ///< several proposals coalesced into one datagram

  // Timewheel group membership (tw::gms).
  no_decision = 16,
  join = 17,
  reconfiguration = 18,
  state_transfer = 19,
  state_request = 20,
  rejoin_request = 21,
  decision_request = 22,  ///< pull of the decider's last decision

  // Multi-group runtime demux wrapper (tw::gms::GroupRuntime): the frame
  // is [group_tag][varint tag][inner payload]; tag 0 is never wrapped, so
  // single-group wire traffic stays byte-identical to the legacy format.
  group_tag = 24,

  // Baseline membership protocols (tw::baseline).
  heartbeat = 32,
  view_proposal = 33,
  view_ack = 34,
  view_commit = 35,
  attendance_token = 36,

  // Application-level payloads used by the examples.
  app = 64,
};

[[nodiscard]] constexpr const char* msg_kind_name(MsgKind k) {
  switch (k) {
    case MsgKind::invalid: return "invalid";
    case MsgKind::clocksync_request: return "clocksync_request";
    case MsgKind::clocksync_reply: return "clocksync_reply";
    case MsgKind::proposal: return "proposal";
    case MsgKind::decision: return "decision";
    case MsgKind::retransmit_request: return "retransmit_request";
    case MsgKind::proposal_batch: return "proposal_batch";
    case MsgKind::no_decision: return "no_decision";
    case MsgKind::join: return "join";
    case MsgKind::reconfiguration: return "reconfiguration";
    case MsgKind::state_transfer: return "state_transfer";
    case MsgKind::state_request: return "state_request";
    case MsgKind::rejoin_request: return "rejoin_request";
    case MsgKind::decision_request: return "decision_request";
    case MsgKind::group_tag: return "group_tag";
    case MsgKind::heartbeat: return "heartbeat";
    case MsgKind::view_proposal: return "view_proposal";
    case MsgKind::view_ack: return "view_ack";
    case MsgKind::view_commit: return "view_commit";
    case MsgKind::attendance_token: return "attendance_token";
    case MsgKind::app: return "app";
  }
  return "?";
}

[[nodiscard]] constexpr std::uint8_t kind_byte(MsgKind k) {
  return static_cast<std::uint8_t>(k);
}

/// Backpressure classification: data-plane kinds (proposals and
/// application payloads) may be shed at a saturated sender — the proposer
/// retries end to end. Everything else is control plane (rounds, views,
/// membership, repair, state transfer): shedding it would stall or fork
/// the GROUP, not one update, so control always passes an outbound cap.
[[nodiscard]] constexpr bool is_data_kind(std::uint8_t k) {
  switch (static_cast<MsgKind>(k)) {
    case MsgKind::proposal:
    case MsgKind::proposal_batch:
    case MsgKind::app:
      return true;
    default:
      return false;
  }
}

/// The kind byte a backpressure decision should classify by: the payload's
/// first byte, except that a multi-group wrapper ([group_tag][varint
/// tag][inner]) is transparent — the INNER kind decides, so one group's
/// proposal flood cannot shed a sibling's view change. An empty or
/// truncated frame classifies as invalid (control: the CRC/runt checks own
/// rejecting it, not the backpressure path).
[[nodiscard]] constexpr std::uint8_t classify_kind(
    std::span<const std::byte> payload) {
  if (payload.empty()) return kind_byte(MsgKind::invalid);
  const auto first = static_cast<std::uint8_t>(payload[0]);
  if (first != kind_byte(MsgKind::group_tag)) return first;
  // Skip the varint group tag (LEB128: high bit = continuation).
  std::size_t i = 1;
  while (i < payload.size() &&
         (static_cast<std::uint8_t>(payload[i]) & 0x80u) != 0)
    ++i;
  ++i;  // the varint's terminating byte
  if (i >= payload.size()) return kind_byte(MsgKind::invalid);
  return static_cast<std::uint8_t>(payload[i]);
}

}  // namespace tw::net
