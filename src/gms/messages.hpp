// Wire formats of the membership control messages (paper §4.1):
// no-decision, join, reconfiguration — plus the state-transfer message used
// when a joiner is integrated (§4.2 join state).
#pragma once

#include <vector>

#include "bcast/delivery.hpp"
#include "bcast/messages.hpp"
#include "bcast/oal.hpp"
#include "net/msg_kind.hpp"
#include "util/bytes.hpp"
#include "util/process_set.hpp"

namespace tw::gms {

/// Sent by a member that suspects the current decider has failed and wants
/// it removed. Carries the sender's view of the oal and its dpd field so a
/// new decider can repair the oal (paper §4.3).
struct NoDecision {
  ProcessId suspect = kNoProcess;
  GroupId gid = 0;                  ///< sender's current group
  sim::ClockTime send_ts = -1;      ///< -1: none sent
  sim::ClockTime last_decision_ts = 0;  ///< freshest decision sender knows
  util::ProcessSet alive;           ///< piggybacked alive-list
  bcast::Oal view;                  ///< sender's oal view v_p
  std::vector<bcast::ProposalId> dpd;

  [[nodiscard]] std::vector<std::byte> encode() const;
  static NoDecision decode(util::ByteReader& r);
};

/// Sent in the sender's time slot while it wants to (re)join.
struct Join {
  sim::ClockTime send_ts = -1;  ///< -1: none sent
  util::ProcessSet join_list;  ///< always contains the sender
  /// Timestamp of the freshest decision the sender knows (-1 if none):
  /// lets the join protocol elect the most-knowledgeable process as the
  /// first decider and ship state transfers to stale joiners.
  sim::ClockTime last_decision_ts = -1;
  /// Id of the sender's last installed group (0 if it never installed a
  /// view this incarnation). The continuity rule only counts a process as
  /// carrying a group's history when it proves membership knowledge at
  /// least that fresh — a crash-recovered process lost its replica state
  /// and must not contribute to the old group's survivor majority.
  GroupId gid = 0;

  [[nodiscard]] std::vector<std::byte> encode() const;
  static Join decode(util::ByteReader& r);
};

/// Sent in the sender's time slot during a multiple-failure election
/// (n-failure state). An empty reconfiguration-list marks an abstaining
/// process (one-election-per-cycle rule, §4.2).
struct Reconfiguration {
  sim::ClockTime send_ts = 0;
  util::ProcessSet recon_list;      ///< empty while abstaining
  sim::ClockTime last_decision_ts = 0;
  GroupId last_gid = 0;             ///< group of that decision
  util::ProcessSet last_group;
  util::ProcessSet alive;
  bcast::Oal view;
  std::vector<bcast::ProposalId> dpd;

  [[nodiscard]] bool abstaining() const { return recon_list.empty(); }

  [[nodiscard]] std::vector<std::byte> encode() const;
  static Reconfiguration decode(util::ByteReader& r);
};

/// Unicast from the integrating decider to a joiner: retrieved application
/// state plus the undelivered proposals from the decider's proposal buffer
/// (paper §4.2 join state).
struct StateTransfer {
  GroupId gid = 0;
  sim::ClockTime send_ts = 0;
  std::vector<std::byte> app_state;
  std::vector<bcast::Proposal> proposals;
  bcast::Oal oal;
  /// Delivery/ordering marks of the transferred app state: what the joiner
  /// must never deliver or re-order (see DeliveryEngine::TransferMarks).
  bcast::DeliveryEngine::TransferMarks marks;

  [[nodiscard]] std::vector<std::byte> encode() const;
  static StateTransfer decode(util::ByteReader& r);
};

/// Broadcast-free rehabilitation solicitation: a crash-recovered process
/// that is STILL listed in the current view (the group never detected the
/// crash, so the join protocol will never re-integrate it) unicasts this to
/// a member to request a fresh state transfer. The donor's round gate
/// refuses it when stale; the requester's gate refuses a transfer from a
/// group older than its durable view floor.
struct RejoinRequest {
  sim::ClockTime send_ts = 0;

  [[nodiscard]] std::vector<std::byte> encode() const;
  static RejoinRequest decode(util::ByteReader& r);
};

void encode_pid_list(util::ByteWriter& w,
                     const std::vector<bcast::ProposalId>& pids);
std::vector<bcast::ProposalId> decode_pid_list(util::ByteReader& r);

}  // namespace tw::gms
