// RoundGate — the communication-closed round choke point of the membership
// protocol.
//
// Timewheel's epoch/view machinery is round-structured: every epoch (group
// id) is a sequence of decision rounds, each tagged by its decider's
// synchronized-clock send timestamp. A control message is only meaningful
// inside the round structure it was sent for; letting one leak across a
// round or epoch boundary is exactly how the repo's two nastiest bugs
// happened (the seed-10/87 heal lineage race and the same-epoch decider
// fork). Historically the fences guarding against that leakage were
// scattered across the message handlers; this object is the single place
// every inbound control message is classified against the node's current
// (epoch, round) position and dropped — observably, exactly once — when it
// belongs to a closed round.
//
// The gate is authoritative for the round cursor (the freshest decision
// round adopted, formerly TimewheelNode::last_decision_ts_) and the durable
// re-baseline floor; it reads the rest of the node's position (installed
// epoch, suspect, recovery flags) directly, so there is no second copy of
// protocol state to fall out of sync. Semantics are check-for-check those
// of the scattered predecessors (see DESIGN.md §3d for the equivalence
// argument) — the pinned seed10/seed87 heal replays are the contract.
#pragma once

#include <cstdint>

#include "sim/time.hpp"
#include "util/process_set.hpp"
#include "util/types.hpp"

namespace tw::gms {

class TimewheelNode;

/// Control-message classes that flow through the gate (coarser than
/// net::MsgKind: data-path traffic — proposals, retransmits — is not
/// round-fenced).
enum class RoundMsg : std::uint8_t {
  decision = 0,
  no_decision = 1,
  reconfiguration = 2,
  join = 3,
  state_transfer = 4,
  rejoin_request = 5,
};

/// Why the gate refused a message (EvKind::round_drop, low nibble of arg).
enum class RoundDrop : std::uint8_t {
  accepted = 0,       ///< not a drop
  stale = 1,          ///< older than the staleness bound (≈ one cycle, §3)
  future = 2,         ///< timestamp ahead of any admissible clock
  duplicate = 3,      ///< not newer than the sender's last accepted message
  old_round = 4,      ///< at or before the freshest adopted decision round
  old_epoch = 5,      ///< gid below the installed epoch fence
  durable_floor = 6,  ///< below the durable re-baseline floor (recovery)
  late = 7,           ///< fail-aware lateness rejection (non-Δ-stable, §3)
};

[[nodiscard]] const char* round_msg_name(RoundMsg m);
[[nodiscard]] const char* round_drop_name(RoundDrop d);

class RoundGate {
 public:
  explicit RoundGate(TimewheelNode& node) : node_(node) {}

  /// One inbound control message, as seen by the gate.
  struct Inbound {
    RoundMsg kind = RoundMsg::decision;
    ProcessId from = kNoProcess;
    sim::ClockTime send_ts = 0;
    /// Epoch (gid) the message carries; 0 for kinds that carry none.
    GroupId epoch = 0;
    /// Alive-list for the failure detector's bookkeeping (kinds that are
    /// FD-surveilled); nullptr for kinds that must not refresh the
    /// sender's standing (state transfers, rejoin solicitations).
    const util::ProcessSet* alive = nullptr;
  };

  /// THE choke point. Classifies `m` against the node's (epoch, round)
  /// position, performs the failure detector's receive bookkeeping on
  /// acceptance, and on refusal emits round_drop + bumps gms.stale_dropped
  /// (once — no other layer re-checks). Returns RoundDrop::accepted to let
  /// the message through.
  RoundDrop admit(const Inbound& m, sim::ClockTime now);

  // --- round cursor ----------------------------------------------------
  /// send_ts of the freshest decision this node adopted (-1 before any).
  [[nodiscard]] sim::ClockTime last_round() const { return last_round_; }
  /// Adopt a fresher decision round (admit() guarantees ts advances it
  /// for gated paths; senders stamp max(now, last_round()+1) themselves).
  void advance_round(sim::ClockTime ts) { last_round_ = ts; }

  /// Election-message freshness: usable at most once and only for about a
  /// cycle (§4.2) — the same staleness bound the gate applies on receive.
  [[nodiscard]] bool fresh(sim::ClockTime ts, sim::ClockTime now) const;

  // --- durable re-baseline floor (crash recovery) ----------------------
  void set_durable_floor(GroupId gid) { durable_floor_ = gid; }

  /// Crash-recovery reset: the round cursor restarts (the floor is
  /// re-derived from the durable kernel by on_start).
  void reset() { last_round_ = -1; }

 private:
  /// Emit round_drop and bump gms.stale_dropped; returns `why`.
  RoundDrop drop(const Inbound& m, RoundDrop why);

  TimewheelNode& node_;
  sim::ClockTime last_round_ = -1;
  GroupId durable_floor_ = 0;
};

}  // namespace tw::gms
