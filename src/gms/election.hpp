// Election — Figure 2's way from a suspicion, or from the join state, to
// a new group (paper §4.2).
//
//   - The single-failure election: the no-decision ring started by the
//     suspect's successor, closed by the suspect's predecessor, and the
//     wrong-suspicion take-over by a member holding a decision the
//     suspecters missed (with a rate-limited resend of a suspected
//     member's last control message).
//   - The multiple-failure election: slotted reconfiguration messages,
//     the one-election-per-cycle abstention and the excluded member's wait
//     for the new group's decisions.
//   - The join protocol: slot duties and the continuity, completeness and
//     knowledge rules that guard the forming of a group.
//   - Group creation for all three, and the watchdog that falls back to
//     the join state when an election cannot complete.
// It keeps the last no-decision, reconfiguration and join message of each
// team member. The failure-free decision ring, the failure detector's
// surveillance and view installation stay with the node. Like RoundGate
// and Rebaseline it reads the node directly (it is a friend of
// TimewheelNode).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "gms/messages.hpp"

namespace tw::gms {

class TimewheelNode;

class Election {
 public:
  explicit Election(TimewheelNode& node) : node_(node) { reset(); }

  /// Start of an incarnation: forget every election message and episode.
  void reset();

  // --- Figure 2's edges, driven by the node ---------------------------
  /// Enter the join state with a fresh join dance.
  void enter_join();
  /// A decision from the current suspect: we no longer concur.
  void enter_wrong_suspicion();
  /// The failure detector timed out on `suspect`: open or join the
  /// no-decision ring, or escalate an open single-failure election.
  void suspected(ProcessId suspect, sim::ClockTime now);
  void enter_n_failure(sim::ClockTime now);
  /// Our own slot began: join or reconfiguration duties.
  void slot_duties(sim::ClockTime now, std::int64_t slot);
  /// Housekeeping: fall back to the join state when an election has not
  /// completed within kJoinFallbackCycles cycles.
  void watch_stall(sim::ClockTime now);

  // --- admitted control messages ----------------------------------------
  void on_no_decision(ProcessId from, NoDecision nd, sim::ClockTime now);
  void on_reconfiguration(ProcessId from, Reconfiguration r,
                          sim::ClockTime now);
  /// Group members see a joiner through the FD's alive-list; the right
  /// decider will integrate it (§4.2).
  void on_join(ProcessId from, Join j) { join_[from] = std::move(j); }

  // --- what a decision means for an election -------------------------
  /// A decision sent at `ts` was adopted: election messages may be used at
  /// most once (§4.2), and older ones belong to a resolved episode.
  void decided(sim::ClockTime ts) {
    for (auto& nd : nd_)
      if (nd.send_ts >= 0 && nd.send_ts <= ts) nd = NoDecision{};
    for (auto& rc : recon_)
      if (rc && rc->send_ts <= ts) rc.reset();
  }
  /// A multiple-failure episode ended with a decision or a new group.
  void end_episode() {
    electing_since_ = -1;
    sent_nd_this_episode_ = false;
  }
  /// A decision names us a member again: stop waiting to be excluded.
  void stop_exit_wait() { exit_wait_.clear(); }
  /// A decision of a group without us, received in the n-failure state:
  /// wait for a decision from every new member before joining (§4.2).
  void await_exit(const bcast::Decision& d, ProcessId from);
  /// `d`'s group was just formed by the join protocol we took part in: its
  /// oal's membership entry is under two cycles old, and every other
  /// member sent us a join message within the last two cycles.
  [[nodiscard]] bool formed_by_join(const bcast::Decision& d,
                                    sim::ClockTime now) const;
  /// Allocate the id for a group created now: strictly greater than the
  /// node's gid, unique across concurrent creators (creator id in the low
  /// digits).
  [[nodiscard]] GroupId next_gid(sim::ClockTime now) const;

 private:
  // --- single failure ----------------------------------------------------
  void send_no_decision(sim::ClockTime now);
  /// Our no-decision ring predecessor has spoken (Figure 2): close the
  /// election if we precede the suspect, else pass a no-decision on and
  /// watch our successor.
  void pass_no_decision(sim::ClockTime now);
  void close_single_failure(sim::ClockTime now);
  void become_decider_wrong_suspicion(sim::ClockTime now);
  /// Resend the node's last control message for a wrong-suspicion
  /// episode, rate-limited with exponential backoff + jitter so repeated
  /// or duplicated no-decision messages can't turn the resend into a
  /// repair storm.
  void resend_last_control(sim::ClockTime now);

  // --- multiple failures ---------------------------------------------
  void reconfiguration_slot_duties(sim::ClockTime now, std::int64_t slot);
  void send_reconfiguration(sim::ClockTime now, bool abstain);
  [[nodiscard]] util::ProcessSet current_recon_list(std::int64_t slot) const;

  // --- join ----------------------------------------------------------------
  void join_slot_duties(sim::ClockTime now, std::int64_t slot);
  [[nodiscard]] util::ProcessSet current_join_list(std::int64_t slot) const;
  void send_join(sim::ClockTime now);

  /// Create a new group as decider: repair the oal, install, send the
  /// first decision (and state transfers to joiners).
  void create_group(util::ProcessSet members, util::ProcessSet departed,
                    std::vector<bcast::ProposalId> extra_dpds,
                    util::ProcessSet joiners, sim::ClockTime now);

  TimewheelNode& node_;
  /// Each member's last no-decision, join and reconfiguration message
  /// (send_ts -1 or nullopt: none heard).
  std::vector<NoDecision> nd_;
  std::vector<Join> join_;
  std::vector<std::optional<Reconfiguration>> recon_;
  bool sent_nd_this_episode_ = false;
  sim::ClockTime my_recon_ts_ = -1;      ///< ts of last non-abstaining recon
  util::ProcessSet my_recon_list_;       ///< list sent with it
  sim::ClockTime abstain_until_ = -1;    ///< one-election-per-cycle rule
  /// Delayed switch to join (n-failure exclusion, paper §4.2): the new
  /// group's members whose decision we still await; non-empty exactly
  /// while an excluded n-failure member waits.
  util::ProcessSet exit_wait_;
  /// Start of the current election (-1: none), for the join fallback.
  sim::ClockTime electing_since_ = -1;
  /// Resend budget for the current wrong-suspicion episode: count and
  /// timestamp of the last resend.
  int resends_ = 0;
  sim::ClockTime last_resend_ = -1;
};

}  // namespace tw::gms
