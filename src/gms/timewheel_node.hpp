// TimewheelNode — one team member's complete timewheel group communication
// stack: fail-aware clock synchronization, the timewheel atomic broadcast
// engine, and the timewheel group membership protocol (failure detector +
// group creator, paper §4). This is the library's public facade; bind one
// node per team member to a net::Endpoint (simulated or UDP) and drive it
// through try_propose()/callbacks.
#pragma once

#include <functional>
#include <initializer_list>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "bcast/delivery.hpp"
#include "bcast/messages.hpp"
#include "clocksync/clock_sync.hpp"
#include "gms/config.hpp"
#include "gms/election.hpp"
#include "gms/failure_detector.hpp"
#include "gms/messages.hpp"
#include "gms/proposer.hpp"
#include "gms/rebaseline.hpp"
#include "gms/round.hpp"
#include "gms/slots.hpp"
#include "gms/state.hpp"
#include "net/transport.hpp"

namespace tw::store {
class StableStore;
}

namespace tw::gms {

/// Application-facing callbacks. All optional.
struct AppCallbacks {
  /// An update became deliverable. `ordinal` is kNoOrdinal when the update
  /// was delivered early (weak atomicity + unordered order).
  std::function<void(const bcast::Proposal&, Ordinal ordinal)> deliver;
  /// A new group (view) was installed at this member.
  std::function<void(GroupId, util::ProcessSet members)> view_change;
  /// Retrieve the application state for transfer to a joiner (paper §4.2:
  /// the integrating decider "retrieves its application state by calling a
  /// dedicated function provided by the application").
  std::function<std::vector<std::byte>()> get_state;
  /// Install transferred application state on a joiner.
  std::function<void(std::span<const std::byte>)> set_state;
};

/// Operational counters exposed by a node (monotone since the last
/// on_start; useful for dashboards and asserted in tests).
struct NodeStats {
  std::uint64_t decisions_sent = 0;
  std::uint64_t proposals_sent = 0;
  std::uint64_t views_installed = 0;
  std::uint64_t suspicions_raised = 0;      ///< own FD timeouts
  std::uint64_t no_decisions_sent = 0;
  std::uint64_t reconfigurations_sent = 0;  ///< non-abstaining
  std::uint64_t groups_created = 0;         ///< elections we closed
  std::uint64_t wrong_suspicions = 0;       ///< wrong-suspicion entries
  std::uint64_t state_transfers_sent = 0;
  std::uint64_t state_transfers_received = 0;
  std::uint64_t retransmit_requests_sent = 0;
  std::uint64_t exclusions = 0;             ///< times we were voted out
  std::uint64_t rejoin_requests_sent = 0;   ///< zombie-rehab solicitations
  std::uint64_t rehabilitations = 0;        ///< recoveries re-baselined
  std::uint64_t proposal_batches_sent = 0;  ///< multi-proposal datagrams
  std::uint64_t stale_dropped = 0;          ///< round-gate refusals
  std::uint64_t proposals_refused = 0;      ///< admission-control refusals
  std::uint64_t overload_enters = 0;        ///< watermark escalations
  std::uint64_t overload_exits = 0;         ///< watermark recoveries
  std::uint64_t occupancy_peak = 0;         ///< high-water own in-flight
  std::uint64_t rebaseline_shed = 0;        ///< buffered deliveries shed
  std::uint64_t repair_backoffs = 0;        ///< retransmit retries delayed
  std::uint64_t resends_suppressed = 0;     ///< rate-limited control resends
  std::uint64_t decision_pulls = 0;         ///< decision_requests sent
  std::uint64_t pull_replies = 0;           ///< decisions resent on request
};

class TimewheelNode final : public net::Handler {
 public:
  /// Minimum spacing between the ring's decisions. A decider holding fresh
  /// work sends its decision this long after the last decision it adopted,
  /// or at the end of the current turn if that is already past, instead of
  /// waiting out the idle decision delay — a deadline, not a debounce:
  /// later proposals never postpone it. An idle ring therefore orders a
  /// fresh proposal at once, and a busy one batches whatever arrives
  /// within the spacing. Proposals already held when the role arrives
  /// count as fresh from the moment it is assumed.
  static constexpr sim::Duration kProposalBatchDelay = sim::msec(2);

  /// `store` (optional) is this process's stable storage: it must outlive
  /// the node and SURVIVE crash/recover cycles — on every on_start the node
  /// re-opens it, bumps the durable incarnation, restarts the proposal
  /// sequence above the durable reservation and imports the durable
  /// delivery watermarks. Without a store the node falls back to the
  /// clock-based proposal-id heuristic and volatile-only recovery.
  TimewheelNode(net::Endpoint& endpoint, NodeConfig cfg, AppCallbacks app,
                store::StableStore* store = nullptr);
  ~TimewheelNode() override;
  TimewheelNode(const TimewheelNode&) = delete;
  TimewheelNode& operator=(const TimewheelNode&) = delete;

  // net::Handler -------------------------------------------------------
  void on_start() override;
  void on_datagram(ProcessId from, std::span<const std::byte> data) override;

  // Public API ---------------------------------------------------------
  /// Broadcast an update with the given semantics; the result carries the
  /// proposal's sequence number. Proposals made before the node is a group
  /// member are queued and sent on join. With cfg.max_pending > 0 this
  /// refuses (rather than queues) while the node holds that many own
  /// proposals in flight. Refusal happens BEFORE a sequence number is
  /// consumed, so it is invisible to FIFO / fifo_floor gap detection — see
  /// NodeConfig::max_pending for why shedding after admission is not an
  /// option. With max_pending == 0 every proposal is accepted.
  ProposeResult try_propose(
      std::vector<std::byte> payload, bcast::Order order = bcast::Order::total,
      bcast::Atomicity atomicity = bcast::Atomicity::weak) {
    return proposer_.propose(std::move(payload), order, atomicity);
  }

  // Introspection ------------------------------------------------------
  [[nodiscard]] ProcessId self() const { return ep_.self(); }
  [[nodiscard]] GcState state() const { return state_; }
  [[nodiscard]] bool in_group() const {
    return installed_ && group_.contains(self());
  }
  [[nodiscard]] GroupId group_id() const { return gid_; }
  [[nodiscard]] util::ProcessSet group() const { return group_; }
  /// The member this node believes currently holds (or is next to take)
  /// the decider role.
  [[nodiscard]] ProcessId believed_decider() const { return expected_decider_; }
  [[nodiscard]] bool has_decider_role() const { return i_am_decider_; }
  [[nodiscard]] std::uint64_t decisions_sent() const {
    return stats_.decisions_sent;
  }
  [[nodiscard]] std::uint64_t delivered_count() const {
    return delivery_.delivered_count();
  }
  [[nodiscard]] csync::ClockSync& clock() { return clock_; }
  [[nodiscard]] const bcast::DeliveryEngine& delivery() const {
    return delivery_;
  }
  [[nodiscard]] const FailureDetector& failure_detector() const { return fd_; }
  [[nodiscard]] const NodeConfig& config() const { return cfg_; }
  [[nodiscard]] const NodeStats& stats() const { return stats_; }
  /// True from a crash recovery until a state transfer re-baselined
  /// application state and delivery marks, or the state-request ladder
  /// gave up. A converged run must end with this false on every member —
  /// the torture oracle's rehabilitation-liveness invariant.
  [[nodiscard]] bool recovered_dirty() const { return rebaseline_.dirty(); }
  /// True while this process carries application deliveries that a later
  /// authoritative window superseded (adopt_oal reported them divergent at
  /// a moment no re-baseline could run, e.g. while excluded). Forces the
  /// state-transfer re-baseline at re-integration; same oracle contract as
  /// recovered_dirty(): a converged run ends with this false everywhere.
  [[nodiscard]] bool lineage_forked() const { return rebaseline_.forked(); }
  [[nodiscard]] bool awaiting_state() const { return rebaseline_.awaiting(); }
  [[nodiscard]] std::size_t buffered_delivery_count() const {
    return rebaseline_.buffered_count();
  }
  /// Durable incarnation number (0 when running without a store).
  [[nodiscard]] std::uint64_t incarnation() const { return incarnation_; }
  /// Current rung of the degraded-mode ladder (always `normal` when
  /// max_pending == 0).
  [[nodiscard]] OverloadState overload_state() const {
    return proposer_.overload_state();
  }
  /// Own proposals in flight: queued-until-member plus
  /// admitted-but-undelivered (the quantity max_pending bounds).
  [[nodiscard]] std::size_t occupancy() const { return proposer_.occupancy(); }

 private:
  // --- clock helpers ----------------------------------------------------
  [[nodiscard]] std::optional<sim::ClockTime> sync_now() {
    return clock_.now();
  }
  /// Arm `timer` to fire when the synchronized clock reads >= target; the
  /// callback re-checks and re-arms if the clock ran slow.
  void arm_sync_timer(net::TimerId& timer, sim::ClockTime target,
                      std::function<void()> fn);
  void cancel_timer(net::TimerId& timer);

  // --- state machine ------------------------------------------------------
  void set_state(GcState next);
  /// In one of Figure 2's single-failure states: wrong-suspicion or
  /// one-failure receive/send.
  [[nodiscard]] bool in_single_failure() const;
  /// Give up the decider role and the surveillance: no decision is due
  /// and no control message is expected.
  void stand_down();
  /// Volatile state back to a fresh start; a `recovered` incarnation's
  /// application state awaits a re-baseline.
  void full_reset(bool recovered);
  void on_clock_sync_change(bool synchronized);

  // --- message handlers ----------------------------------------------------
  /// Rejects, as a util::DecodeError, a control message whose header names
  /// a process outside the team: the decoders cannot know n, and these ids
  /// index per-member state. Runs before the round gate.
  void check_in_team(std::initializer_list<ProcessId> ids,
                     std::initializer_list<util::ProcessSet> sets) const;
  /// The synchronized time at which the round gate admitted `m`, or
  /// nullopt when the clock is out of sync or the gate refused it.
  [[nodiscard]] std::optional<sim::ClockTime> admit(
      const RoundGate::Inbound& m);
  void handle_decision(ProcessId from, bcast::Decision d, sim::ClockTime now);
  /// A proposal or proposal_batch datagram (a proposal is a batch of one).
  void handle_proposals(ProcessId from, std::span<const bcast::Proposal> ps);
  /// A decision pull from a member whose freshest adopted round is
  /// `round`: answer with a unicast copy of our last decision when that is
  /// fresher.
  void handle_decision_request(ProcessId from, sim::ClockTime round);

  // --- FD surveillance -------------------------------------------------
  /// Point the FD at `sender` (skipping the current suspect), due 2D after
  /// base_ts, and arm the timer. A failure-free member watching its
  /// expected decider arms the timer's first stage, the decision pull,
  /// when it fits before the deadline (see the definition).
  void expect_next(ProcessId sender, sim::ClockTime base_ts);
  /// Arm the FD timer for the expectation's deadline.
  void arm_fd_deadline();
  void on_fd_timeout();
  /// Successor/predecessor in the current group's ring, skipping the
  /// currently suspected process.
  [[nodiscard]] ProcessId succ_active(ProcessId p) const;
  [[nodiscard]] ProcessId pred_active(ProcessId p) const;

  // --- slot machinery ---------------------------------------------------
  void arm_slot_timer();
  void on_housekeeping();

  // --- control messages -------------------------------------------------
  /// Broadcast a control message and keep it for wrong-suspicion resends
  /// and decision pulls.
  void broadcast_control(std::vector<std::byte> bytes);
  /// The ring-send helper for decisions and no-decisions: broadcast_control
  /// plus a handoff copy to our ring successor (succ_active), the one member
  /// whose failure detector reads a lost copy as a failed sender.
  void send_ring(std::vector<std::byte> bytes);
  /// Unicast a copy of last_control_sent_ (handoff copies, pull replies).
  void send_last_control(ProcessId to);

  // --- decider duties ---------------------------------------------------
  /// Take the role. Fresh work makes the decision prompt: proposals to
  /// order, payloads to repair, or an ack that would complete a strong or
  /// strict entry's quorum.
  void assume_decider_role(sim::ClockTime now);
  /// Arm the decision timer — a deadline, not a debounce: an armed
  /// decision is only ever moved earlier. A `prompt` decision (we hold
  /// fresh work) is due kProposalBatchDelay after the ring's last decision,
  /// or now if that has passed; otherwise the idle decision delay from now.
  void schedule_decision(bool prompt);
  void send_decision(sim::ClockTime now);
  /// The one decision emission path (rotation, joiner integration, group
  /// creation): send `oal` round the ring as our decision, adopt it
  /// ourselves, pass the role on and send state transfers to `joiners`.
  void emit_decision(bcast::Oal oal, util::ProcessSet joiners,
                     sim::ClockTime now);
  /// Held proposals a decision made now would order (FIFO per sender).
  [[nodiscard]] std::vector<const bcast::Proposal*> orderable_proposals(
      sim::ClockTime now) const;
  /// Order pending proposals into the oal (FIFO per sender).
  void order_pending_proposals(bcast::Oal& oal, sim::ClockTime now);
  /// Integrate a joiner if this decider is its successor and everyone has
  /// seen it (paper §4.2). Returns the joiners added.
  util::ProcessSet try_integrate_joiners(sim::ClockTime now);

  // --- membership install / delivery ----------------------------------
  void install_view(GroupId gid, util::ProcessSet members,
                    sim::ClockTime now, bool expect_state_transfer = false);
  /// Keep the group id, members and oal of a decision whose group we do
  /// not (yet) join.
  void learn_group(const bcast::Decision& d, sim::ClockTime now);
  void handle_exclusion(const bcast::Decision& d, ProcessId from,
                        sim::ClockTime now);
  void deliver_to_app(const bcast::Proposal& p, Ordinal ordinal);
  /// Hand a delivery to the application and persist the watermark.
  void hand_to_app(const bcast::Proposal& p, Ordinal ordinal);
  /// Deterministic per-process jitter so healed teams don't retry in
  /// lockstep (derived from self/incarnation/attempt; no RNG, replayable).
  [[nodiscard]] sim::Duration retry_jitter(int attempt) const;
  void run_delivery(sim::ClockTime now);

  // ---------------------------------------------------------------------
  net::Endpoint& ep_;
  NodeConfig cfg_;
  AppCallbacks app_;
  /// Stable storage (nullable). Owned by the harness / embedding process
  /// so it survives crash/recover cycles of this node.
  store::StableStore* store_ = nullptr;
  int n_;  ///< team size N
  SlotMap slots_;

  csync::ClockSync clock_;
  FailureDetector fd_;
  /// Surveillance-timeout policy (cfg_.detector); fd_ holds a non-owning
  /// pointer. nullptr when cfg_.detector == fixed (the FD's default).
  std::unique_ptr<DetectorPolicy> detector_policy_;
  bcast::DeliveryEngine delivery_;
  /// The round gate reads the node's (epoch, round) position directly
  /// (single source of truth) and owns the round cursor + durable floor.
  friend class RoundGate;
  RoundGate round_{*this};
  /// Owns every re-baseline of our application state (state transfers,
  /// zombie rehabilitation, forked histories); reads the node like round_.
  friend class Rebaseline;
  Rebaseline rebaseline_{*this};
  /// Owns the elections and the join protocol, up to each new group.
  friend class Election;
  Election election_{*this};
  /// Owns every proposal payload this member sends or asks for.
  friend class Proposer;
  Proposer proposer_{*this};

  GcState state_ = GcState::join;

  // Group bookkeeping.
  bool installed_ = false;
  GroupId gid_ = 0;
  util::ProcessSet group_;
  ProcessId suspect_ = kNoProcess;

  // Freshest decision we know (the round cursor itself lives in round_).
  std::uint64_t last_decision_no_ = 0;

  // Decider-role tracking.
  bool i_am_decider_ = false;
  ProcessId expected_decider_ = kNoProcess;
  /// Synchronized time decision_timer_ is armed for (meaningless while the
  /// timer is not armed).
  sim::ClockTime decision_due_ = -1;

  // Last control message we broadcast (for wrong-suspicion resends and,
  // when it is a decision, for decision pulls).
  std::vector<std::byte> last_control_sent_;
  /// send_ts of the last decision we sent (-1: none this incarnation).
  sim::ClockTime last_decision_sent_ts_ = -1;

  /// Durable incarnation (stable store present). The durable view floor
  /// (refusing stale re-baseline donors) lives in round_.
  std::uint64_t incarnation_ = 0;

  bool ever_started_ = false;
  NodeStats stats_;
  /// NodeStats pull-source registration (0 = none) in the endpoint's
  /// metrics registry; released in the destructor.
  obs::Registry::SourceId stats_source_ = 0;

  // Timers.
  net::TimerId slot_timer_ = net::kNoTimer;
  net::TimerId fd_timer_ = net::kNoTimer;
  net::TimerId decision_timer_ = net::kNoTimer;
  net::TimerId delivery_timer_ = net::kNoTimer;
  net::TimerId housekeeping_timer_ = net::kNoTimer;
};

}  // namespace tw::gms
