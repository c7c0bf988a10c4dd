// TimewheelNode — one team member's complete timewheel group communication
// stack: fail-aware clock synchronization, the timewheel atomic broadcast
// engine, and the timewheel group membership protocol (failure detector +
// group creator, paper §4). This is the library's public facade; bind one
// node per team member to a net::Endpoint (simulated or UDP) and drive it
// through try_propose()/callbacks.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "bcast/delivery.hpp"
#include "bcast/messages.hpp"
#include "clocksync/clock_sync.hpp"
#include "gms/config.hpp"
#include "gms/failure_detector.hpp"
#include "gms/messages.hpp"
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
};

/// Degraded-mode ladder driven by admission-queue occupancy watermarks
/// (75% and 50% of NodeConfig::max_pending). Inactive (always `normal`)
/// when max_pending == 0.
enum class OverloadState : std::uint8_t {
  normal = 0,
  backpressured = 1,  ///< above hi watermark: callers should slow down
  shedding = 2,       ///< at capacity: try_propose() refuses
};

/// Outcome of try_propose(). On refusal `seq` is meaningless and
/// `retry_after_us` is a deterministic backoff hint (roughly a group
/// cycle, jittered per process so a refused team doesn't retry in
/// lockstep).
struct ProposeResult {
  bool accepted = false;
  ProposalSeq seq = 0;
  std::uint64_t retry_after_us = 0;
};

class TimewheelNode final : public net::Handler {
 public:
  /// A decider holding fresh proposals sends its decision at most this long
  /// after the first one, instead of waiting out the idle decision delay —
  /// a deadline, not a debounce: later proposals never postpone it.
  /// Proposals already held when the role arrives count as fresh from the
  /// moment it is assumed.
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
      bcast::Atomicity atomicity = bcast::Atomicity::weak);

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
  /// The communication-closed round choke point (all inbound control
  /// traffic is classified by it; see gms/round.hpp).
  [[nodiscard]] const RoundGate& round_gate() const { return round_; }
  [[nodiscard]] const NodeConfig& config() const { return cfg_; }
  [[nodiscard]] const NodeStats& stats() const { return stats_; }
  /// True from a crash recovery until a state transfer (or an election we
  /// won) re-baselined application state and delivery marks. A converged
  /// run must end with this false on every member — the torture oracle's
  /// rehabilitation-liveness invariant.
  [[nodiscard]] bool recovered_dirty() const { return recovered_dirty_; }
  /// True while this process carries application deliveries that a later
  /// authoritative window superseded (adopt_oal reported them divergent at
  /// a moment no re-baseline could run, e.g. while excluded). Forces the
  /// state-transfer re-baseline at re-integration; same oracle contract as
  /// recovered_dirty(): a converged run ends with this false everywhere.
  [[nodiscard]] bool lineage_forked() const { return lineage_forked_; }
  [[nodiscard]] bool awaiting_state() const { return awaiting_state_; }
  [[nodiscard]] std::size_t buffered_delivery_count() const {
    return buffered_deliveries_.size();
  }
  /// Durable incarnation number (0 when running without a store).
  [[nodiscard]] std::uint64_t incarnation() const { return incarnation_; }
  /// Current rung of the degraded-mode ladder (always `normal` when
  /// max_pending == 0).
  [[nodiscard]] OverloadState overload_state() const { return overload_; }
  /// Own proposals in flight: queued-until-member plus
  /// admitted-but-undelivered (the quantity max_pending bounds).
  [[nodiscard]] std::size_t occupancy() const { return own_inflight_; }

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
  /// Enter the join state with a fresh join dance.
  void enter_join();
  /// Give up the decider role and the surveillance: no decision is due
  /// and no control message is expected.
  void stand_down();
  void full_reset();
  void on_clock_sync_change(bool synchronized);

  // --- message handlers ----------------------------------------------------
  void handle_decision(ProcessId from, bcast::Decision d);
  /// A proposal or proposal_batch datagram (a proposal is a batch of one).
  void handle_proposals(ProcessId from, std::span<const bcast::Proposal> ps);
  void handle_no_decision(ProcessId from, NoDecision nd);
  void handle_join(ProcessId from, Join j);
  void handle_reconfiguration(ProcessId from, Reconfiguration r);
  void handle_state_transfer(ProcessId from, StateTransfer st);
  void handle_state_request(ProcessId from);
  void handle_rejoin_request(ProcessId from, RejoinRequest rq);
  /// Zombie rehabilitation: ask a (rotating) member for a state transfer
  /// while we are recovered-dirty but still listed in the current view.
  void solicit_rejoin(sim::ClockTime now);
  /// True while our application state is fit to re-baseline another
  /// member: we are in the group and need no re-baseline ourselves.
  [[nodiscard]] bool can_donate() const;
  void send_state_transfer(ProcessId to, sim::ClockTime send_ts);
  void handle_retransmit_request(ProcessId from, bcast::RetransmitRequest rq);

  // --- FD surveillance -------------------------------------------------
  /// Point the FD at `sender` (skipping the current suspect), due 2D after
  /// base_ts, and arm the timer.
  void expect_next(ProcessId sender, sim::ClockTime base_ts);
  void on_fd_timeout();
  /// Successor/predecessor in the current group's ring, skipping the
  /// currently suspected process.
  [[nodiscard]] ProcessId succ_active(ProcessId p) const;
  [[nodiscard]] ProcessId pred_active(ProcessId p) const;

  // --- slot machinery ---------------------------------------------------
  void arm_slot_timer();
  void on_own_slot();
  void on_housekeeping();

  // --- join state --------------------------------------------------------
  void join_slot_duties(sim::ClockTime now, std::int64_t slot);
  [[nodiscard]] util::ProcessSet current_join_list(std::int64_t slot) const;
  void send_join(sim::ClockTime now);

  // --- n-failure state ------------------------------------------------
  void enter_n_failure(sim::ClockTime now);
  void reconfiguration_slot_duties(sim::ClockTime now, std::int64_t slot);
  void send_reconfiguration(sim::ClockTime now, bool abstain);
  [[nodiscard]] util::ProcessSet current_recon_list(std::int64_t slot) const;

  // --- elections / group creation ------------------------------------
  /// Broadcast a control message and keep it for wrong-suspicion resends.
  void broadcast_control(std::vector<std::byte> bytes);
  void send_no_decision(sim::ClockTime now);
  /// Our no-decision ring predecessor has spoken (Figure 2): close the
  /// election if we precede the suspect, else pass a no-decision on and
  /// watch our successor.
  void pass_no_decision(sim::ClockTime now);
  void close_single_failure_election(sim::ClockTime now);
  void become_decider_wrong_suspicion(sim::ClockTime now);
  /// Allocate the id for a group created now: strictly greater than gid_,
  /// unique across concurrent creators (creator id in the low digits).
  [[nodiscard]] GroupId next_gid(sim::ClockTime now) const;
  /// Create a new group as decider: repair the oal, install, send the
  /// first decision (and state transfers to joiners).
  void create_group(util::ProcessSet members, util::ProcessSet departed,
                    std::vector<bcast::ProposalId> extra_dpds,
                    util::ProcessSet joiners, sim::ClockTime now);

  // --- decider duties ---------------------------------------------------
  void assume_decider_role(sim::ClockTime now);
  /// Arm the decision timer to fire `delay` from now — a deadline, not a
  /// debounce: an armed decision is only ever moved earlier.
  void schedule_decision(sim::Duration delay);
  void send_decision(sim::ClockTime now);
  /// The one decision emission path (rotation, joiner integration, group
  /// creation): broadcast `oal` as our decision plus a handoff copy to the
  /// successor, adopt it ourselves, pass the role on and send state
  /// transfers to `joiners`.
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
  /// Ask `to` for a state transfer (`attempt` is traced).
  void send_state_request(ProcessId to, int attempt);
  /// Arm the state-transfer wait for solicitation `attempt`.
  void arm_state_wait(sim::ClockTime now, int attempt);
  void retry_state_request();
  /// React to a cross-epoch rebind reported by adopt_oal: our delivered
  /// history is a forked branch the installed epoch superseded. Buffer
  /// further deliveries and re-solicit a fresh baseline (state transfer)
  /// instead of carrying the divergent lineage into the new epoch.
  void begin_rebaseline(const bcast::DeliveryEngine::AdoptOutcome& outcome,
                        sim::ClockTime now,
                        ProcessId preferred_donor = kNoProcess);
  /// A divergent adoption at a moment no solicitation can run (excluded,
  /// or no donor): mark the delivered history forked so re-integration
  /// re-baselines instead of trusting our replica state.
  void note_forked_lineage(const bcast::DeliveryEngine::AdoptOutcome& outcome);
  /// Exponential backoff (capped) for solicitation retries.
  [[nodiscard]] sim::Duration retry_backoff(int attempt) const;
  /// Deterministic per-process jitter so healed teams don't retry in
  /// lockstep (derived from self/incarnation/attempt; no RNG, replayable).
  [[nodiscard]] sim::Duration retry_jitter(int attempt) const;
  void flush_buffered_deliveries();
  void run_delivery(sim::ClockTime now);
  void flush_pending_proposals(sim::ClockTime now);
  void request_missing(ProcessId hint);

  // --- overload protection (cfg_.max_pending > 0) -----------------------
  /// Re-evaluate the degraded-mode ladder against the current occupancy
  /// and emit overload_enter/overload_exit traces on transitions.
  void update_overload();
  /// Resend last_control_sent_ for a wrong-suspicion episode, rate-limited
  /// with exponential backoff + jitter so repeated/duplicated no-decision
  /// messages can't turn the resend into a repair storm.
  void resend_last_control(sim::ClockTime now);

  // --- proposer-side batching --------------------------------------------
  /// Stamp an own proposal for sending at `now`, note it in the delivery
  /// engine and queue it for the next batch.
  void send_own(bcast::Proposal& p, sim::ClockTime now);
  /// Flush the batch queue once it is full (at once when max_batch <= 1),
  /// else arm the flush timer.
  void schedule_batch_flush();
  void flush_proposal_batch();
  /// Ship proposals in max_batch-sized datagrams; `to` == kNoProcess
  /// broadcasts, anything else unicasts (retransmit answers).
  void ship_proposals(ProcessId to,
                      const std::vector<const bcast::Proposal*>& ps);

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

  // Own proposals.
  ProposalSeq next_seq_ = 0;
  /// This incarnation's sequence start — stamped into every proposal as
  /// its fifo_floor so deciders never wait on the pre-restart gap.
  ProposalSeq seq_floor_ = 0;
  std::deque<bcast::Proposal> pending_proposals_;  ///< queued until member
  /// Own proposals noted in the delivery engine but not yet on the wire,
  /// awaiting a full batch or the flush timer.
  std::vector<bcast::ProposalId> batch_queue_;

  // Last control message we broadcast (for wrong-suspicion resends).
  std::vector<std::byte> last_control_sent_;
  /// Resend budget for the current wrong-suspicion episode: count and
  /// timestamp of the last resend (reset when a new episode starts).
  int suspect_resends_ = 0;
  sim::ClockTime last_suspect_resend_ = -1;

  // Overload protection (inactive when cfg_.max_pending == 0).
  OverloadState overload_ = OverloadState::normal;
  /// Own proposals in flight; incremented at admission, decremented when
  /// an own proposal comes back delivered, resynced from ground truth
  /// (pending queue + delivery engine) every housekeeping tick so purges
  /// and undeliverable marks can't make it drift.
  std::size_t own_inflight_ = 0;
  /// Retransmit-request retry ladder (reset when the missing set shrinks).
  int retransmit_attempts_ = 0;
  std::size_t last_missing_count_ = 0;

  // Join machinery.
  struct JoinInfo {
    util::ProcessSet list;
    sim::ClockTime ts = -1;
    sim::ClockTime last_decision_ts = -1;
    GroupId gid = 0;  ///< sender's last installed group this incarnation
  };
  std::vector<JoinInfo> join_infos_;

  // Reconfiguration machinery.
  struct ReconInfo {
    Reconfiguration msg;
    bool valid = false;
  };
  std::vector<ReconInfo> recon_infos_;
  sim::ClockTime my_recon_ts_ = -1;      ///< ts of last non-abstaining recon
  util::ProcessSet my_recon_list_;       ///< list sent with it
  sim::ClockTime abstain_until_ = -1;    ///< one-election-per-cycle rule
  bool sent_nd_this_episode_ = false;

  // Views/dpds collected from no-decision messages (for oal repair).
  struct ElectionInfo {
    bcast::Oal view;
    std::vector<bcast::ProposalId> dpd;
    sim::ClockTime ts = -1;
    ProcessId suspect = kNoProcess;
  };
  std::vector<ElectionInfo> nd_infos_;

  // Delayed switch to join (n-failure exclusion, paper §4.2).
  bool awaiting_exit_decisions_ = false;
  util::ProcessSet exit_decisions_needed_;

  // Joiner-side state transfer: buffer app deliveries between installing a
  // pre-existing group's view and receiving the state-transfer message.
  bool awaiting_state_ = false;
  /// True from a crash recovery until a state transfer rehabilitates this
  /// incarnation: durable application state may reflect deliveries the
  /// (volatile) broadcast engine no longer remembers, so application
  /// deliveries are buffered to avoid handing the same update over twice.
  bool recovered_dirty_ = false;
  /// Divergent delivered history detected while no re-baseline could run
  /// (not a member, or no donor). Sticky until a state transfer replaces
  /// the application state, until we create a group (our knowledge becomes
  /// the baseline), or until the solicitation retry budget is exhausted.
  bool lineage_forked_ = false;
  std::vector<std::pair<bcast::Proposal, Ordinal>> buffered_deliveries_;
  net::TimerId state_wait_timer_ = net::kNoTimer;
  int state_request_retries_ = 0;

  // Crash-recovery rehabilitation (stable store present). The durable view
  // floor (refusing stale re-baseline donors) lives in round_.
  std::uint64_t incarnation_ = 0;
  sim::ClockTime last_rejoin_ts_ = -1;
  ProcessId rejoin_target_ = kNoProcess;
  /// Consecutive unanswered rejoin solicitations (drives the backoff).
  int rejoin_attempts_ = 0;

  // Watchdog for the join fallback (see on_housekeeping).
  sim::ClockTime n_failure_since_ = -1;

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
  net::TimerId retransmit_timer_ = net::kNoTimer;
  net::TimerId batch_timer_ = net::kNoTimer;
  ProcessId retransmit_hint_ = kNoProcess;
};

}  // namespace tw::gms
