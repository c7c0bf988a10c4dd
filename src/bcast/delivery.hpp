// The per-member delivery machinery of the timewheel broadcast protocol.
//
// "Each member maintains two buffers — a proposal buffer, to store the
//  received proposals, and a proposal descriptor buffer, to store proposal
//  descriptors and their ordinals. Both of these buffers are updated on
//  receipt of proposal or decision messages. Updates stored in these buffers
//  are delivered to the clients when three delivery conditions, atomicity,
//  order, and general, are satisfied." (paper §2)
//
// Concrete delivery conditions implemented here (see DESIGN.md §3):
//  - weak atomicity + unordered order: deliver at receipt (these are the
//    proposals that can appear in the dpd field with undefined ordinals);
//  - everything else is delivered along the ordinal stream, in ordinal
//    order, gated per entry by: payload present; atomicity (strong: a
//    majority of the current group holds it, strict: every member holds
//    it — judged from oal ack bits); and, for time order, the release time
//    send_ts + deliver_delay on the synchronized clock.
//  - a proposal marked undeliverable (authoritatively in the oal, or
//    locally while its proposer is suspected) is neither delivered nor
//    acknowledged; local marks expire after one cycle (paper §4.3).
#pragma once

#include <functional>
#include <map>
#include <vector>

#include "bcast/messages.hpp"
#include "bcast/oal.hpp"
#include "bcast/types.hpp"
#include "obs/recorder.hpp"

namespace tw::bcast {

class DeliveryEngine {
 public:
  /// deliver(proposal, ordinal): ordinal is kNoOrdinal when delivered early
  /// (weak + unordered, before any decision ordered it).
  using DeliverFn = std::function<void(const Proposal&, Ordinal)>;

  DeliveryEngine(ProcessId self, sim::Duration deliver_delay,
                 DeliverFn deliver);

  /// Forget everything (crash recovery).
  void reset();

  /// Attach a trace recorder: ordinal binds emit bcast_order, deliveries
  /// emit bcast_deliver. Pass nullptr to detach.
  void set_recorder(obs::Recorder* rec) { recorder_ = rec; }

  /// Mutation switch for model checking (torture --explore): disable the
  /// ordinal-occupancy conflict repair in adopt_oal, reintroducing the
  /// within-epoch lineage fork it guards against. Never turn this off
  /// outside a harness that is deliberately hunting for the fork.
  void set_occupancy_guard(bool on) { occupancy_guard_ = on; }

  // --- proposal receipt ------------------------------------------------
  /// Store a received (or own) proposal. Returns false for duplicates.
  bool note_proposal(const Proposal& p, sim::ClockTime sync_now);
  [[nodiscard]] bool have(ProposalId pid) const;
  [[nodiscard]] const Proposal* get(ProposalId pid) const;

  // --- oal adoption ------------------------------------------------------
  /// What adopt_oal did, so the membership layer can react: a quarantined
  /// window was refused wholesale; divergent (cross-epoch) rebinds mean
  /// our delivered history belongs to a branch the installed epoch has
  /// superseded and the node must re-solicit a fresh baseline.
  struct AdoptOutcome {
    bool quarantined = false;  ///< whole window refused (stale epoch)
    int rebinds = 0;           ///< ordinal rebinds applied
    int divergent = 0;         ///< of those, cross-epoch (forked history)
    GroupId window_epoch = 0;  ///< effective epoch of the incoming window
  };

  /// Adopt the oal of the freshest decision: bind ordinals, merge ack bits,
  /// absorb undeliverable marks, release payloads of purged entries.
  /// `epoch` is the carrying message's group id (the window fence); a
  /// window older than the installed fence is quarantined, not adopted —
  /// timestamps do not totally order histories across a partition heal,
  /// so "freshest decision wins" must be judged by epoch, never by clock.
  AdoptOutcome adopt_oal(const Oal& oal, GroupId epoch = 0);

  /// The epoch fence: the newest group epoch whose window this engine has
  /// adopted (or that the membership layer installed via raise_fence).
  [[nodiscard]] GroupId fence() const { return fence_; }
  /// Raise the fence explicitly (view install): windows from epochs below
  /// the fence are quarantined from here on. Never lowers.
  void raise_fence(GroupId epoch);

  [[nodiscard]] const Oal& adopted() const { return adopted_; }

  /// This member's current view v_p of the oal: the adopted oal with our
  /// own acknowledgement bits set for every unmarked proposal we hold
  /// (piggybacked on no-decision / reconfiguration messages, paper §4.3).
  [[nodiscard]] Oal view(sim::ClockTime sync_now) const;

  /// Delivered proposals that still have undefined ordinals (dpd field).
  [[nodiscard]] std::vector<ProposalId> dpd() const;

  /// Entries of the adopted oal whose payload we lack (and that are not
  /// undeliverable) — candidates for retransmission requests. The pointers
  /// are valid until the next adopt_oal.
  [[nodiscard]] std::vector<const OalEntry*> missing() const;

  /// True when the adopted oal holds a strong or strict entry still short
  /// of its quorum in `group` (a majority for strong, every member for
  /// strict) that this member holds, has not marked and has not yet
  /// acknowledged: a decision of ours would carry the missing ack.
  [[nodiscard]] bool owes_quorum_ack(util::ProcessSet group,
                                     sim::ClockTime sync_now) const;

  // --- undeliverable marks (paper §4.3) ---------------------------------
  /// Mark every proposal from `q` that we have NOT yet received as locally
  /// undeliverable, and arrange for proposals from q arriving before
  /// `expiry` to be marked on receipt. Call when sending a no-decision or
  /// reconfiguration message that asks for q's removal.
  void mark_suspect_sender(ProcessId q, sim::ClockTime expiry);

  /// Purge payloads and descriptors that the (authoritative) oal marks
  /// undeliverable and that have left the oal window.
  void purge_undeliverable();

  /// Held proposals with no ordinal yet, from proposers in `proposers`,
  /// not locally marked, FIFO order per proposer — what a decider orders
  /// into the oal. FIFO is protected against decider-side omissions: a
  /// proposal whose per-proposer sequence leaves a gap after the highest
  /// ordinal-assigned sequence is held back until the gap fills, unless it
  /// has been waiting longer than `gap_grace` (then the gap is presumed a
  /// deliberate jump, e.g. a proposer recovery).
  /// Proposals older than `max_age` are never returned: an ordering
  /// decision may have existed and been purged before this member joined,
  /// so only proposals a live proposer keeps fresh (see
  /// restamp_unordered) are safe to order. Pass kNever-like large values
  /// to disable.
  [[nodiscard]] std::vector<const Proposal*> unordered_proposals(
      util::ProcessSet proposers, sim::ClockTime sync_now,
      sim::Duration gap_grace, sim::Duration max_age) const;

  /// Proposer-side: refresh the send timestamp of own unordered proposal
  /// `pid` to `now` (called right before re-broadcasting it), so deciders
  /// keep treating it as fresh. Returns false if unknown/ordered.
  bool restamp_unordered(ProposalId pid, sim::ClockTime now);

  /// Own proposals still lacking an ordinal whose send timestamp is older
  /// than `age` — the proposer re-broadcasts these until some decider
  /// orders them (loss recovery for proposals not yet in any oal).
  [[nodiscard]] std::vector<const Proposal*> stale_unordered_from(
      ProcessId proposer, sim::ClockTime sync_now, sim::Duration age) const;

  // --- state transfer ------------------------------------------------------
  /// Everything a joiner must know so it neither re-delivers nor re-orders
  /// updates already reflected in the transferred application state.
  struct TransferMarks {
    /// Every ordinal below this is reflected in the transferred state.
    Ordinal delivered_below = 0;
    /// Plus these specific proposals (at/above the cursor, or unordered).
    std::vector<ProposalId> delivered;
    /// Highest ordinal-assigned sequence per proposer: anything at or
    /// below must never be ordered again.
    std::vector<std::pair<ProcessId, ProposalSeq>> ordered_below;
    /// Delivery tombstones (slots erased after delivery/purge).
    std::vector<std::pair<ProcessId, ProposalSeq>> forgotten_below;
  };
  [[nodiscard]] TransferMarks export_transfer_marks() const;
  void import_transfer_marks(const TransferMarks& marks);

  /// Drop unordered, undelivered proposals from departed members: they can
  /// never be ordered by the new group (paper §4.3's unknown-dependency /
  /// lost rationale applied to the proposal buffer).
  int drop_unordered_from(util::ProcessSet departed);

  // --- delivery -----------------------------------------------------------
  /// Deliver everything currently deliverable; returns the count.
  int try_deliver(sim::ClockTime sync_now, util::ProcessSet group);

  /// Earliest future release time of a pending time-ordered update
  /// (kNever if none) — for scheduling a recheck timer.
  [[nodiscard]] sim::ClockTime next_release(sim::ClockTime sync_now) const;

  // --- introspection ------------------------------------------------------
  [[nodiscard]] Ordinal highest_known_ordinal() const;
  [[nodiscard]] std::uint64_t delivered_count() const { return delivered_n_; }
  [[nodiscard]] Ordinal stream_cursor() const { return cursor_; }
  [[nodiscard]] std::size_t buffered_proposals() const;
  /// Own proposals admitted but not yet delivered (nor marked
  /// undeliverable, nor covered by a state transfer) — the member-side
  /// half of the admission occupancy.
  [[nodiscard]] std::size_t own_outstanding() const;

 private:
  struct Slot {
    Proposal proposal;  ///< valid iff have
    bool have = false;
    bool delivered = false;
    Ordinal ordinal = kNoOrdinal;
    GroupId bind_epoch = 0;  ///< epoch that bound `ordinal` (0 = unfenced)
    sim::ClockTime local_mark_expiry = -1;  ///< local undeliverable mark
    bool oal_undeliverable = false;         ///< authoritative mark
    sim::ClockTime first_seen = -1;         ///< when the payload arrived
  };

  [[nodiscard]] bool locally_marked(const Slot& s,
                                    sim::ClockTime sync_now) const {
    return s.local_mark_expiry >= sync_now;
  }
  /// Retire delivered-but-unbound slots whose proposer sequence the ordered
  /// watermark already covers: the history has ordered that pid (possibly
  /// at an ordinal we never saw before it was purged), so the slot must
  /// neither feed dpd reports (which would mint a second ordinal at the
  /// next repair) nor ever be delivered again.
  void retire_covered_delivered();
  /// Deliver early-path (weak+unordered) proposals.
  int deliver_immediate(sim::ClockTime sync_now);
  /// Advance the ordinal stream.
  int deliver_stream(sim::ClockTime sync_now, util::ProcessSet group);
  /// Trace + hand a proposal to the client callback.
  void notify_deliver(const Proposal& p, Ordinal ordinal);
  void notify_order(Ordinal ordinal, ProcessId proposer);

  ProcessId self_;
  sim::Duration deliver_delay_;
  DeliverFn deliver_;
  obs::Recorder* recorder_ = nullptr;

  std::map<ProposalId, Slot> slots_;
  Oal adopted_;
  /// See set_occupancy_guard.
  bool occupancy_guard_ = true;
  /// Epoch fence: adopt_oal refuses windows from epochs below this.
  GroupId fence_ = 0;
  Ordinal cursor_ = 0;  ///< next ordinal the stream will consider
  std::uint64_t delivered_n_ = 0;
  /// Active suspect-sender marks: proposer -> expiry.
  std::map<ProcessId, sim::ClockTime> suspect_marks_;
  /// Highest ordinal-assigned sequence per proposer (survives purges).
  std::map<ProcessId, ProposalSeq> max_ordered_seq_;
  /// Tombstones: highest sequence per proposer whose slot was erased after
  /// delivery (or as undeliverable). A re-received proposal at or below
  /// this mark must be ignored, not delivered a second time.
  std::map<ProcessId, ProposalSeq> forgotten_below_;
  /// Everything below this ordinal is reflected in a transferred app state
  /// (import_transfer_marks); the early (weak+unordered) path must not
  /// deliver such entries even though their delivered flag is unset.
  Ordinal transferred_below_ = 0;
};

}  // namespace tw::bcast
