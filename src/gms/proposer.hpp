// Proposer — every proposal payload this member sends or asks for.
//
// The sending side of the timewheel broadcast (paper §4.3): sequence
// numbers and their durable reservation, the queue of proposals made
// before this member joins a group, admission control with its
// degraded-mode ladder, paced proposal batches, the re-broadcast of own
// proposals no decision ordered, and per-payload loss repair — asking for
// the payloads an adopted oal lists and we lack, and answering such asks.
// The decider's ordering of what it holds stays with the node. Like
// RoundGate and Rebaseline it reads the node directly (it is a friend of
// TimewheelNode).
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <vector>

#include "bcast/messages.hpp"
#include "net/transport.hpp"

namespace tw::gms {

class TimewheelNode;

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

class Proposer {
 public:
  explicit Proposer(TimewheelNode& node) : node_(node) {}
  // The retransmit and batch timers' callbacks hold `this`.
  Proposer(const Proposer&) = delete;
  Proposer& operator=(const Proposer&) = delete;

  /// TimewheelNode::overload_state() and occupancy().
  [[nodiscard]] OverloadState overload_state() const { return overload_; }
  [[nodiscard]] std::size_t occupancy() const { return own_inflight_; }

  /// Start of an incarnation: restart the sequence above every id an
  /// earlier incarnation may have used. Proposals queued before the first
  /// start are kept; a `recovered` incarnation loses them with the rest of
  /// its volatile state.
  void reset(bool recovered);
  /// TimewheelNode::try_propose().
  ProposeResult propose(std::vector<std::byte> payload, bcast::Order order,
                        bcast::Atomicity atomicity);
  /// We became a group member: send the proposals queued until then.
  void flush_pending(sim::ClockTime now);
  /// Send the partial batch now (a decider's, ahead of its decision).
  void flush_batch();
  /// One of our proposals was delivered: credit the admission budget.
  void own_delivered() {
    if (own_inflight_ == 0) return;
    --own_inflight_;
    update_overload();
  }
  /// Recount the occupancy from the pending queue and the delivery engine
  /// (housekeeping): purges, undeliverable marks and view changes retire
  /// own proposals without a delivery.
  void resync_occupancy();
  /// Re-stamp and re-broadcast own proposals no decision ordered within D.
  void rebroadcast_stale(sim::ClockTime now);
  /// Ask for the payloads the adopted oal lists and we lack, each on its
  /// own clock: first once a timely copy would have arrived, then backing
  /// off. `hint` (the sender of the decision that listed them) is asked
  /// first; kNoProcess keeps the current target.
  void request_missing(ProcessId hint);
  /// Unicast the asked-for payloads we hold.
  void answer(ProcessId from, const bcast::RetransmitRequest& rq);

 private:
  /// Re-evaluate the degraded-mode ladder against the current occupancy
  /// and emit overload_enter/overload_exit traces on transitions.
  void update_overload();
  /// Stamp an own proposal for sending at `now`, note it in the delivery
  /// engine and queue it for the next batch.
  void send_own(bcast::Proposal& p, sim::ClockTime now);
  /// Flush the batch queue once it is full (at once when max_batch <= 1),
  /// else arm the flush timer: for now when no proposal datagram left in
  /// the last kBatchFlushDelay, else for that long after the last one.
  void schedule_batch_flush();
  /// Ship proposals in max_batch-sized datagrams; `to` == kNoProcess
  /// broadcasts, anything else unicasts (retransmit answers).
  void ship(ProcessId to, const std::vector<const bcast::Proposal*>& ps);

  TimewheelNode& node_;
  ProposalSeq next_seq_ = 0;
  /// This incarnation's sequence start — stamped into every proposal as
  /// its fifo_floor so deciders never wait on the pre-restart gap.
  ProposalSeq seq_floor_ = 0;
  std::deque<bcast::Proposal> pending_;  ///< queued until member
  /// Own proposals noted in the delivery engine but not yet on the wire,
  /// awaiting a full batch or the flush timer.
  std::vector<bcast::ProposalId> batch_queue_;
  /// Hardware-clock time the last own proposal datagram left (INT64_MIN:
  /// none yet); the flush timer paces partial batches from it. Kept
  /// across incarnations, like the hardware clock it reads.
  sim::ClockTime last_batch_sent_ = INT64_MIN;
  net::TimerId batch_timer_ = net::kNoTimer;

  // Overload protection (inactive when cfg_.max_pending == 0).
  OverloadState overload_ = OverloadState::normal;
  /// Own proposals in flight; incremented at admission, decremented when
  /// an own proposal comes back delivered, resynced from ground truth
  /// every housekeeping tick so purges and undeliverable marks can't make
  /// it drift.
  std::size_t own_inflight_ = 0;

  /// Loss repair, per payload the adopted oal lists, we lack and asked
  /// for: when to ask again (synchronized time) and how often we asked.
  struct Repair {
    sim::ClockTime due = 0;
    int asks = 0;
  };
  std::map<bcast::ProposalId, Repair> repairs_;
  /// Synchronized time retransmit_timer_ is armed for (meaningless while
  /// the timer is not armed).
  sim::ClockTime repair_due_ = -1;
  net::TimerId retransmit_timer_ = net::kNoTimer;
  ProcessId retransmit_hint_ = kNoProcess;
};

}  // namespace tw::gms
