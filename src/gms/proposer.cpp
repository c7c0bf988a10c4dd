#include "gms/proposer.hpp"

#include <algorithm>

#include "gms/timewheel_node.hpp"
#include "store/stable_store.hpp"
#include "util/logging.hpp"

namespace tw::gms {

namespace {

/// Minimum spacing between one member's partial proposal batches. A member
/// that sent none for this long flushes at the end of the current turn;
/// under load it holds a partial batch until this long after its last
/// proposal datagram, so batches fill. Full batches leave at once.
constexpr sim::Duration kBatchFlushDelay = sim::msec(1);
/// Overload watermarks in percent of max_pending. Crossing hi enters
/// `backpressured`; reaching max_pending enters `shedding` (try_propose
/// refuses); draining below hi leaves shedding; draining to lo returns to
/// `normal`. The hi/lo gap is the hysteresis band that stops the state
/// from flapping at a boundary.
constexpr std::size_t kOverloadHiPct = 75;
constexpr std::size_t kOverloadLoPct = 50;

}  // namespace

void Proposer::reset(bool recovered) {
  node_.cancel_timer(retransmit_timer_);
  node_.cancel_timer(batch_timer_);
  if (recovered) pending_.clear();
  batch_queue_.clear();
  overload_ = OverloadState::normal;
  own_inflight_ = 0;
  repairs_.clear();
  retransmit_hint_ = kNoProcess;
  // Proposal ids must never repeat across incarnations. With a store, the
  // durable reservation watermark is the start — every id strictly below
  // it may have been used by an earlier incarnation, no matter what the
  // clock says. Without one the best available approximation restarts the
  // sequence from the hardware clock's microsecond reading (the clock
  // keeps running through a process crash, and no incarnation proposes at
  // a sustained rate above one per microsecond) — but a clock step fault
  // can defeat it.
  next_seq_ = node_.store_ ? node_.store_->kernel().reserved_seq
                           : static_cast<ProposalSeq>(std::max<sim::ClockTime>(
                                 0, node_.ep_.hw_now()));
  seq_floor_ = next_seq_;
}

ProposeResult Proposer::propose(std::vector<std::byte> payload,
                                bcast::Order order,
                                bcast::Atomicity atomicity) {
  NodeStats& stats = node_.stats_;
  if (node_.cfg_.max_pending > 0) {
    update_overload();
    if (overload_ == OverloadState::shedding) {
      // Refusal consumes no sequence number and touches no durable state:
      // the proposal never existed as far as FIFO gap detection goes.
      ++stats.proposals_refused;
      // Retry hint: about the time a full pipeline takes to drain (one
      // cycle), jittered per process/attempt so a refused team doesn't
      // come back in lockstep.
      const sim::Duration hint =
          node_.slots_.cycle_len() +
          node_.retry_jitter(static_cast<int>(stats.proposals_refused));
      return ProposeResult{false, 0, static_cast<std::uint64_t>(hint)};
    }
  }
  // Durable continuity: make sure the reservation watermark covers this id
  // BEFORE the proposal exists anywhere (chunked, so only every 64th
  // proposal pays a log append).
  if (node_.store_) node_.store_->reserve_proposal_seq(next_seq_);
  bcast::Proposal p;
  p.id = bcast::ProposalId{node_.self(), next_seq_++};
  p.order = order;
  p.atomicity = atomicity;
  p.fifo_floor = seq_floor_;
  p.payload = std::move(payload);

  const auto now = node_.sync_now();
  if (now && node_.in_group()) {
    send_own(p, *now);
    schedule_batch_flush();
    node_.run_delivery(*now);
    if (node_.i_am_decider_) node_.schedule_decision(/*prompt=*/true);
  } else {
    pending_.push_back(std::move(p));
  }
  ++own_inflight_;
  stats.occupancy_peak = std::max<std::uint64_t>(stats.occupancy_peak,
                                                 own_inflight_);
  update_overload();
  return ProposeResult{true, static_cast<ProposalSeq>(next_seq_ - 1), 0};
}

void Proposer::send_own(bcast::Proposal& p, sim::ClockTime now) {
  p.hdo = node_.delivery_.highest_known_ordinal();
  p.send_ts = now;
  node_.delivery_.note_proposal(p, now);
  ++node_.stats_.proposals_sent;
  node_.ep_.trace(sim::TraceKind::proposal_sent, p.id.seq);
  batch_queue_.push_back(p.id);
}

void Proposer::flush_pending(sim::ClockTime now) {
  for (; !pending_.empty(); pending_.pop_front())
    send_own(pending_.front(), now);
  flush_batch();
}

void Proposer::schedule_batch_flush() {
  if (static_cast<int>(batch_queue_.size()) >= node_.cfg_.max_batch) {
    flush_batch();
    return;
  }
  if (batch_timer_ != net::kNoTimer) return;
  // Armed for now at the earliest, not flushed here: proposals made in the
  // same callback still share the datagram.
  const sim::ClockTime due =
      std::max(node_.ep_.hw_now(), last_batch_sent_ + kBatchFlushDelay);
  batch_timer_ = node_.ep_.set_timer_at_hw(due, [this] {
    batch_timer_ = net::kNoTimer;
    flush_batch();
  });
}

void Proposer::flush_batch() {
  node_.cancel_timer(batch_timer_);
  if (batch_queue_.empty()) return;
  std::vector<const bcast::Proposal*> batch;
  batch.reserve(batch_queue_.size());
  const auto now = node_.sync_now();
  for (const auto& id : batch_queue_) {
    // The send timestamp is the moment the proposal leaves, not the moment
    // it was queued: a member missing it asks for it δ after this stamp.
    if (now) node_.delivery_.restamp_unordered(id, *now);
    // A queued id can be gone if a view change purged the engine between
    // queueing and flushing; the proposal is then moot.
    if (const bcast::Proposal* p = node_.delivery_.get(id)) batch.push_back(p);
  }
  batch_queue_.clear();
  if (!batch.empty()) last_batch_sent_ = node_.ep_.hw_now();
  ship(kNoProcess, batch);
}

void Proposer::ship(ProcessId to,
                    const std::vector<const bcast::Proposal*>& ps) {
  const auto chunk =
      static_cast<std::size_t>(std::max(node_.cfg_.max_batch, 1));
  for (std::size_t i = 0; i < ps.size(); i += chunk) {
    const std::span<const bcast::Proposal* const> part(
        ps.data() + i, std::min(chunk, ps.size() - i));
    if (part.size() > 1) ++node_.stats_.proposal_batches_sent;
    auto bytes = bcast::encode_proposal_batch(part);
    if (to == kNoProcess)
      node_.ep_.broadcast(std::move(bytes));
    else
      node_.ep_.send(to, std::move(bytes));
  }
}

void Proposer::resync_occupancy() {
  if (node_.cfg_.max_pending <= 0) return;
  own_inflight_ = pending_.size() + node_.delivery_.own_outstanding();
  update_overload();
}

void Proposer::rebroadcast_stale(sim::ClockTime now) {
  // Re-stamp before re-broadcasting: deciders only order proposals whose
  // timestamp is fresh, so a live proposer must keep renewing its
  // unordered ones. (A proposal whose ordering this proposer has already
  // seen is bound, never re-stamped, and thus ages out everywhere else —
  // which is what makes re-ordering after a purge impossible.)
  std::vector<const bcast::Proposal*> stale;
  for (const bcast::Proposal* p : node_.delivery_.stale_unordered_from(
           node_.self(), now, node_.cfg_.big_d)) {
    node_.delivery_.restamp_unordered(p->id, now);
    TW_DEBUG("p" << node_.self() << " rebroadcasts stale " << p->id.proposer
                 << "." << p->id.seq);
    stale.push_back(p);
  }
  ship(kNoProcess, stale);
}

void Proposer::answer(ProcessId from, const bcast::RetransmitRequest& rq) {
  std::vector<const bcast::Proposal*> have;
  have.reserve(rq.wanted.size());
  for (const auto& pid : rq.wanted)
    if (const bcast::Proposal* p = node_.delivery_.get(pid)) have.push_back(p);
  ship(from, have);
}

void Proposer::request_missing(ProcessId hint) {
  if (hint != kNoProcess) retransmit_hint_ = hint;
  const auto now = node_.sync_now();
  if (!now) return;
  const NodeConfig& cfg = node_.cfg_;
  const auto missing = node_.delivery_.missing();
  // Forget the repairs of payloads that arrived or left the window.
  std::erase_if(repairs_, [&missing](const auto& r) {
    return std::none_of(missing.begin(), missing.end(),
                        [&r](const auto* e) { return e->pid == r.first; });
  });
  bcast::RetransmitRequest rq;
  bool backoff = false;
  sim::ClockTime next = sim::kNever;
  for (const bcast::OalEntry* e : missing) {
    // A payload not asked for yet is due once a timely copy would have
    // arrived: δ after its proposer sent it (the send_ts its oal entry
    // carries, stamped when its batch left), so no copy still in flight is
    // asked for. Only payloads asked for keep a repair entry.
    const auto it = repairs_.find(e->pid);
    sim::ClockTime due =
        it != repairs_.end() ? it->second.due : e->ts + cfg.delta;
    if (due <= *now) {
      rq.wanted.push_back(e->pid);
      // Re-asks of one payload back off exponentially (2δ, 4δ, 8δ,
      // capped) with per-process jitter: under overload the repair traffic
      // itself must not become a storm that sustains the loss it is trying
      // to repair. Each payload keeps its own ladder, so a new loss never
      // waits behind an old one's backoff.
      Repair& r = repairs_[e->pid];
      const int shift = std::min(r.asks, 2);
      ++r.asks;
      backoff = backoff || shift > 0;
      due = r.due = *now + ((2 * cfg.delta) << shift) +
                    node_.retry_jitter(r.asks) % (cfg.delta + 1);
    }
    next = std::min(next, due);
  }
  if (!rq.wanted.empty()) {
    ++node_.stats_.retransmit_requests_sent;
    if (backoff) ++node_.stats_.repair_backoffs;
    std::sort(rq.wanted.begin(), rq.wanted.end());
    ProcessId target = retransmit_hint_;
    if (target == kNoProcess || target == node_.self() ||
        !node_.group_.contains(target))
      target = node_.group_.successor_of(node_.self());
    if (target != kNoProcess && target != node_.self())
      node_.ep_.send(target, rq.encode());
    // Re-asks go to the successor unless a decision names a new sender.
    retransmit_hint_ = kNoProcess;
  }

  // One timer, armed for the earliest due payload.
  if (next == sim::kNever) {
    node_.cancel_timer(retransmit_timer_);
    return;
  }
  if (retransmit_timer_ != net::kNoTimer && repair_due_ == next) return;
  repair_due_ = next;
  node_.arm_sync_timer(retransmit_timer_, next,
                       [this] { request_missing(kNoProcess); });
}

void Proposer::update_overload() {
  const int max_pending = node_.cfg_.max_pending;
  if (max_pending <= 0) return;
  const auto cap = static_cast<std::size_t>(max_pending);
  const std::size_t hi = std::max<std::size_t>(1, cap * kOverloadHiPct / 100);
  const std::size_t lo = cap * kOverloadLoPct / 100;
  const std::size_t occ = own_inflight_;
  // Stepwise ladder with a hysteresis band: any rung reaching cap sheds,
  // any rung draining to lo returns to normal, and between them normal
  // escalates at hi while shedding steps down only below hi — so
  // occupancy oscillating around one boundary can't flap the state.
  OverloadState next;
  std::size_t mark;
  if (occ >= cap && overload_ != OverloadState::shedding) {
    next = OverloadState::shedding;
    mark = cap;
  } else if (occ <= lo && overload_ != OverloadState::normal) {
    next = OverloadState::normal;
    mark = lo;
  } else if (overload_ == OverloadState::normal
                 ? occ >= hi
                 : overload_ == OverloadState::shedding && occ < hi) {
    next = OverloadState::backpressured;
    mark = hi;
  } else {
    return;
  }
  const bool escalating =
      static_cast<int>(next) > static_cast<int>(overload_);
  overload_ = next;
  if (escalating)
    ++node_.stats_.overload_enters;
  else
    ++node_.stats_.overload_exits;
  if (auto* rec = node_.ep_.obs())
    rec->emit(escalating ? obs::EvKind::overload_enter
                         : obs::EvKind::overload_exit,
              static_cast<std::uint8_t>(next), occ, mark);
}

}  // namespace tw::gms
