#include "bcast/delivery.hpp"

#include <algorithm>

#include "util/assert.hpp"
#include "util/logging.hpp"

namespace tw::bcast {

namespace {

/// The atomicity gate: `acks` hold the update among `group`'s members in
/// the number the atomicity asks for (a majority for strong, every member
/// for strict, nobody for weak).
bool quorum_met(Atomicity atomicity, util::ProcessSet acks,
                util::ProcessSet group) {
  switch (atomicity) {
    case Atomicity::strong:
      return acks.intersect(group).is_majority_of(group.size());
    case Atomicity::strict:
      return group.subset_of(acks);
    case Atomicity::weak:
      break;
  }
  return true;
}

}  // namespace

DeliveryEngine::DeliveryEngine(ProcessId self, sim::Duration deliver_delay,
                               DeliverFn deliver)
    : self_(self), deliver_delay_(deliver_delay), deliver_(std::move(deliver)) {}

void DeliveryEngine::reset() {
  slots_.clear();
  adopted_ = Oal{};
  fence_ = 0;
  cursor_ = 0;
  delivered_n_ = 0;
  suspect_marks_.clear();
  max_ordered_seq_.clear();
  forgotten_below_.clear();
  transferred_below_ = 0;
}

bool DeliveryEngine::note_proposal(const Proposal& p, sim::ClockTime sync_now) {
  // Tombstone check: this proposal's slot may have been erased after
  // delivery/purge; re-delivering a late duplicate would violate safety.
  const auto fit = forgotten_below_.find(p.id.proposer);
  if (fit != forgotten_below_.end() && p.id.seq <= fit->second &&
      !slots_.contains(p.id)) {
    return false;
  }
  Slot& s = slots_[p.id];
  if (s.have) {
    // A re-broadcast from the proposer refreshes the timestamp of a
    // still-unordered proposal (deciders only order fresh proposals).
    if (s.ordinal == kNoOrdinal && p.send_ts > s.proposal.send_ts)
      s.proposal.send_ts = p.send_ts;
    return false;
  }
  s.proposal = p;
  s.have = true;
  s.first_seen = sync_now;
  // A proposal from a currently-suspected sender is marked on receipt
  // (paper §4.3: "p marks all those proposals undeliverable that are
  // proposed by q and are received after p has sent the no-decision").
  const auto it = suspect_marks_.find(p.id.proposer);
  if (it != suspect_marks_.end() && it->second >= sync_now)
    s.local_mark_expiry = it->second;
  // Bind ordinal if the oal already listed it.
  if (const OalEntry* e = adopted_.find(p.id)) {
    s.ordinal = e->ordinal;
    s.bind_epoch = e->epoch != 0 ? e->epoch : fence_;
    s.oal_undeliverable = e->undeliverable;
    notify_order(s.ordinal, p.id.proposer);
  }
  return true;
}

void DeliveryEngine::notify_deliver(const Proposal& p, Ordinal ordinal) {
  if (recorder_ != nullptr)
    recorder_->emit(obs::EvKind::bcast_deliver, 0, ordinal, p.id.proposer);
  deliver_(p, ordinal);
}

void DeliveryEngine::notify_order(Ordinal ordinal, ProcessId proposer) {
  if (recorder_ != nullptr)
    recorder_->emit(obs::EvKind::bcast_order, 0, ordinal, proposer);
}

bool DeliveryEngine::have(ProposalId pid) const {
  const auto it = slots_.find(pid);
  return it != slots_.end() && it->second.have;
}

const Proposal* DeliveryEngine::get(ProposalId pid) const {
  const auto it = slots_.find(pid);
  return it != slots_.end() && it->second.have ? &it->second.proposal
                                               : nullptr;
}

void DeliveryEngine::raise_fence(GroupId epoch) {
  if (epoch <= fence_) return;
  if (recorder_ != nullptr)
    recorder_->emit(obs::EvKind::epoch_fence, 0, epoch, fence_);
  fence_ = epoch;
}

DeliveryEngine::AdoptOutcome DeliveryEngine::adopt_oal(const Oal& oal,
                                                       GroupId epoch) {
  AdoptOutcome out;
  out.window_epoch = std::max(epoch, oal.epoch());
  // Epoch fence: a window from a superseded epoch must never rebind or
  // un-mark anything — it describes a branch of history that lost. Clock
  // timestamps cannot make this call (steps/skew reorder them across a
  // heal); only the monotone group epoch can.
  if (out.window_epoch != 0 && out.window_epoch < fence_) {
    out.quarantined = true;
    if (recorder_ != nullptr)
      recorder_->emit(obs::EvKind::oal_quarantined, 0, out.window_epoch,
                      fence_);
    TW_WARN("p" << self_ << ": quarantined stale oal window (epoch "
                << out.window_epoch << " < fence " << fence_ << ")");
    return out;
  }
  raise_fence(out.window_epoch);

  // Keep monotone knowledge: merge our previous ack bits into the incoming
  // window before adopting it wholesale.
  Oal incoming = oal;
  incoming.merge_acks_from(adopted_);
  adopted_ = std::move(incoming);

  for (const auto& e : adopted_.entries()) {
    if (e.kind != OalEntry::Kind::update) continue;
    auto [mit, minserted] = max_ordered_seq_.try_emplace(e.pid.proposer,
                                                         e.pid.seq);
    if (!minserted) mit->second = std::max(mit->second, e.pid.seq);
    const GroupId entry_epoch = e.epoch != 0 ? e.epoch : out.window_epoch;
    Slot& s = slots_[e.pid];
    if (s.ordinal != kNoOrdinal && s.ordinal != e.ordinal) {
      ++out.rebinds;
      if (entry_epoch != s.bind_epoch) {
        // Cross-epoch rebind: the installed epoch placed this proposal at
        // a different ordinal than the epoch we bound it under — our local
        // history is a forked branch. The winning binding is adopted (the
        // fence already admitted this window), but the caller must treat
        // the divergence as fatal for local delivered state and
        // re-baseline via state transfer instead of carrying both
        // lineages forward.
        ++out.divergent;
        if (recorder_ != nullptr)
          recorder_->emit(obs::EvKind::oal_quarantined, 1, e.ordinal,
                          (s.bind_epoch << 32) |
                              (entry_epoch & 0xffffffffULL));
        TW_WARN("p" << self_ << ": cross-epoch ordinal rebind for proposal "
                    << e.pid.proposer << "." << e.pid.seq << ": "
                    << s.ordinal << " (epoch " << s.bind_epoch << ") -> "
                    << e.ordinal << " (epoch " << entry_epoch << ")");
      } else {
        // Divergent branch (we were excluded from a completed group and a
        // different history won). Trust the authoritative oal.
        TW_WARN("p" << self_ << ": ordinal rebind for proposal "
                    << e.pid.proposer << "." << e.pid.seq << ": "
                    << s.ordinal << " -> " << e.ordinal);
      }
    }
    s.ordinal = e.ordinal;
    s.bind_epoch = entry_epoch;
    notify_order(s.ordinal, e.pid.proposer);
    if (e.undeliverable) s.oal_undeliverable = true;
    if (!s.have) {
      // Header-only knowledge so the stream can reason about the entry.
      s.proposal.id = e.pid;
      s.proposal.order = e.order;
      s.proposal.atomicity = e.atomicity;
      s.proposal.hdo = e.hdo;
      s.proposal.send_ts = e.ts;
      // If the forgotten watermark covers this pid, a slot for it was
      // already delivered (or purged undeliverable) here and then erased.
      // The tombstone check in note_proposal only guards receipts while NO
      // slot exists; recreating a header slot would let a later payload
      // receipt slip past it and be delivered a second time. Mark the slot
      // delivered so the stream passes over it instead.
      const auto fit = forgotten_below_.find(e.pid.proposer);
      if (!s.delivered && fit != forgotten_below_.end() &&
          e.pid.seq <= fit->second)
        s.delivered = true;
    }
  }
  // Ordinal-occupancy conflicts: the adopted window may claim an ordinal
  // for a DIFFERENT proposal than the one we bound there — a decider that
  // missed its predecessor's last decision re-orders fresh proposals at
  // ordinals that were already decided (the same fork the epoch fence
  // catches across group creations, arising here within one epoch). The
  // authoritative window wins. A stale binding not yet delivered is
  // released back to the unordered pool; one we HAVE delivered is a forked
  // lineage — count it divergent so the membership layer re-baselines us
  // instead of carrying both branches forward. A binding below the
  // transferred watermark counts as delivered: the application state a
  // transfer installed reflects it, so a donor's forked branch is ours
  // too. (occupancy_guard_ is the
  // model-checking mutation switch: with the guard off, the stale binding
  // survives and the fork goes unrepaired — torture --explore must find it.)
  for (auto& [pid, s] : slots_) {
    if (!occupancy_guard_) break;
    if (s.ordinal == kNoOrdinal) continue;
    const OalEntry* oe = adopted_.find_ordinal(s.ordinal);
    if (oe == nullptr) continue;  // binding outside the adopted window
    if (oe->kind == OalEntry::Kind::update && oe->pid == pid) continue;
    if (s.delivered || s.ordinal < transferred_below_) {
      ++out.divergent;
      if (recorder_ != nullptr)
        recorder_->emit(obs::EvKind::oal_quarantined, 2, s.ordinal,
                        (s.bind_epoch << 32) |
                            (out.window_epoch & 0xffffffffULL));
      TW_WARN("p" << self_ << ": delivered " << pid.proposer << "."
                  << pid.seq << " at ordinal " << s.ordinal
                  << " but the window (epoch " << out.window_epoch
                  << ") binds that ordinal elsewhere — lineage forked");
    }
    s.ordinal = kNoOrdinal;
    s.bind_epoch = 0;
  }
  // The stream may never have to wait for ordinals that were purged as
  // stable before we saw them... but stability implies we acknowledged
  // them, so normally cursor_ >= base. Guard anyway:
  if (cursor_ < adopted_.base()) {
    // Deliver what we hold of the purged prefix, in ordinal order.
    std::vector<const Slot*> held;
    for (const auto& [pid, s] : slots_)
      if (s.have && !s.delivered && s.ordinal != kNoOrdinal &&
          s.ordinal < adopted_.base() && s.ordinal >= cursor_ &&
          !s.oal_undeliverable)
        held.push_back(&s);
    std::sort(held.begin(), held.end(), [](const Slot* a, const Slot* b) {
      return a->ordinal < b->ordinal;
    });
    for (const Slot* s : held) {
      const_cast<Slot*>(s)->delivered = true;
      ++delivered_n_;
      notify_deliver(s->proposal, s->ordinal);
    }
    cursor_ = adopted_.base();
  }
  // Release payload memory for entries that left the window delivered,
  // leaving a tombstone so late duplicates cannot be delivered again.
  for (auto it = slots_.begin(); it != slots_.end();) {
    const Slot& s = it->second;
    if (s.ordinal != kNoOrdinal && s.ordinal < adopted_.base() &&
        (s.delivered || s.oal_undeliverable)) {
      auto [fit, finserted] =
          forgotten_below_.try_emplace(it->first.proposer, it->first.seq);
      if (!finserted) fit->second = std::max(fit->second, it->first.seq);
      it = slots_.erase(it);
    } else {
      ++it;
    }
  }
  retire_covered_delivered();
  return out;
}

void DeliveryEngine::retire_covered_delivered() {
  for (auto it = slots_.begin(); it != slots_.end();) {
    const auto& [pid, s] = *it;
    if (s.delivered && s.ordinal == kNoOrdinal) {
      const auto mit = max_ordered_seq_.find(pid.proposer);
      if (mit != max_ordered_seq_.end() && pid.seq <= mit->second) {
        auto [fit, finserted] =
            forgotten_below_.try_emplace(pid.proposer, pid.seq);
        if (!finserted) fit->second = std::max(fit->second, pid.seq);
        it = slots_.erase(it);
        continue;
      }
    }
    ++it;
  }
}

Oal DeliveryEngine::view(sim::ClockTime sync_now) const {
  Oal v = adopted_;
  for (auto& e : v.entries()) {
    if (e.kind == OalEntry::Kind::membership) {
      // Holding the window that contains the descriptor means we have seen
      // the membership change; without this, a descriptor appended before a
      // later joiner arrived could never become fully acknowledged and
      // would block the stable-purge forever.
      e.acks.insert(self_);
      continue;
    }
    const auto it = slots_.find(e.pid);
    if (it == slots_.end() || !it->second.have) continue;
    if (locally_marked(it->second, sync_now)) continue;  // never ack marked
    e.acks.insert(self_);
  }
  return v;
}

std::vector<ProposalId> DeliveryEngine::dpd() const {
  std::vector<ProposalId> out;
  for (const auto& [pid, s] : slots_)
    if (s.delivered && s.ordinal == kNoOrdinal) out.push_back(pid);
  return out;
}

std::vector<const OalEntry*> DeliveryEngine::missing() const {
  std::vector<const OalEntry*> out;
  for (const auto& e : adopted_.entries()) {
    if (e.kind != OalEntry::Kind::update || e.undeliverable) continue;
    const auto it = slots_.find(e.pid);
    if (it == slots_.end() || !it->second.have) out.push_back(&e);
  }
  return out;
}

bool DeliveryEngine::owes_quorum_ack(util::ProcessSet group,
                                     sim::ClockTime sync_now) const {
  for (const auto& e : adopted_.entries()) {
    if (e.kind != OalEntry::Kind::update || e.undeliverable ||
        e.acks.contains(self_) || quorum_met(e.atomicity, e.acks, group))
      continue;
    const auto it = slots_.find(e.pid);
    if (it != slots_.end() && it->second.have &&
        !locally_marked(it->second, sync_now))
      return true;
  }
  return false;
}

void DeliveryEngine::mark_suspect_sender(ProcessId q, sim::ClockTime expiry) {
  auto [it, inserted] = suspect_marks_.try_emplace(q, expiry);
  if (!inserted) it->second = std::max(it->second, expiry);
  for (auto& [pid, s] : slots_) {
    if (pid.proposer != q || s.have) continue;
    s.local_mark_expiry = std::max(s.local_mark_expiry, expiry);
  }
}

void DeliveryEngine::purge_undeliverable() {
  for (auto it = slots_.begin(); it != slots_.end();) {
    if (it->second.oal_undeliverable &&
        adopted_.find(it->first) == nullptr) {
      auto [fit, finserted] =
          forgotten_below_.try_emplace(it->first.proposer, it->first.seq);
      if (!finserted) fit->second = std::max(fit->second, it->first.seq);
      it = slots_.erase(it);
    } else {
      ++it;
    }
  }
}

bool DeliveryEngine::restamp_unordered(ProposalId pid, sim::ClockTime now) {
  const auto it = slots_.find(pid);
  if (it == slots_.end() || !it->second.have ||
      it->second.ordinal != kNoOrdinal)
    return false;
  it->second.proposal.send_ts = std::max(it->second.proposal.send_ts, now);
  return true;
}

std::vector<const Proposal*> DeliveryEngine::unordered_proposals(
    util::ProcessSet proposers, sim::ClockTime sync_now,
    sim::Duration gap_grace, sim::Duration max_age) const {
  std::vector<const Proposal*> out;
  // std::map iteration is (proposer, seq)-sorted: FIFO per sender.
  ProcessId cur_proposer = kNoProcess;
  ProposalSeq expected = 0;
  bool has_history = false;
  bool proposer_blocked = false;
  for (const auto& [pid, s] : slots_) {
    if (pid.proposer != cur_proposer) {
      cur_proposer = pid.proposer;
      const auto it = max_ordered_seq_.find(cur_proposer);
      has_history = it != max_ordered_seq_.end();
      expected = has_history ? it->second + 1 : 0;
      proposer_blocked = false;
    }
    if (!s.have || s.ordinal != kNoOrdinal) continue;
    if (!proposers.contains(pid.proposer)) continue;
    if (s.oal_undeliverable || locally_marked(s, sync_now)) continue;
    if (sync_now - s.proposal.send_ts > max_age)
      continue;  // stale copy: a binding may have existed and been purged
    if (has_history && pid.seq < expected) {
      // History (oal windows and transfer marks) already covers this
      // sequence: either its binding exists in an oal window we have not
      // adopted yet (it will deliver at that ordinal once adopted — the
      // payload is kept for exactly that), or a decider deliberately
      // jumped the gap after the grace expired and the sequence is
      // forfeited. Both cases forbid ordering it NOW: a fresh binding
      // would place it after this proposer's already-ordered later
      // sequences and invert the proposer's FIFO order everywhere.
      continue;
    }
    if (proposer_blocked) continue;  // FIFO: held behind a gap
    if (!has_history || s.proposal.fifo_floor > expected) {
      // The proposer's own declaration: its current incarnation never
      // proposes below this floor (a restart jumped the sequence to the
      // durable reservation base). Sequences in [expected, floor) can
      // never arrive fresh, so waiting out the grace for them is futile —
      // with gap_grace == max_age it is worse than futile, because a
      // gapped proposal is held while fresh and skipped as stale the
      // moment the grace expires: without this jump a recovered proposer
      // would be wedged forever. A floor is known history even when it is
      // 0: a proposer with no ordering history whose seq 0 is still in
      // flight must not have its seq 1 ordered first.
      expected = std::max(expected, s.proposal.fifo_floor);
      has_history = true;
    }
    if (pid.seq > expected && sync_now - s.proposal.send_ts <= gap_grace) {
      // A lower sequence may still be in flight (or retransmitted);
      // ordering this one now would break FIFO if it shows up.
      proposer_blocked = true;
      continue;
    }
    out.push_back(&s.proposal);
    expected = pid.seq + 1;
    has_history = true;
  }
  return out;
}

std::vector<const Proposal*> DeliveryEngine::stale_unordered_from(
    ProcessId proposer, sim::ClockTime sync_now, sim::Duration age) const {
  std::vector<const Proposal*> out;
  const auto mit = max_ordered_seq_.find(proposer);
  for (const auto& [pid, s] : slots_) {
    if (pid.proposer != proposer) continue;
    if (!s.have || s.ordinal != kNoOrdinal) continue;
    if (s.oal_undeliverable) continue;
    // Adopted history covers this sequence, so no decider may bind it at a
    // fresh ordinal anymore (see unordered_proposals): the update is
    // forfeited and re-broadcasting it is wasted traffic.
    if (mit != max_ordered_seq_.end() && pid.seq <= mit->second) continue;
    if (sync_now - s.proposal.send_ts >= age) out.push_back(&s.proposal);
  }
  return out;
}

int DeliveryEngine::drop_unordered_from(util::ProcessSet departed) {
  int dropped = 0;
  for (auto it = slots_.begin(); it != slots_.end();) {
    const Slot& s = it->second;
    if (departed.contains(it->first.proposer) && s.ordinal == kNoOrdinal &&
        !s.delivered) {
      it = slots_.erase(it);
      ++dropped;
    } else {
      ++it;
    }
  }
  return dropped;
}

DeliveryEngine::TransferMarks DeliveryEngine::export_transfer_marks() const {
  TransferMarks m;
  m.delivered_below = cursor_;
  for (const auto& [pid, s] : slots_)
    if (s.delivered && (s.ordinal == kNoOrdinal || s.ordinal >= cursor_))
      m.delivered.push_back(pid);
  m.ordered_below.assign(max_ordered_seq_.begin(), max_ordered_seq_.end());
  m.forgotten_below.assign(forgotten_below_.begin(), forgotten_below_.end());
  return m;
}

void DeliveryEngine::import_transfer_marks(const TransferMarks& marks) {
  cursor_ = std::max(cursor_, marks.delivered_below);
  transferred_below_ = std::max(transferred_below_, marks.delivered_below);
  for (const auto& pid : marks.delivered) {
    Slot& s = slots_[pid];  // may create a payload-less tombstone slot
    s.delivered = true;
  }
  for (const auto& [proposer, seq] : marks.ordered_below) {
    auto [it, inserted] = max_ordered_seq_.try_emplace(proposer, seq);
    if (!inserted) it->second = std::max(it->second, seq);
  }
  for (const auto& [proposer, seq] : marks.forgotten_below) {
    auto [it, inserted] = forgotten_below_.try_emplace(proposer, seq);
    if (!inserted) it->second = std::max(it->second, seq);
  }
  // Proposals buffered before the join whose ordering epoch has already
  // passed (ordered & possibly purged elsewhere) must not be re-ordered or
  // re-delivered here: drop any undelivered slot at or below the marks.
  // That includes slots bound under a branch that lost — we may have been
  // excluded while a different history completed, and re-delivering such a
  // binding after the transfer would duplicate an update the transferred
  // state already reflects.
  for (auto it = slots_.begin(); it != slots_.end();) {
    auto& [pid, s] = *it;
    const auto oit = max_ordered_seq_.find(pid.proposer);
    const bool below_ordered =
        oit != max_ordered_seq_.end() && pid.seq <= oit->second;
    if (below_ordered && !s.delivered) {
      it = slots_.erase(it);
      continue;
    }
    if (!s.delivered && s.ordinal != kNoOrdinal) {
      // Binding from before the transfer: it may belong to a dead fork.
      // Forget it — the transferrer's oal is adopted right after this and
      // re-binds every ordering the winning history actually contains.
      s.ordinal = kNoOrdinal;
      s.bind_epoch = 0;
      s.oal_undeliverable = false;
    }
    ++it;
  }
  retire_covered_delivered();
}

int DeliveryEngine::deliver_immediate(sim::ClockTime sync_now) {
  int n = 0;
  for (auto& [pid, s] : slots_) {
    if (!s.have || s.delivered) continue;
    if (s.proposal.order != Order::unordered ||
        s.proposal.atomicity != Atomicity::weak)
      continue;
    if (s.oal_undeliverable || locally_marked(s, sync_now)) continue;
    if (s.ordinal != kNoOrdinal && s.ordinal < transferred_below_) {
      // Already reflected in the application state a transfer installed.
      s.delivered = true;
      continue;
    }
    s.delivered = true;
    ++delivered_n_;
    ++n;
    notify_deliver(s.proposal, s.ordinal);
  }
  return n;
}

int DeliveryEngine::deliver_stream(sim::ClockTime sync_now,
                                   util::ProcessSet group) {
  int n = 0;
  for (;;) {
    const OalEntry* e = adopted_.find_ordinal(cursor_);
    if (e == nullptr) break;  // end of known window
    if (e->kind == OalEntry::Kind::membership || e->undeliverable) {
      ++cursor_;
      continue;
    }
    auto it = slots_.find(e->pid);
    TW_ASSERT_MSG(it != slots_.end(), "oal entry without descriptor slot");
    Slot& s = it->second;
    if (s.delivered) {  // early weak+unordered path already delivered it
      ++cursor_;
      continue;
    }
    if (s.proposal.order == Order::unordered &&
        s.proposal.atomicity == Atomicity::weak) {
      // Early path will (or could not yet, if marked) deliver it; the
      // stream never blocks on weak+unordered entries.
      ++cursor_;
      continue;
    }
    if (!s.have) break;                         // wait for retransmission
    if (locally_marked(s, sync_now)) break;     // suspected sender
    // Atomicity gate, judged from accumulated ack bits (self included).
    util::ProcessSet acks = e->acks;
    acks.insert(self_);
    if (!quorum_met(s.proposal.atomicity, acks, group)) break;
    // Time-order release gate.
    if (s.proposal.order == Order::time &&
        sync_now < s.proposal.send_ts + deliver_delay_)
      break;
    s.delivered = true;
    ++delivered_n_;
    ++n;
    ++cursor_;
    notify_deliver(s.proposal, s.ordinal);
  }
  return n;
}

int DeliveryEngine::try_deliver(sim::ClockTime sync_now,
                                util::ProcessSet group) {
  // Expire stale suspect marks.
  for (auto it = suspect_marks_.begin(); it != suspect_marks_.end();) {
    if (it->second < sync_now)
      it = suspect_marks_.erase(it);
    else
      ++it;
  }
  int n = deliver_immediate(sync_now);
  n += deliver_stream(sync_now, group);
  return n;
}

sim::ClockTime DeliveryEngine::next_release(sim::ClockTime sync_now) const {
  // If the stream is blocked on a time-ordered release (or a local mark
  // expiry), report when to recheck.
  const OalEntry* e = adopted_.find_ordinal(cursor_);
  if (e == nullptr || e->kind != OalEntry::Kind::update) return sim::kNever;
  const auto it = slots_.find(e->pid);
  if (it == slots_.end()) return sim::kNever;
  const Slot& s = it->second;
  sim::ClockTime t = sim::kNever;
  if (s.have && s.proposal.order == Order::time) {
    const sim::ClockTime rel = s.proposal.send_ts + deliver_delay_;
    if (rel > sync_now) t = std::min(t, rel);
  }
  if (locally_marked(s, sync_now)) t = std::min(t, s.local_mark_expiry + 1);
  return t;
}

Ordinal DeliveryEngine::highest_known_ordinal() const {
  return adopted_.highest() == kNoOrdinal ? 0 : adopted_.highest();
}

std::size_t DeliveryEngine::buffered_proposals() const {
  std::size_t n = 0;
  for (const auto& [pid, s] : slots_)
    if (s.have) ++n;
  return n;
}

std::size_t DeliveryEngine::own_outstanding() const {
  std::size_t n = 0;
  // A binding below the transferred watermark counts as delivered: the
  // stream never reaches it, and the transferred state reflects it.
  for (const auto& [pid, s] : slots_)
    if (pid.proposer == self_ && s.have && !s.delivered &&
        s.ordinal >= transferred_below_ && !s.oal_undeliverable)
      ++n;
  return n;
}

}  // namespace tw::bcast
