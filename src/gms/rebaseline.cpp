#include "gms/rebaseline.hpp"

#include <algorithm>

#include "gms/timewheel_node.hpp"
#include "store/stable_store.hpp"
#include "util/logging.hpp"

namespace tw::gms {

void Rebaseline::reset(bool recovered) {
  node_.cancel_timer(wait_timer_);
  awaiting_ = forked_ = false;
  dirty_ = recovered;
  buffered_.clear();
  request_attempts_ = rejoin_attempts_ = 0;
  last_rejoin_ts_ = -1;
  rejoin_target_ = kNoProcess;
  transferred_gid_ = 0;
}

bool Rebaseline::hold(const bcast::Proposal& p, Ordinal ordinal) {
  if (!holds_deliveries()) return false;
  const std::size_t cap = node_.cfg_.max_buffered_deliveries;
  if (cap > 0 && buffered_.size() >= cap) {
    // Shed the OLDEST buffered delivery: the state transfer this buffer
    // is waiting for supersedes old deliveries first (its baseline covers
    // everything up to the donor's watermark), so the oldest entry is the
    // least likely to ever be replayed from here.
    buffered_.erase(buffered_.begin());
    ++node_.stats_.rebaseline_shed;
  }
  buffered_.emplace_back(p, ordinal);
  return true;
}

void Rebaseline::flush() {
  for (auto& [p, o] : buffered_) node_.hand_to_app(p, o);
  buffered_.clear();
}

void Rebaseline::diverged(const bcast::DeliveryEngine::AdoptOutcome& outcome,
                          sim::ClockTime now, ProcessId donor, bool joined) {
  if (!joined && forked_) return;
  if (auto* rec = node_.ep_.obs())
    rec->emit(obs::EvKind::epoch_fence, joined ? 2 : 3,
              static_cast<std::uint64_t>(outcome.divergent),
              outcome.window_epoch);
  TW_WARN("p" << node_.self() << ": " << outcome.divergent
              << " delivered binding(s) superseded by epoch "
              << outcome.window_epoch
              << (joined ? "; re-soliciting a fresh baseline"
                         : "; marked forked until a state transfer "
                           "replaces it"));
  if (!joined) {
    forked_ = true;
    return;
  }
  if (awaiting_) return;  // a solicitation is already in flight
  // Buffer further application deliveries until a state transfer replaces
  // the forked history, exactly like a joiner integrating into a
  // pre-existing group.
  awaiting_ = true;
  request_attempts_ = 0;
  if (donor != kNoProcess && donor != node_.self() &&
      node_.group_.contains(donor)) {
    request(donor, 0);
    arm_wait(now, 0);
  } else {
    retry();
  }
}

void Rebaseline::admitted(sim::ClockTime now, bool transfer_coming,
                          bool joining) {
  // The integrating decider sends its transfer right after the decision,
  // but each datagram takes its own delay: a transfer for this view or a
  // later one may have landed first and re-baselined us already.
  if (transferred_gid_ >= node_.gid_) transfer_coming = false;
  // Joining a pre-existing group: hold application deliveries until the
  // state transfer has installed the base state (or a timeout passes — the
  // integrating decider may have crashed right after deciding). A member
  // re-admitted with a forked delivered history takes this path REGARDLESS
  // of how it was re-admitted: the group believes its replica state is
  // intact (no transfer is coming unsolicited), so it must actively replace
  // the forked branch before delivering more.
  if (!((transfer_coming || dirty_) && joining) && !forked_)
    return;
  awaiting_ = true;
  request_attempts_ = 0;
  arm_wait(now, 0);
  if (forked_ && !transfer_coming) retry();
}

void Rebaseline::retry() {
  if (!awaiting_) return;
  const auto now = node_.sync_now();
  if (!now) return;
  if (request_attempts_ >= node_.cfg_.state_retry_limit || !node_.in_group()) {
    TW_WARN("p" << node_.self() << ": state transfer still missing after "
                << request_attempts_ << " requests; giving up");
    awaiting_ = false;
    forked_ = false;  // liveness over a repair nobody can supply
    if (dirty_) {
      dirty_ = false;
      ++node_.stats_.rehabilitations;
      if (auto* rec = node_.ep_.obs())
        rec->emit(obs::EvKind::rehabilitated, 2, node_.gid_, buffered_.size());
    }
    flush();
    return;
  }
  ++request_attempts_;
  // Ask a current member (round-robin around the ring) to re-supply it.
  ProcessId target = node_.group_.successor_of(node_.self());
  for (int i = 1; i < request_attempts_; ++i)
    target = node_.group_.successor_of(target);
  if (target != kNoProcess && target != node_.self())
    request(target, request_attempts_);
  arm_wait(*now, request_attempts_);
}

void Rebaseline::request(ProcessId to, int attempt) {
  if (auto* rec = node_.ep_.obs())
    rec->emit(obs::EvKind::rejoin_retry, 0,
              static_cast<std::uint64_t>(attempt), to);
  node_.ep_.send(to, {std::byte{net::kind_byte(net::MsgKind::state_request)}});
}

void Rebaseline::arm_wait(sim::ClockTime now, int attempt) {
  // Exponential backoff with deterministic jitter: after a heal every
  // member of the losing side re-baselines at once, and a fixed cadence
  // would hammer the same donor in lockstep each cycle.
  node_.arm_sync_timer(wait_timer_, now + backoff(attempt),
                       [this] { retry(); });
}

sim::Duration Rebaseline::backoff(int attempt) const {
  return (node_.slots_.cycle_len() << std::min(attempt, 2)) +
         node_.retry_jitter(attempt);
}

void Rebaseline::solicit_rejoin(sim::ClockTime now) {
  // A recovered-dirty process the group never excluded is a zombie — still
  // a member, so nobody sends it the state transfer that joiners get, and
  // its own join traffic keeps the others' failure detectors satisfied.
  // Break the deadlock by actively soliciting a state transfer from a
  // clean member.
  if (!dirty_ || awaiting_) return;
  // Bounded retransmission with exponential backoff + per-process jitter:
  // a lossy heal degrades into progressively rarer solicitations instead
  // of the whole healed side hammering the ring in lockstep once per
  // cycle. The target still rotates so a donor that is itself dirty (or
  // whose reply was lost) does not starve us.
  if (last_rejoin_ts_ >= 0 &&
      now - last_rejoin_ts_ < backoff(rejoin_attempts_))
    return;
  // Solicit only once the zombie guard has adopted the group's knowledge —
  // before that we do not know who the members are, and the normal join
  // integration path covers us anyway.
  if (!node_.installed_ || !node_.group_.contains(node_.self())) return;
  rejoin_target_ = node_.group_.successor_of(
      rejoin_target_ == kNoProcess ? node_.self() : rejoin_target_);
  if (rejoin_target_ == node_.self())
    rejoin_target_ = node_.group_.successor_of(rejoin_target_);
  last_rejoin_ts_ = now;
  ++rejoin_attempts_;
  ++node_.stats_.rejoin_requests_sent;
  if (auto* rec = node_.ep_.obs()) {
    rec->emit(obs::EvKind::rejoin_request, 0, rejoin_target_);
    rec->emit(obs::EvKind::rejoin_retry, 1,
              static_cast<std::uint64_t>(rejoin_attempts_), rejoin_target_);
  }
  TW_DEBUG("p" << node_.self() << " solicits rejoin state from p"
               << rejoin_target_);
  node_.ep_.send(rejoin_target_, RejoinRequest{now}.encode());
}

void Rebaseline::donate(util::ProcessSet to, sim::ClockTime send_ts) {
  // A poisoned donation would propagate the losing branch (or a recovered
  // member's incoherent state) into the receiver, whose solicitation walk
  // reaches a clean member instead.
  if (!node_.in_group() || awaiting_ || app_state_suspect()) return;
  for (ProcessId p : to) {
    ++node_.stats_.state_transfers_sent;
    StateTransfer st;
    st.gid = node_.gid_;
    st.send_ts = send_ts;
    if (node_.app_.get_state) st.app_state = node_.app_.get_state();
    const bcast::Oal& window = node_.delivery_.adopted();
    for (const auto& e : window.entries()) {
      if (e.kind != bcast::OalEntry::Kind::update || e.undeliverable)
        continue;
      if (const bcast::Proposal* prop = node_.delivery_.get(e.pid))
        st.proposals.push_back(*prop);
    }
    st.oal = window;
    st.marks = node_.delivery_.export_transfer_marks();
    node_.ep_.send(p, st.encode());
  }
}

void Rebaseline::handle_request(ProcessId from,
                                std::optional<sim::ClockTime> rejoin_ts) {
  // The gate applies only the staleness check to a rejoin solicitation —
  // recording the sender in the failure detector would refresh a zombie's
  // standing as a live member. A state_request (a joiner lost its
  // transfer) carries no timestamp to check.
  const auto now =
      rejoin_ts ? node_.admit({RoundMsg::rejoin_request, from, *rejoin_ts})
                : node_.sync_now();
  if (now) donate(util::ProcessSet{from}, *now);
}

void Rebaseline::handle_transfer(ProcessId from, StateTransfer st) {
  // Durable-floor and epoch fences live in the gate; a transfer carries no
  // liveness claim, so the gate applies only those for this kind.
  const auto now =
      node_.admit({RoundMsg::state_transfer, from, st.send_ts, st.gid});
  if (!now) return;
  ++node_.stats_.state_transfers_received;
  transferred_gid_ = std::max(transferred_gid_, st.gid);
  TW_DEBUG("p" << node_.self() << " state transfer: " << st.proposals.size()
               << " proposals, " << st.marks.ordered_below.size()
               << " ordered-below marks");
  // The donor built this transfer with its decision; a later decision of the
  // same epoch may have reached us first. Its window binds ordinals past the
  // transfer's window, which we may already have delivered and which we
  // would bind a second time as the next decider had the transfer rewound
  // our window. Keeping it is part of the occupancy guard (the mutation
  // switch turns both off).
  const bcast::Oal kept = node_.delivery_.adopted();
  const bool keep_window = node_.cfg_.occupancy_guard &&
                           kept.epoch() == st.oal.epoch() &&
                           kept.next_ordinal() > st.oal.next_ordinal();
  if (node_.app_.set_state) node_.app_.set_state(st.app_state);
  // The transferred state already reflects these deliveries/orderings;
  // import the marks BEFORE buffering proposals so nothing is delivered or
  // ordered twice.
  node_.delivery_.import_transfer_marks(st.marks);
  // Deliveries buffered while waiting for this transfer may already be in
  // the transferred application state: reconcile the buffer against the
  // marks before flushing it.
  std::erase_if(buffered_, [&st](const auto& entry) {
    const auto& [p, ordinal] = entry;
    if (ordinal != kNoOrdinal && ordinal < st.marks.delivered_below)
      return true;
    for (const auto& pid : st.marks.delivered)
      if (pid == p.id) return true;
    // An early (weak+unordered) delivery buffered without an ordinal may
    // nevertheless be ordered below the transferrer's cursor — i.e. it is
    // already part of the transferred state. The per-proposer ordered
    // marks cover exactly that case.
    for (const auto& [proposer, seq] : st.marks.ordered_below)
      if (proposer == p.id.proposer && p.id.seq <= seq) return true;
    return false;
  });
  for (const auto& p : st.proposals) node_.delivery_.note_proposal(p, *now);
  node_.delivery_.adopt_oal(st.oal, st.gid);
  // Importing the marks unbound every undelivered binding; re-adopting the
  // fresher window binds its ordinals again.
  if (keep_window) node_.delivery_.adopt_oal(kept, kept.epoch());
  if (awaiting_ || app_state_suspect()) {
    const bool was_dirty = dirty_;
    const bool was_forked = forked_;
    const auto flushed = buffered_.size();
    awaiting_ = false;
    dirty_ = false;        // app state and engine marks re-baselined
    forked_ = false;       // the forked branch was just replaced
    rejoin_attempts_ = 0;  // solicitation answered: reset the backoff
    node_.cancel_timer(wait_timer_);
    flush();
    if (was_dirty || was_forked) {
      ++node_.stats_.rehabilitations;
      if (auto* rec = node_.ep_.obs())
        rec->emit(obs::EvKind::rehabilitated, was_dirty ? 0 : 3, st.gid,
                  flushed);
      TW_INFO("p" << node_.self() << " rehabilitated into gid " << st.gid
                  << (was_dirty ? "" : " (forked lineage replaced)")
                  << " (flushed " << flushed << " buffered deliveries)");
    }
    // The re-baselined state is the new durable floor: record it, then
    // fold the replayed log into a snapshot so recovery from a second
    // crash starts from here.
    if (node_.store_) {
      node_.store_->note_view(st.gid, node_.group_.bits());
      node_.store_->checkpoint();
    }
  }
  node_.run_delivery(*now);
}

}  // namespace tw::gms
