#include "gms/election.hpp"

#include <algorithm>

#include "gms/repair.hpp"
#include "gms/timewheel_node.hpp"
#include "util/assert.hpp"
#include "util/logging.hpp"

namespace tw::gms {

namespace {

/// Robustness extension beyond the paper (DESIGN.md §3): a process stuck
/// this many cycles in an election that cannot complete falls back to the
/// join state, so the team can re-form after catastrophic failures the
/// paper's failure assumption excludes.
constexpr int kJoinFallbackCycles = 6;

}  // namespace

void Election::reset() {
  const auto n = static_cast<std::size_t>(node_.n_);
  nd_.assign(n, NoDecision{});
  join_.assign(n, Join{});
  recon_.assign(n, std::nullopt);
  sent_nd_this_episode_ = false;
  my_recon_ts_ = abstain_until_ = electing_since_ = last_resend_ = -1;
  my_recon_list_.clear();
  exit_wait_.clear();
  resends_ = 0;
}

void Election::enter_join() {
  node_.set_state(GcState::join);
  join_.assign(join_.size(), Join{});
}

void Election::enter_wrong_suspicion() {
  node_.set_state(GcState::wrong_suspicion);
  // A fresh wrong-suspicion episode: the control-resend budget restarts.
  resends_ = 0;
  last_resend_ = -1;
}

bool Election::formed_by_join(const bcast::Decision& d,
                              sim::ClockTime now) const {
  const sim::Duration recent = 2 * node_.slots_.cycle_len();
  const auto& entries = d.oal.entries();
  if (std::none_of(entries.begin(), entries.end(), [&](const auto& e) {
        return e.kind == bcast::OalEntry::Kind::membership &&
               e.gid == d.gid && e.members == d.group && now - e.ts <= recent;
      }))
    return false;
  for (ProcessId m : d.group) {
    if (m == node_.self() || m == d.decider) continue;
    if (join_[m].send_ts < 0 || now - join_[m].send_ts > recent) return false;
  }
  return true;
}

void Election::suspected(ProcessId suspect, sim::ClockTime now) {
  if (node_.state_ == GcState::failure_free) {
    // Single failure suspected: the successor of the suspect opens the
    // no-decision ring; everyone else waits for it (§4.2).
    node_.suspect_ = suspect;
    if (node_.self() == node_.group_.successor_of(suspect)) {
      // Two-member group: the ND ring is just us, so the election closes at
      // once — but the ND still gives a live suspect the chance to resend
      // its last control message.
      if (node_.self() == node_.group_.predecessor_of(suspect))
        send_no_decision(now);
      pass_no_decision(now);
    } else {
      node_.set_state(GcState::one_failure_receive);
      node_.expect_next(node_.group_.successor_of(suspect), now);
      // An ND that raced ahead of our own timeout may already be here (it
      // must be from THIS episode, i.e. newer than the freshest decision).
      const NoDecision& nd = nd_[node_.pred_active(node_.self())];
      if (nd.send_ts > node_.round_.last_round() &&
          node_.round_.fresh(nd.send_ts, now) && nd.suspect == node_.suspect_)
        pass_no_decision(now);
    }
  } else if (node_.in_single_failure()) {
    // A second failure within the episode: multiple-failure election.
    enter_n_failure(now);
  }
}

void Election::slot_duties(sim::ClockTime now, std::int64_t slot) {
  // Members speak through decisions, not slots.
  if (node_.state_ == GcState::join)
    join_slot_duties(now, slot);
  else if (node_.state_ == GcState::n_failure)
    reconfiguration_slot_duties(now, slot);
}

void Election::watch_stall(sim::ClockTime now) {
  // Join fallback: an election that cannot complete (e.g. the surviving
  // members are no longer a majority of the team) would stall forever under
  // the paper's failure assumption; fall back to join so the team can
  // re-form once enough processes are back. The watchdog covers every
  // non-stable state, not just n-failure — a wedged wrong-suspicion or
  // 1-failure state is just as dead.
  if (!node_.in_single_failure() && node_.state_ != GcState::n_failure) {
    electing_since_ = -1;
    return;
  }
  if (electing_since_ < 0) electing_since_ = now;
  if (now - electing_since_ <= kJoinFallbackCycles * node_.slots_.cycle_len())
    return;
  TW_INFO("p" << node_.self()
              << ": election stalled; falling back to join state");
  enter_join();
  node_.installed_ = false;
  exit_wait_.clear();
  node_.suspect_ = kNoProcess;
  node_.stand_down();
  electing_since_ = -1;
}

// --- Single-failure election (no-decision ring) ---

void Election::send_no_decision(sim::ClockTime now) {
  NoDecision nd;
  nd.suspect = node_.suspect_;
  nd.gid = node_.gid_;
  nd.send_ts = std::max(now, node_.fd_.last_ts_from(node_.self()) + 1);
  nd.last_decision_ts = node_.round_.last_round();
  nd.alive = node_.fd_.alive_list(now);
  nd.view = node_.delivery_.view(now);
  nd.dpd = node_.delivery_.dpd();

  // Paper §4.3: mark the suspect's unreceived proposals undeliverable for
  // one cycle.
  node_.delivery_.mark_suspect_sender(node_.suspect_,
                                      now + node_.slots_.cycle_len());
  sent_nd_this_episode_ = true;

  ++node_.stats_.no_decisions_sent;
  const NoDecision& mine = nd_[node_.self()] = std::move(nd);
  node_.send_ring(mine.encode());
}

void Election::pass_no_decision(sim::ClockTime now) {
  if (node_.self() == node_.group_.predecessor_of(node_.suspect_)) {
    close_single_failure(now);
    return;
  }
  send_no_decision(now);
  node_.set_state(GcState::one_failure_send);
  node_.expect_next(node_.succ_active(node_.self()), now);
}

void Election::resend_last_control(sim::ClockTime now) {
  if (node_.last_control_sent_.empty()) return;
  // The paper resends after EVERY no-decision receipt; under duplication
  // or a suspicion storm that turns one lost control message into n
  // broadcast bursts per ring lap. Budget: the first resend of an episode
  // is immediate (the paper's behavior in the healthy case — ring hops
  // arrive at slot pace, far above the minimum gap), later ones must be
  // spaced by an exponentially growing, jittered minimum gap.
  if (resends_ > 0) {
    const sim::Duration delta = node_.cfg_.delta;
    const int shift = std::min(resends_ - 1, 3);
    const sim::Duration gap =
        (delta << shift) + node_.retry_jitter(resends_) % (delta / 2 + 1);
    if (last_resend_ >= 0 && now - last_resend_ < gap) {
      ++node_.stats_.resends_suppressed;
      return;
    }
  }
  last_resend_ = now;
  ++resends_;
  node_.ep_.broadcast(node_.last_control_sent_);
}

void Election::on_no_decision(ProcessId from, NoDecision msg,
                              sim::ClockTime now) {
  const NoDecision& nd = nd_[from] = std::move(msg);

  if (!node_.in_group() || !node_.group_.contains(from)) return;
  if (node_.in_single_failure() && nd.suspect != node_.suspect_) {
    enter_n_failure(now);  // conflicting suspicions: multiple failures
    return;
  }

  const ProcessId self = node_.self();
  switch (node_.state_) {
    case GcState::failure_free:
      // Not part of our surveillance.
      if (from != node_.expected_decider_) return;
      node_.suspect_ = nd.suspect;
      if (node_.round_.last_round() > nd.last_decision_ts) {
        // We hold a decision the suspecter missed: we do NOT concur —
        // wrong suspicion (§4.2). Only this branch may lead to the
        // become-decider-from-current-knowledge path; a member whose
        // knowledge is no fresher than the suspecter's must never take the
        // decider role from stale state.
        enter_wrong_suspicion();
        // "If p itself is suspected, it resends its last control message
        // after the receipt of each no-decision message" — rate-limited
        // (the budget restarted with the episode above).
        if (node_.suspect_ == self) resend_last_control(now);
        node_.expect_next(node_.succ_active(from), nd.send_ts);
        // The ND ring may already have reached our predecessor.
        if (from == node_.pred_active(self) && node_.suspect_ != self)
          become_decider_wrong_suspicion(now);
      } else {
        // We concur (our FD just had not fired yet): join the no-decision
        // ring exactly as if our own timeout had raised the suspicion. A
        // close from failure-free passes through one-failure-receive.
        if (from == node_.pred_active(self)) {
          if (self == node_.group_.predecessor_of(node_.suspect_))
            node_.set_state(GcState::one_failure_receive);
          pass_no_decision(now);
        } else {
          node_.set_state(GcState::one_failure_receive);
          node_.expect_next(node_.succ_active(from), nd.send_ts);
        }
      }
      break;
    case GcState::wrong_suspicion:
      if (node_.suspect_ == self) resend_last_control(now);
      if (from == node_.pred_active(self) && node_.suspect_ != self)
        become_decider_wrong_suspicion(now);
      else
        node_.expect_next(node_.succ_active(from), nd.send_ts);
      break;
    case GcState::one_failure_receive:
      if (from == node_.pred_active(self))
        pass_no_decision(now);
      else
        node_.expect_next(node_.succ_active(from), nd.send_ts);
      break;
    case GcState::one_failure_send:
      // Stay; follow the ring with the FD.
      node_.expect_next(node_.succ_active(from), nd.send_ts);
      break;
    default:
      break;  // join / n-failure / desync ignore NDs
  }
}

void Election::become_decider_wrong_suspicion(sim::ClockTime now) {
  // "p will create a decision message using the information it has received
  // from q's last decision" — the group is unchanged; the suspicion was a
  // false alarm and service continues uninterrupted.
  node_.suspect_ = kNoProcess;
  node_.set_state(GcState::failure_free);
  node_.i_am_decider_ = true;
  node_.ep_.trace(sim::TraceKind::decider_assumed, node_.gid_,
                  node_.last_decision_no_ + 1);
  node_.send_decision(now);
}

void Election::close_single_failure(sim::ClockTime now) {
  const int majority = node_.n_ / 2 + 1;
  // Reaching here already proves ring-wide participation: the no-decision
  // ring is sequential (each member forwards only after hearing its own
  // ring predecessor name the same suspect), so the suspect's predecessor
  // closing on its predecessor's ND transitively certifies that every
  // member of the group minus the suspect spoke this episode. A healed
  // partition's stale minority cannot complete the ring — members that
  // installed a newer group ignore old-group no-decisions, so the chain
  // stalls at the first such member and the FD escalates to the
  // multiple-failure election instead.
  if (node_.group_.size() - 1 >= majority) {
    // Remove the suspect and take the decider role.
    util::ProcessSet members = node_.group_;
    members.erase(node_.suspect_);
    std::vector<bcast::ProposalId> dpds;
    for (ProcessId m : members) {
      const NoDecision& nd = nd_[m];
      if (node_.round_.fresh(nd.send_ts, now))
        dpds.insert(dpds.end(), nd.dpd.begin(), nd.dpd.end());
    }
    create_group(members, util::ProcessSet{node_.suspect_}, std::move(dpds), {},
                 now);
  } else {
    // Exactly a majority left: a smaller group is not allowed; run the
    // multiple-failure election, which can re-admit the suspect if it is
    // actually alive (§4.2).
    enter_n_failure(now);
    send_reconfiguration(now, /*abstain=*/false);
  }
}

// --- Group creation (single-failure close, reconfiguration, join) ---

GroupId Election::next_gid(sim::ClockTime now) const {
  // Group ids must be unique across epochs even when no process carries
  // the previous epoch's counter, and unique across CONCURRENT creators:
  // two election paths can legitimately close in the same slot (e.g. a
  // single-failure close racing a healed partition's re-formation), and a
  // shared id with divergent member lists would violate the §3 view
  // agreement even though the later repair machinery reconciles the
  // histories. Take the slot index — monotone in synchronized time — as
  // the high digits and the creator id as the low digits: ids stay
  // strictly increasing per process and can never collide across creators.
  const auto n = static_cast<GroupId>(node_.n_);
  const auto base = std::max(
      node_.gid_ / n + 1,
      static_cast<GroupId>(now / node_.cfg_.slot_len()));
  return base * n + static_cast<GroupId>(node_.self());
}

void Election::create_group(util::ProcessSet members,
                            util::ProcessSet departed,
                            std::vector<bcast::ProposalId> extra_dpds,
                            util::ProcessSet joiners, sim::ClockTime now) {
  // Every caller requires a strict majority of a team of n >= 2, so the
  // creator always has a supporter to re-baseline from.
  TW_ASSERT(members.contains(node_.self()) && members.size() >= 2);

  // Merge the views received from the other new members so ack knowledge is
  // complete before classifying lost proposals. The BASE of the merge is
  // the epoch-freshest window among our own view and the supporters' views
  // (epoch first, window length as the tie-break within an epoch), NOT
  // simply our own: after a partition heal the election can be won by a
  // member whose window is behind the side that kept deciding, and a
  // creator that keeps its own stale window would re-order proposals the
  // fresher epoch already bound — rebinding ordinals under every member
  // that adopted the fresher history (the lineage-conflict race this
  // fence exists to kill). Acks of the non-chosen windows still merge in.
  bcast::Oal merged = node_.delivery_.view(now);
  ProcessId freshest_donor = kNoProcess;
  auto fresher = [](const bcast::Oal& cand, const bcast::Oal& cur) {
    if (cand.epoch() != cur.epoch()) return cand.epoch() > cur.epoch();
    return cand.next_ordinal() > cur.next_ordinal();
  };
  auto fold_view = [&](const bcast::Oal& v, ProcessId m) {
    if (fresher(v, merged)) {
      bcast::Oal next = v;
      next.merge_acks_from(merged);
      merged = std::move(next);
      freshest_donor = m;
    } else {
      merged.merge_acks_from(v);
    }
  };
  for (ProcessId m : members) {
    if (m == node_.self()) continue;
    const NoDecision& nd = nd_[m];
    if (node_.round_.fresh(nd.send_ts, now)) fold_view(nd.view, m);
    const auto& rc = recon_[m];
    if (rc && node_.round_.fresh(rc->send_ts, now)) {
      fold_view(rc->view, m);
      extra_dpds.insert(extra_dpds.end(), rc->dpd.begin(), rc->dpd.end());
    }
  }

  // The new epoch opens here: stamp everything this creation appends
  // (repair stubs, the membership descriptor, the first orderings).
  const GroupId new_gid = next_gid(now);
  merged.set_epoch(new_gid);

  RepairResult repaired;
  if (!departed.empty() || !extra_dpds.empty()) {
    repaired = repair_oal(RepairInput{std::move(merged), members, departed,
                                      std::move(extra_dpds), now});
  } else {
    repaired.oal = std::move(merged);
  }

  if (node_.gid_ == 0 && repaired.oal.empty() && repaired.oal.base() == 0) {
    // A team forming with no surviving knowledge (initial start, or
    // re-forming after every member's knowledge was lost): seed the ordinal
    // space from the synchronized clock so it cannot collide with a
    // previous epoch's ordinals. Should the clock-seeded base nevertheless
    // overlap a previous epoch's window (a stepped clock), the epoch stamp
    // lets any straggler holding that window quarantine the collision.
    repaired.oal.seed_base(static_cast<Ordinal>(now), new_gid);
  }

  ++node_.stats_.groups_created;
  node_.gid_ = new_gid;
  node_.group_ = members;
  repaired.oal.append_membership(node_.gid_, node_.group_, now);
  node_.ep_.trace(sim::TraceKind::group_created, node_.gid_,
                  static_cast<std::uint64_t>(repaired.total_marked()),
                  node_.group_);
  node_.install_view(node_.gid_, node_.group_, now);

  node_.suspect_ = kNoProcess;
  end_episode();
  node_.set_state(GcState::failure_free);

  if (!departed.empty()) node_.delivery_.drop_unordered_from(departed);
  const auto adopt = node_.delivery_.adopt_oal(repaired.oal, node_.gid_);
  // Even the creator re-baselines, asking first the supporter whose window
  // won (by construction on the winning branch), when:
  //  - the window it just adopted came from a fresher supporter and
  //    supersedes its own delivered history; or
  //  - its application state is suspect although this adopt reports no
  //    divergence. A forked history's engine window already carries the
  //    winning branch (its slots were repaired when the fork was first
  //    detected, after the forked deliveries had reached the app), so our
  //    own window being the merge base does NOT make the app state clean.
  //    A recovered creator's durable application state may hold a decision
  //    it self-delivered that reached nobody before it crashed, and merged
  //    engine knowledge cannot show that.
  if (adopt.divergent > 0 || node_.rebaseline_.app_state_suspect())
    node_.rebaseline_.diverged(adopt, now, freshest_donor, /*joined=*/true);

  // Send the first decision of the new group.
  node_.order_pending_proposals(repaired.oal, now);
  node_.emit_decision(std::move(repaired.oal), joiners, now);
}

// --- Multiple-failure election (slotted reconfiguration) ---

void Election::enter_n_failure(sim::ClockTime now) {
  if (node_.state_ == GcState::n_failure) return;
  node_.set_state(GcState::n_failure);
  electing_since_ = now;
  // The single-failure suspicion is superseded: a decision from the former
  // suspect that closes this election must take the D edge like any other.
  node_.suspect_ = kNoProcess;
  node_.stand_down();
  my_recon_ts_ = -1;
  my_recon_list_.clear();
  // One election per cycle: having already backed a single-failure
  // election, abstain for N-1 slots (§4.2).
  if (sent_nd_this_episode_)
    abstain_until_ = now + (node_.n_ - 1) * node_.cfg_.slot_len();
}

void Election::send_reconfiguration(sim::ClockTime now, bool abstain) {
  Reconfiguration r;
  r.send_ts = std::max(now, node_.fd_.last_ts_from(node_.self()) + 1);
  if (!abstain) {
    r.recon_list = current_recon_list(node_.slots_.slot_index(now));
    my_recon_ts_ = r.send_ts;
    my_recon_list_ = r.recon_list;
    ++node_.stats_.reconfigurations_sent;
  }
  r.last_decision_ts = node_.round_.last_round();
  r.last_gid = node_.gid_;
  r.last_group = node_.group_;
  r.alive = node_.fd_.alive_list(now);
  r.view = node_.delivery_.view(now);
  r.dpd = node_.delivery_.dpd();
  node_.broadcast_control(r.encode());
}

util::ProcessSet Election::current_recon_list(std::int64_t slot) const {
  util::ProcessSet list;
  list.insert(node_.self());
  for (ProcessId q = 0; q < static_cast<ProcessId>(node_.n_); ++q) {
    if (q == node_.self() || !recon_[q]) continue;
    const std::int64_t sent_slot = node_.slots_.slot_index(
        std::max<sim::ClockTime>(0, recon_[q]->send_ts));
    if (slot - sent_slot <= node_.n_ - 1 && sent_slot < slot) list.insert(q);
  }
  return list;
}

void Election::reconfiguration_slot_duties(sim::ClockTime now,
                                           std::int64_t slot) {
  if (!exit_wait_.empty()) return;  // excluded; just wait
  if (abstain_until_ >= 0 && now < abstain_until_) {
    send_reconfiguration(now, /*abstain=*/true);
    return;
  }
  abstain_until_ = -1;

  // Try to create a new group from the reconfiguration messages gathered
  // since our previous (non-abstaining) reconfiguration (§4.2).
  if (my_recon_ts_ >= 0 && node_.in_group()) {
    util::ProcessSet support;
    support.insert(node_.self());
    for (ProcessId q : my_recon_list_) {
      if (q == node_.self()) continue;
      const auto& rc = recon_[q];
      if (!rc || rc->abstaining()) continue;
      if (!node_.slots_.in_last_slot_of(q, rc->send_ts, slot)) continue;
      if (!(rc->recon_list == my_recon_list_)) continue;
      if (rc->last_decision_ts > node_.round_.last_round()) continue;
      if (!node_.group_.contains(q)) continue;  // condition (4)
      support.insert(q);
    }
    if (support.is_majority_of(node_.n_) && support.subset_of(node_.group_)) {
      create_group(support, node_.group_.minus(support), {}, {}, now);
      return;
    }
  }

  send_reconfiguration(now, /*abstain=*/false);
}

void Election::on_reconfiguration(ProcessId from, Reconfiguration r,
                                  sim::ClockTime now) {
  recon_[from] = std::move(r);
  // "if p receives a reconfiguration message from the expected sender, it
  // switches to n-failure state" (§4.2). n-failure accumulates; join and
  // desync ignore.
  if ((node_.state_ == GcState::failure_free || node_.in_single_failure()) &&
      from == node_.fd_.expected_sender())
    enter_n_failure(now);
}

void Election::await_exit(const bcast::Decision& d, ProcessId from) {
  // Delayed switch to join: "it waits until it has received a decision
  // message from all new group members" so it can still participate in a
  // quick follow-up election (§4.2).
  if (exit_wait_.empty()) exit_wait_ = d.group;
  exit_wait_.erase(from);
  exit_wait_.erase(d.decider);
  if (exit_wait_.empty()) {
    electing_since_ = -1;
    enter_join();
  }
}

// --- Join protocol ---

void Election::send_join(sim::ClockTime now) {
  Join j;
  j.send_ts = std::max(now, node_.fd_.last_ts_from(node_.self()) + 1);
  j.join_list = current_join_list(node_.slots_.slot_index(now));
  j.last_decision_ts = node_.round_.last_round();
  // The node's gid survives a desync (knowledge is stale, not lost) and is
  // zeroed by a crash recovery, so it is exactly "the freshest group whose
  // history we still carry" — which is what the continuity rule needs to
  // see.
  j.gid = node_.gid_;
  node_.broadcast_control(j.encode());
}

util::ProcessSet Election::current_join_list(std::int64_t slot) const {
  util::ProcessSet list;
  list.insert(node_.self());
  for (ProcessId q = 0; q < static_cast<ProcessId>(node_.n_); ++q) {
    if (q == node_.self() || join_[q].send_ts < 0) continue;
    const std::int64_t sent_slot = node_.slots_.slot_index(join_[q].send_ts);
    if (slot - sent_slot <= node_.n_ - 1) list.insert(q);
  }
  return list;
}

void Election::join_slot_duties(sim::ClockTime now, std::int64_t slot) {
  const util::ProcessSet my_list = current_join_list(slot);
  // Continuity rule (the join analogue of reconfiguration condition (4)):
  // if we know of a previous group, a re-formed group must contain a
  // majority OF THAT GROUP — otherwise the members holding its latest
  // history may be absent and their completed-majority history would be
  // orphaned (forked ordinals). Fresh processes are unconstrained.
  //
  // Membership alone is not carrying: a member that crashed and recovered
  // lost its replica state, so counting it here would let a stale minority
  // plus an amnesiac "survivor" fake the old group's majority and fork the
  // ordinal space. A process only counts when its join advertises group
  // knowledge at least as fresh as ours (its installed gid >= ours).
  //
  // Deliberately NOT gated on installed_: a desync (or an eavesdropped
  // exclusion) clears installed_ but keeps the group and its gid — such a
  // process still remembers the group and must honor its continuity; only
  // a crash recovery clears the group and lifts the constraint.
  //
  // Exception: when EVERY team member is in the join dance, the knowledge
  // rule below sees every process's history and provably elects the
  // freshest one — no group can be running elsewhere, so there is no
  // branch to orphan. Without this escape, a group whose other members all
  // crashed (serially, each under a live team majority) could never be
  // succeeded: its last survivor would wait for carriers that no longer
  // exist while its superior knowledge blocks everyone else.
  const bool whole_team_joining =
      my_list == util::ProcessSet::full(static_cast<ProcessId>(node_.n_));
  if (!node_.group_.empty() && !whole_team_joining) {
    util::ProcessSet carried;
    for (ProcessId q : my_list.intersect(node_.group_)) {
      if (q == node_.self() || join_[q].gid >= node_.gid_) carried.insert(q);
    }
    if (2 * carried.size() <= node_.group_.size()) {
      send_join(now);
      return;
    }
  }
  // Completeness rule: every process we still hear from (our alive-list)
  // must be part of the join dance before we may form a group. A live
  // process outside the dance — say, wedged in an n-failure election — may
  // hold a fresher completed-majority history than anyone here; once its
  // fallback brings it to the join protocol, the knowledge rule below puts
  // it in charge. A genuinely dead process ages out of the alive-list
  // within N slots and stops blocking.
  if (!node_.fd_.alive_list(now).subset_of(my_list)) {
    send_join(now);
    return;
  }
  // Initial group formation (§4.2 join state): become the decider when a
  // majority agrees on identical join-lists, each confirmed in its sender's
  // last slot.
  if (my_list.is_majority_of(node_.n_)) {
    bool all_confirm = true;
    util::ProcessSet stale_joiners;
    for (ProcessId q : my_list) {
      if (q == node_.self()) continue;
      const Join& j = join_[q];
      if (j.send_ts < 0 || !node_.slots_.in_last_slot_of(q, j.send_ts, slot) ||
          !(j.join_list == my_list) ||
          // Knowledge rule: the first decider must hold the freshest
          // replica history among the forming group, so nothing a member
          // knows about is silently lost and stale members can be brought
          // up to date with a state transfer.
          j.last_decision_ts > node_.round_.last_round()) {
        all_confirm = false;
        break;
      }
      if (j.last_decision_ts < node_.round_.last_round())
        stale_joiners.insert(q);
    }
    if (all_confirm) {
      create_group(my_list, {}, {}, stale_joiners, now);
      return;
    }
  }
  send_join(now);
}

}  // namespace tw::gms
