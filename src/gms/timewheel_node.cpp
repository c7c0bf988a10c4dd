#include "gms/timewheel_node.hpp"

#include <algorithm>

#include "gms/repair.hpp"
#include "store/stable_store.hpp"
#include "util/assert.hpp"
#include "util/buffer_pool.hpp"
#include "util/logging.hpp"

namespace tw::gms {

using sim::TraceKind;

namespace {

/// Minimum spacing between one member's partial proposal batches. A member
/// that sent none for this long flushes at the end of the current turn;
/// under load it holds a partial batch until this long after its last
/// proposal datagram, so batches fill. Full batches leave at once.
constexpr sim::Duration kBatchFlushDelay = sim::msec(1);
/// Robustness extension beyond the paper (DESIGN.md §3): a process stuck
/// this many cycles in an election that cannot complete falls back to the
/// join state, so the team can re-form after catastrophic failures the
/// paper's failure assumption excludes.
constexpr int kJoinFallbackCycles = 6;
/// Overload watermarks in percent of max_pending. Crossing hi enters
/// `backpressured`; reaching max_pending enters `shedding` (try_propose
/// refuses); draining below hi leaves shedding; draining to lo returns to
/// `normal`. The hi/lo gap is the hysteresis band that stops the state
/// from flapping at a boundary.
constexpr std::size_t kOverloadHiPct = 75;
constexpr std::size_t kOverloadLoPct = 50;
/// Release delay Δ for time-ordered delivery: a time-ordered update is
/// delivered at send_ts + Δ on the synchronized clock. Must exceed δ + ε
/// so every member has the update by release time.
constexpr sim::Duration kDeliverDelay = sim::msec(60);

}  // namespace

TimewheelNode::TimewheelNode(net::Endpoint& endpoint, NodeConfig cfg,
                             AppCallbacks app, store::StableStore* store)
    : ep_(endpoint),
      cfg_(cfg),
      app_(std::move(app)),
      store_(store),
      n_(endpoint.team_size()),
      slots_(n_, cfg_.slot_len()),
      clock_(endpoint, (cfg_.propagate_clock_params(), cfg_.clock),
             [this](bool s) { on_clock_sync_change(s); }),
      fd_(endpoint.self(), n_, cfg_.slot_len()),
      delivery_(endpoint.self(), kDeliverDelay,
                [this](const bcast::Proposal& p, Ordinal o) {
                  deliver_to_app(p, o);
                }) {
  TW_ASSERT_MSG(n_ >= 2 && n_ <= 64, "team size must be in [2, 64]");
  if (cfg_.detector == DetectorKind::adaptive) {
    detector_policy_ = std::make_unique<AdaptiveDetectorPolicy>(
        n_, AdaptiveDetectorPolicy::Params{});
    fd_.set_policy(detector_policy_.get());
  }
  if (!cfg_.occupancy_guard) delivery_.set_occupancy_guard(false);
  join_infos_.resize(static_cast<std::size_t>(n_));
  recon_infos_.resize(static_cast<std::size_t>(n_));
  nd_infos_.resize(static_cast<std::size_t>(n_));
  if (obs::Recorder* rec = ep_.obs()) {
    delivery_.set_recorder(rec);
    if (obs::Registry* reg = rec->registry()) {
      // Snapshots see this node's NodeStats as "gms.p<id>.*" counters
      // ("gms.g<tag>.p<id>.*" under a multi-group runtime endpoint).
      const std::string prefix = "gms." + ep_.obs_scope() + '.';
      stats_source_ = reg->register_source(
          [this, prefix](std::map<std::string, std::uint64_t>& out) {
            out[prefix + "decisions_sent"] = stats_.decisions_sent;
            out[prefix + "proposals_sent"] = stats_.proposals_sent;
            out[prefix + "views_installed"] = stats_.views_installed;
            out[prefix + "suspicions_raised"] = stats_.suspicions_raised;
            out[prefix + "no_decisions_sent"] = stats_.no_decisions_sent;
            out[prefix + "reconfigurations_sent"] =
                stats_.reconfigurations_sent;
            out[prefix + "groups_created"] = stats_.groups_created;
            out[prefix + "wrong_suspicions"] = stats_.wrong_suspicions;
            out[prefix + "state_transfers_sent"] =
                stats_.state_transfers_sent;
            out[prefix + "state_transfers_received"] =
                stats_.state_transfers_received;
            out[prefix + "retransmit_requests_sent"] =
                stats_.retransmit_requests_sent;
            out[prefix + "exclusions"] = stats_.exclusions;
            out[prefix + "rejoin_requests_sent"] =
                stats_.rejoin_requests_sent;
            out[prefix + "rehabilitations"] = stats_.rehabilitations;
            out[prefix + "proposal_batches_sent"] =
                stats_.proposal_batches_sent;
            out[prefix + "stale_dropped"] = stats_.stale_dropped;
            out[prefix + "rebaseline_shed"] = stats_.rebaseline_shed;
            out[prefix + "repair_backoffs"] = stats_.repair_backoffs;
            out[prefix + "resends_suppressed"] = stats_.resends_suppressed;
            out[prefix + "decision_pulls"] = stats_.decision_pulls;
            out[prefix + "pull_replies"] = stats_.pull_replies;
            // Overload gauges/counters (gms.<scope>.overload.*): the
            // ladder rung plus the admission pressure behind it.
            out[prefix + "overload.state"] =
                static_cast<std::uint64_t>(overload_);
            out[prefix + "overload.occupancy"] = own_inflight_;
            out[prefix + "overload.occupancy_peak"] = stats_.occupancy_peak;
            out[prefix + "overload.refused"] = stats_.proposals_refused;
            out[prefix + "overload.enters"] = stats_.overload_enters;
            out[prefix + "overload.exits"] = stats_.overload_exits;
            if (store_)
              out[prefix + "store_sync_failures"] = store_->sync_failures();
          });
    }
  }
}

TimewheelNode::~TimewheelNode() {
  if (stats_source_ != 0) {
    if (obs::Recorder* rec = ep_.obs())
      if (obs::Registry* reg = rec->registry())
        reg->unregister_source(stats_source_);
  }
}

// ---------------------------------------------------------------------------
// Lifecycle
// ---------------------------------------------------------------------------

void TimewheelNode::cancel_timer(net::TimerId& timer) {
  if (timer != net::kNoTimer) {
    ep_.cancel_timer(timer);
    timer = net::kNoTimer;
  }
}

void TimewheelNode::full_reset(bool recovered) {
  cancel_timer(slot_timer_);
  cancel_timer(fd_timer_);
  cancel_timer(decision_timer_);
  cancel_timer(delivery_timer_);
  cancel_timer(housekeeping_timer_);
  cancel_timer(retransmit_timer_);
  cancel_timer(batch_timer_);
  rebaseline_.reset(recovered);

  state_ = GcState::join;
  installed_ = false;
  gid_ = 0;
  group_.clear();
  suspect_ = kNoProcess;
  round_.reset();
  last_decision_no_ = 0;
  i_am_decider_ = false;
  expected_decider_ = kNoProcess;
  pending_proposals_.clear();
  batch_queue_.clear();
  last_control_sent_.clear();
  last_decision_sent_ts_ = -1;
  for (auto& j : join_infos_) j = JoinInfo{};
  for (auto& r : recon_infos_) r = ReconInfo{};
  for (auto& e : nd_infos_) e = ElectionInfo{};
  my_recon_ts_ = -1;
  my_recon_list_.clear();
  abstain_until_ = -1;
  sent_nd_this_episode_ = false;
  exit_decisions_needed_.clear();
  n_failure_since_ = -1;
  retransmit_hint_ = kNoProcess;
  overload_ = OverloadState::normal;
  own_inflight_ = 0;
  repairs_.clear();
  suspect_resends_ = 0;
  last_suspect_resend_ = -1;

  stats_ = NodeStats{};
  fd_.reset();
  delivery_.reset();
  // Proposal ids must never repeat across incarnations. Without stable
  // storage the best available approximation restarts the sequence from
  // the hardware clock's microsecond reading (the clock keeps running
  // through a process crash, and no incarnation proposes at a sustained
  // rate above one per microsecond) — but a clock step fault can defeat
  // it. With a store, on_start overrides this with the durable
  // reservation watermark, which no clock fault can roll back.
  next_seq_ = static_cast<ProposalSeq>(
      std::max<sim::ClockTime>(0, ep_.hw_now()));
  seq_floor_ = next_seq_;
}

void TimewheelNode::on_start() {
  // Re-open stable storage first: the durable incarnation counter also
  // detects the recovery case where the crash took the whole OS process
  // with it (kill -9 on the UDP transport) and this node OBJECT is fresh.
  store::StoreOpenStats sstats;
  bool durable_recovery = false;
  if (store_) {
    sstats = store_->open();
    durable_recovery = store_->kernel().incarnation > 0;
  }
  const bool recovery = ever_started_ || durable_recovery;
  // Proposals queued before the first start are kept; after a crash
  // recovery they are volatile state and correctly lost.
  auto kept = recovery ? decltype(pending_proposals_){}
                       : std::move(pending_proposals_);
  ever_started_ = true;
  full_reset(recovery);
  pending_proposals_ = std::move(kept);
  if (store_) {
    incarnation_ = store_->begin_incarnation();
    const store::RecoveryKernel& k = store_->kernel();
    round_.set_durable_floor(k.gid);
    // Satellite of the continuity rule: the durable reservation watermark
    // replaces the clock heuristic — every id strictly below it may have
    // been used by an earlier incarnation, no matter what the clock says.
    next_seq_ = k.reserved_seq;
    seq_floor_ = next_seq_;
    if (recovery) {
      // Re-arm the engine with the durable delivery watermarks so even the
      // no-donor fallback paths (election win, state-request give-up)
      // cannot re-deliver an update the pre-crash incarnation already
      // handed to the application.
      bcast::DeliveryEngine::TransferMarks marks;
      marks.delivered_below = k.delivered_below;
      marks.forgotten_below.assign(k.delivered_seq.begin(),
                                   k.delivered_seq.end());
      delivery_.import_transfer_marks(marks);
    }
  }
  clock_.start();
  ep_.trace(TraceKind::node_started);
  // node_start precedes store_open in the trace: the timeline stitcher
  // opens a recovery episode at node_start and attributes the replay
  // stats of the store_open that follows to it.
  if (auto* rec = ep_.obs())
    rec->emit(obs::EvKind::node_start, recovery ? 1 : 0);
  if (store_) {
    if (auto* rec = ep_.obs())
      rec->emit(obs::EvKind::store_open, recovery ? 1 : 0, sstats.log_records,
                sstats.skipped_bytes + sstats.truncated_bytes +
                    sstats.bad_records);
  }
  arm_slot_timer();
  housekeeping_timer_ = ep_.set_timer_after(
      cfg_.slot_len(), [this] { on_housekeeping(); });
}

void TimewheelNode::set_state(GcState next) {
  if (next == state_) return;
  if (next == GcState::wrong_suspicion) {
    ++stats_.wrong_suspicions;
    // A fresh wrong-suspicion episode: the control-resend budget restarts
    // (repeat entries into the SAME episode are no-ops above).
    suspect_resends_ = 0;
    last_suspect_resend_ = -1;
  }
  ep_.trace(TraceKind::state_changed, static_cast<std::uint64_t>(next),
            static_cast<std::uint64_t>(state_), {},
            std::string(gc_state_name(state_)) + "->" + gc_state_name(next));
  if (auto* rec = ep_.obs())
    rec->emit(obs::EvKind::fsm_transition, 0, static_cast<std::uint64_t>(next),
              static_cast<std::uint64_t>(state_));
  state_ = next;
}

bool TimewheelNode::in_single_failure() const {
  return state_ == GcState::wrong_suspicion ||
         state_ == GcState::one_failure_receive ||
         state_ == GcState::one_failure_send;
}

void TimewheelNode::enter_join() {
  set_state(GcState::join);
  for (auto& j : join_infos_) j = JoinInfo{};
}

void TimewheelNode::stand_down() {
  i_am_decider_ = false;
  cancel_timer(decision_timer_);
  fd_.clear_expectation();
  cancel_timer(fd_timer_);
}

void TimewheelNode::on_clock_sync_change(bool synchronized) {
  if (!synchronized) {
    if (state_ == GcState::desync || state_ == GcState::join) return;
    // Fail-awareness: we KNOW our group knowledge may be out of date; stop
    // participating until the clock is synchronized again.
    set_state(GcState::desync);
    stand_down();
  } else if (state_ == GcState::desync) {
    // "When p can synchronize its clock again, p applies to join the group
    // again" (paper §2).
    enter_join();
    installed_ = false;
    suspect_ = kNoProcess;
    arm_slot_timer();
  }
}

// ---------------------------------------------------------------------------
// Timers
// ---------------------------------------------------------------------------

void TimewheelNode::arm_sync_timer(net::TimerId& timer, sim::ClockTime target,
                                   std::function<void()> fn) {
  cancel_timer(timer);
  const auto now = sync_now();
  if (!now) {
    // Clock out of date: retry once it may be back.
    timer = ep_.set_timer_after(cfg_.slot_len(),
                                [this, &timer, target, fn]() mutable {
                                  timer = net::kNoTimer;
                                  arm_sync_timer(timer, target, fn);
                                });
    return;
  }
  const sim::ClockTime hw_target =
      std::max<sim::ClockTime>(ep_.hw_now(),
                               target - clock_.current_offset());
  timer = ep_.set_timer_at_hw(hw_target, [this, &timer, target, fn] {
    const auto t = sync_now();
    if (!t) {
      // Transient desync at fire time. The desync transition (noticed
      // inside sync_now) cancels the timers it wants dead — those read
      // kNoTimer here and stay dead. Everything else must survive the
      // blip, or a join-state node whose clock sync lapses at exactly the
      // wrong instant loses its slot cadence forever and wedges the whole
      // team's re-formation. Re-arm through the !now polling path.
      if (timer != net::kNoTimer) arm_sync_timer(timer, target, fn);
      return;
    }
    timer = net::kNoTimer;
    if (*t < target) {
      arm_sync_timer(timer, target, fn);  // offset moved; re-arm
      return;
    }
    fn();
  });
}

void TimewheelNode::arm_slot_timer() {
  const auto now = sync_now();
  if (!now) {
    cancel_timer(slot_timer_);
    slot_timer_ = ep_.set_timer_after(cfg_.slot_len() / 2,
                                      [this] { arm_slot_timer(); });
    return;
  }
  const sim::ClockTime next = slots_.next_slot_start(self(), *now);
  arm_sync_timer(slot_timer_, next, [this] { on_own_slot(); });
}

void TimewheelNode::on_own_slot() {
  const auto now = sync_now();
  if (now) {
    const std::int64_t slot = slots_.slot_index(*now);
    switch (state_) {
      case GcState::join:
        join_slot_duties(*now, slot);
        break;
      case GcState::n_failure:
        reconfiguration_slot_duties(*now, slot);
        break;
      default:
        break;  // members speak through decisions, not slots
    }
  }
  arm_slot_timer();
}

void TimewheelNode::on_housekeeping() {
  housekeeping_timer_ =
      ep_.set_timer_after(cfg_.slot_len(), [this] { on_housekeeping(); });
  const auto now = sync_now();
  if (!now) return;
  // Admission-occupancy resync: purges, undeliverable marks and view
  // changes retire own proposals without passing through deliver_to_app,
  // so the incremental count can drift high and pin the node in a
  // degraded state. Ground truth is cheap to recount once per slot.
  if (cfg_.max_pending > 0) {
    own_inflight_ = pending_proposals_.size() + delivery_.own_outstanding();
    update_overload();
  }
  // Compact the durable log once it has grown past a checkpoint's worth of
  // records — replay time and disk stay bounded without an fsync per event.
  if (store_ && store_->log_records_since_checkpoint() > 128)
    store_->checkpoint();
  // Crash-recovery rehabilitation (§4.2) of a zombie the group never
  // excluded.
  if (state_ == GcState::join) rebaseline_.solicit_rejoin(*now);
  // Proposer-driven loss recovery: re-broadcast own proposals that no
  // decision has ordered after a full D — a decider that missed the first
  // transmission would otherwise hold back this proposer's later FIFO
  // traffic for a grace period.
  if (in_group()) {
    // Re-stamp before re-broadcasting: deciders only order proposals whose
    // timestamp is fresh, so a live proposer must keep renewing its
    // unordered ones. (A proposal whose ordering this proposer has already
    // seen is bound, never re-stamped, and thus ages out everywhere else —
    // which is what makes re-ordering after a purge impossible.)
    std::vector<const bcast::Proposal*> stale;
    for (const bcast::Proposal* p :
         delivery_.stale_unordered_from(self(), *now, cfg_.big_d)) {
      delivery_.restamp_unordered(p->id, *now);
      TW_DEBUG("p" << self() << " rebroadcasts stale " << p->id.proposer
                   << "." << p->id.seq);
      stale.push_back(p);
    }
    ship_proposals(kNoProcess, stale);
  }
  // Decision-progress watchdog: join/reconfiguration traffic from a
  // non-member keeps the FD's alive surveillance satisfied, but only
  // decisions carry the service forward. If no fresh decision has arrived
  // for two cycles while we sit in failure-free, the decider role is lost
  // in a way the per-message FD cannot see — raise the suspicion ourselves.
  if (state_ == GcState::failure_free && in_group() && !i_am_decider_ &&
      round_.last_round() >= 0 &&
      *now - round_.last_round() > 2 * slots_.cycle_len()) {
    const ProcessId e = expected_decider_ != kNoProcess
                            ? expected_decider_
                            : group_.successor_of(self());
    fd_.expect(e, round_.last_round(), *now);
    on_fd_timeout();
    return;
  }
  // Join fallback: an election that cannot complete (e.g. the surviving
  // members are no longer a majority of the team) would stall forever under
  // the paper's failure assumption; fall back to join so the team can
  // re-form once enough processes are back. The watchdog covers every
  // non-stable state, not just n-failure — a wedged wrong-suspicion or
  // 1-failure state is just as dead.
  if (!in_single_failure() && state_ != GcState::n_failure) {
    n_failure_since_ = -1;
  } else {
    if (n_failure_since_ < 0) n_failure_since_ = *now;
    if (*now - n_failure_since_ > kJoinFallbackCycles * slots_.cycle_len()) {
      TW_INFO("p" << self()
                  << ": election stalled; falling back to join state");
      enter_join();
      installed_ = false;
      exit_decisions_needed_.clear();
      suspect_ = kNoProcess;
      stand_down();
      n_failure_since_ = -1;
    }
  }
}

// ---------------------------------------------------------------------------
// Datagram dispatch
// ---------------------------------------------------------------------------

void TimewheelNode::on_datagram(ProcessId from,
                                std::span<const std::byte> data) {
  if (data.empty()) return;
  util::ByteReader r(data);
  net::MsgKind kind;
  try {
    kind = static_cast<net::MsgKind>(r.u8());
    if (csync::ClockSync::handles(kind)) {
      clock_.on_datagram(from, kind, r);
      return;
    }
    switch (kind) {
      case net::MsgKind::decision: {
        bcast::Decision d = bcast::Decision::decode(r);
        check_in_team({d.decider}, {d.group, d.alive, d.joiners});
        handle_decision(from, std::move(d));
        break;
      }
      case net::MsgKind::proposal: {
        const bcast::Proposal p = bcast::decode_proposal(r);
        handle_proposals(from, {&p, 1});
        break;
      }
      case net::MsgKind::proposal_batch:
        handle_proposals(from, bcast::decode_proposal_batch(r));
        break;
      case net::MsgKind::no_decision: {
        NoDecision nd = NoDecision::decode(r);
        check_in_team({nd.suspect}, {nd.alive});
        handle_no_decision(from, std::move(nd));
        break;
      }
      case net::MsgKind::join: {
        Join j = Join::decode(r);
        check_in_team({}, {j.join_list});
        handle_join(from, std::move(j));
        break;
      }
      case net::MsgKind::reconfiguration: {
        Reconfiguration rc = Reconfiguration::decode(r);
        check_in_team({}, {rc.recon_list, rc.last_group, rc.alive});
        handle_reconfiguration(from, std::move(rc));
        break;
      }
      case net::MsgKind::state_transfer:
        rebaseline_.handle_transfer(from, StateTransfer::decode(r));
        break;
      case net::MsgKind::state_request:
        rebaseline_.handle_request(from, std::nullopt);
        break;
      case net::MsgKind::rejoin_request:
        rebaseline_.handle_request(from, RejoinRequest::decode(r).send_ts);
        break;
      case net::MsgKind::retransmit_request:
        handle_retransmit_request(from, bcast::RetransmitRequest::decode(r));
        break;
      case net::MsgKind::decision_request:
        handle_decision_request(from, r.i64());
        break;
      default:
        break;  // not ours (application traffic on a shared socket)
    }
  } catch (const util::DecodeError& e) {
    TW_WARN("p" << self() << ": dropping malformed datagram from " << from
                << ": " << e.what());
  }
}

void TimewheelNode::check_in_team(
    std::initializer_list<ProcessId> ids,
    std::initializer_list<util::ProcessSet> sets) const {
  const util::ProcessSet team =
      util::ProcessSet::full(static_cast<ProcessId>(n_));
  for (const ProcessId p : ids)
    if (!team.contains(p))
      throw util::DecodeError("process id outside the team");
  for (const util::ProcessSet& s : sets)
    if (!s.subset_of(team))
      throw util::DecodeError("process set outside the team");
}

// ---------------------------------------------------------------------------
// Failure-detector surveillance
// ---------------------------------------------------------------------------

ProcessId TimewheelNode::succ_active(ProcessId p) const {
  util::ProcessSet ring = group_;
  if (suspect_ != kNoProcess && ring.size() > 1) ring.erase(suspect_);
  return ring.successor_of(p);
}

ProcessId TimewheelNode::pred_active(ProcessId p) const {
  util::ProcessSet ring = group_;
  if (suspect_ != kNoProcess && ring.size() > 1) ring.erase(suspect_);
  return ring.predecessor_of(p);
}

void TimewheelNode::expect_next(ProcessId sender, sim::ClockTime base_ts) {
  if (sender == kNoProcess ||
      (sender == self() && (state_ == GcState::failure_free ||
                            state_ == GcState::join))) {
    fd_.clear_expectation();
    cancel_timer(fd_timer_);
    return;
  }
  if (sender == self()) {
    // The election ring wrapped back to us without resolving (can happen
    // when only two members are live): poison-pill expectation — nobody
    // can satisfy it, so the 2D timeout escalates to the multiple-failure
    // election.
    fd_.expect(self(), base_ts, base_ts + cfg_.fd_timeout());
    arm_sync_timer(fd_timer_, base_ts + cfg_.fd_timeout(), [this] {
      const auto t = sync_now();
      if (t && in_single_failure()) enter_n_failure(*t);
    });
    return;
  }
  // Never regress the surveillance: a control message that arrived out of
  // order (the ring's messages take independent paths) must not rewind the
  // expectation to an already-satisfied sender.
  if (fd_.expecting() && base_ts < fd_.base_ts()) return;
  // The surveillance timeout is the policy's call (fixed 2D or adaptive),
  // clamped so it can never exceed the paper's bound nor undercut the
  // envelope a live sender needs.
  const sim::ClockTime deadline =
      base_ts + fd_.surveillance_timeout(sender, cfg_.fd_floor(clock_.epsilon()),
                                         cfg_.fd_timeout());
  fd_.expect(sender, base_ts, deadline);
  // Decision pull, the timer's first stage: a live decider's decision is
  // here by base + decision delay + δ + σ. If nothing from the expected
  // decider is, both copies of its decision may have been lost, so ask it
  // once for a copy rather than suspect it at the deadline. The copy still
  // crosses the round gate, whose lateness rule drops a decision older
  // than δ + 2(ε + σ): a pull later than base + 2(ε + σ) could not be
  // answered in time, and a pull at or past the deadline is moot. The
  // deadline itself stays where it is, so a crashed decider is suspected
  // exactly when it was without the pull.
  const sim::ClockTime pull_at = base_ts + cfg_.effective_decision_delay() +
                                 cfg_.delta + cfg_.sigma;
  if (state_ == GcState::failure_free && sender == expected_decider_ &&
      pull_at <= base_ts + 2 * (clock_.epsilon() + cfg_.sigma) &&
      pull_at < deadline) {
    // Every change of expectation, state or expected decider re-arms or
    // cancels this timer, so `sender` is still the one being watched.
    arm_sync_timer(fd_timer_, pull_at, [this, sender] {
      if (!fd_.expecting()) return;
      if (!fd_.expectation_met()) {
        ++stats_.decision_pulls;
        util::ByteWriter w;
        w.u8(net::kind_byte(net::MsgKind::decision_request));
        w.i64(round_.last_round());
        ep_.send(sender, std::move(w).take());
      }
      arm_fd_deadline();
    });
    return;
  }
  arm_fd_deadline();
}

void TimewheelNode::arm_fd_deadline() {
  arm_sync_timer(fd_timer_, fd_.deadline(), [this] {
    if (!fd_.expecting()) return;
    if (fd_.expectation_met()) {
      // The expected control message did arrive (possibly overtaken by
      // later ring traffic); advance the surveillance to its successor.
      const ProcessId e = fd_.expected_sender();
      const sim::ClockTime ts = fd_.last_ts_from(e);
      fd_.clear_expectation();
      expect_next(succ_active(e), ts);
      return;
    }
    on_fd_timeout();
  });
}

void TimewheelNode::on_fd_timeout() {
  const auto now_opt = sync_now();
  if (!now_opt) return;
  const sim::ClockTime now = *now_opt;
  const ProcessId e = fd_.expected_sender();
  fd_.note_expectation_timeout();
  fd_.clear_expectation();
  ++stats_.suspicions_raised;
  ep_.trace(TraceKind::suspicion, e);
  if (auto* rec = ep_.obs()) rec->emit(obs::EvKind::suspect, 0, e);

  if (state_ == GcState::failure_free) {
    // Single failure suspected: the successor of the suspect opens the
    // no-decision ring; everyone else waits for it (§4.2).
    suspect_ = e;
    if (self() == group_.successor_of(e)) {
      // Two-member group: the ND ring is just us, so the election closes at
      // once — but the ND still gives a live suspect the chance to resend
      // its last control message.
      if (self() == group_.predecessor_of(e)) send_no_decision(now);
      pass_no_decision(now);
    } else {
      set_state(GcState::one_failure_receive);
      expect_next(group_.successor_of(e), now);
      // An ND that raced ahead of our own timeout may already be here (it
      // must be from THIS episode, i.e. newer than the freshest decision).
      const auto& info = nd_infos_[pred_active(self())];
      if (info.ts > round_.last_round() && round_.fresh(info.ts, now) &&
          info.suspect == suspect_)
        pass_no_decision(now);
    }
  } else if (in_single_failure()) {
    // A second failure within the episode: multiple-failure election.
    enter_n_failure(now);
  }
}

// ---------------------------------------------------------------------------
// Decision handling (also the heart of decider rotation)
// ---------------------------------------------------------------------------

void TimewheelNode::handle_decision(ProcessId from, bcast::Decision d) {
  const auto now_opt = sync_now();
  if (!now_opt) return;
  const sim::ClockTime now = *now_opt;
  // Every staleness / round / epoch / lateness fence lives in the gate
  // (gms/round.hpp); what passes is from the current round structure.
  if (round_.admit({RoundMsg::decision, from, d.send_ts, d.gid, &d.alive},
                   now) != RoundDrop::accepted)
    return;
  const bool from_suspect = suspect_ != kNoProcess && from == suspect_;

  round_.advance_round(d.send_ts);
  last_decision_no_ = d.decision_no;

  // Election messages may be used at most once (§4.2): any no-decision or
  // reconfiguration older than the freshest decision belongs to a resolved
  // episode and must never feed a later election.
  for (auto& info : nd_infos_)
    if (info.ts >= 0 && info.ts <= d.send_ts) info = ElectionInfo{};
  for (auto& info : recon_infos_)
    if (info.valid && info.msg.send_ts <= d.send_ts) info = ReconInfo{};

  const bool member = d.group.contains(self());

  // Zombie guard: a process that crashed and recovered BEFORE the group
  // detected the crash is still listed as a member, but its replica state
  // is gone (it is recovered-dirty). In join state we therefore accept
  // membership only when this decision integrates us (state transfer
  // coming), or when the group was genuinely formed by the join protocol
  // we participated in (every member sent join messages within the last
  // cycles). Otherwise we stay in the join state and actively solicit a
  // state transfer from a clean member (solicit_rejoin) — the join
  // protocol itself never re-integrates a process the group never
  // excluded. Once rehabilitated the guard no longer applies and the next
  // decision admits us normally; a non-dirty join-state process (e.g.
  // after a desync) kept its replica state and needs no re-baselining.
  if (state_ == GcState::join && recovered_dirty() && member &&
      !d.joiners.contains(self())) {
    bool fresh_formation = false;
    for (const auto& e : d.oal.entries()) {
      if (e.kind == bcast::OalEntry::Kind::membership && e.gid == d.gid &&
          e.members == d.group &&
          now - e.ts <= 2 * slots_.cycle_len()) {
        fresh_formation = true;
        break;
      }
    }
    if (fresh_formation) {
      for (ProcessId m : d.group) {
        if (m == self() || m == d.decider) continue;
        if (join_infos_[m].ts < 0 ||
            now - join_infos_[m].ts > 2 * slots_.cycle_len()) {
          fresh_formation = false;
          break;
        }
      }
    }
    if (!fresh_formation) {
      // Remember the freshest group for the continuity rule and adopt the
      // oal knowledge (we already advanced the round cursor above — a
      // node whose timestamp is fresh but whose ordinal knowledge is stale
      // would defeat the join protocol's knowledge rule and could later
      // extend an outdated branch). We still do not JOIN the group.
      learn_group(d, now);
      return;
    }
  }

  // Membership bookkeeping.
  if (!member) {
    handle_exclusion(d, from, now);
    return;
  }
  if (!installed_ || d.gid != gid_)
    install_view(d.gid, d.group, now, d.joiners.contains(self()));

  // Exclusion-wait bookkeeping (we may re-enter while waiting).
  exit_decisions_needed_.clear();

  // Broadcast bookkeeping.
  const auto adopt = delivery_.adopt_oal(d.oal, d.gid);
  // The sender of the winning decision is on the surviving branch by
  // definition — solicit the fresh baseline from it directly rather than
  // walking the ring past members that may be re-baselining themselves.
  if (adopt.divergent > 0)
    rebaseline_.diverged(adopt, now, from, /*joined=*/true);
  run_delivery(now);
  request_missing(from);

  // FSM transitions on a fresh decision (Figure 2: D edges). A decision
  // arriving from the CURRENT SUSPECT (its original transmission was late,
  // or it resent it in response to a no-decision) means we no longer
  // concur with the suspicion: it leads to wrong-suspicion, and it never
  // confers the decider role — the no-decision ring we already fed may be
  // electing a decider, and a second one must not arise (§4.2).
  if (from_suspect) {
    // Wrong-suspicion stays; other states are unaffected.
    if (state_ == GcState::one_failure_receive ||
        state_ == GcState::one_failure_send)
      set_state(GcState::wrong_suspicion);
    return;
  }

  // Every other state takes the D edge to failure-free.
  if (state_ == GcState::desync) return;  // defensive: no sync_now there
  if (state_ == GcState::join) ep_.trace(TraceKind::joined, d.gid);
  if (state_ == GcState::n_failure) {
    n_failure_since_ = -1;
    sent_nd_this_episode_ = false;
  }
  suspect_ = kNoProcess;
  set_state(GcState::failure_free);

  // Decider rotation: "the next group member in the cyclical order assumes
  // the decider role on receiving this decision message" (§2).
  expected_decider_ = succ_active(d.decider);
  if (expected_decider_ == self()) {
    assume_decider_role(now);
  } else {
    i_am_decider_ = false;
    cancel_timer(decision_timer_);
    expect_next(expected_decider_, d.send_ts);
  }
}

void TimewheelNode::learn_group(const bcast::Decision& d, sim::ClockTime now) {
  gid_ = d.gid;
  group_ = d.group;
  installed_ = true;
  // The oal knowledge too (ordinal bindings, ack state): a process that
  // later joins or wins an election must never re-order a proposal the
  // group already bound. Deliveries this triggers are the §3-sanctioned
  // divergence of a non-member; if the adopted window says deliveries we
  // ALREADY handed to the application lost (divergent), the integration
  // MUST re-baseline us — remember the fork, because the group will
  // otherwise admit us as a clean member, no state transfer coming, and
  // the two branches would both survive into the final histories (the
  // lineage-conflict class torture --explore flushed out).
  const auto adopt = delivery_.adopt_oal(d.oal, d.gid);
  if (adopt.divergent > 0)
    rebaseline_.diverged(adopt, now, kNoProcess, /*joined=*/false);
  run_delivery(now);
}

void TimewheelNode::handle_exclusion(const bcast::Decision& d, ProcessId from,
                                     sim::ClockTime now) {
  // Keep knowledge of the freshest group even though we are not in it
  // (needed by reconfiguration condition (4) and by the join protocol).
  ++stats_.exclusions;
  ep_.trace(TraceKind::excluded, d.gid, 0, d.group);
  learn_group(d, now);

  if (state_ == GcState::n_failure) {
    // Delayed switch to join: "it waits until it has received a decision
    // message from all new group members" so it can still participate in a
    // quick follow-up election (§4.2).
    if (exit_decisions_needed_.empty()) exit_decisions_needed_ = d.group;
    exit_decisions_needed_.erase(from);
    exit_decisions_needed_.erase(d.decider);
    if (exit_decisions_needed_.empty()) {
      n_failure_since_ = -1;
      enter_join();
    }
    return;
  }
  if (state_ != GcState::join) {
    suspect_ = kNoProcess;
    stand_down();
    enter_join();
  }
}

void TimewheelNode::assume_decider_role(sim::ClockTime now) {
  if (i_am_decider_) return;
  i_am_decider_ = true;
  fd_.clear_expectation();
  cancel_timer(fd_timer_);
  ep_.trace(TraceKind::decider_assumed, gid_, last_decision_no_ + 1);
  // Proposals that reached us while a predecessor held the role are just
  // as fresh as ones arriving from now on: both get the paced deadline. So
  // does an ack a strong or strict update waits for: the ack bits travel
  // only on decisions, so an idle-paced one would hold its delivery back.
  schedule_decision(!orderable_proposals(now).empty() ||
                    !delivery_.missing().empty() ||
                    delivery_.owes_quorum_ack(group_, now));
}

void TimewheelNode::schedule_decision(bool prompt) {
  const auto now = sync_now();
  if (!now) return;
  const sim::ClockTime due =
      prompt ? std::max(*now, round_.last_round() + kProposalBatchDelay)
             : *now + cfg_.effective_decision_delay();
  if (decision_timer_ != net::kNoTimer && decision_due_ <= due) return;
  decision_due_ = due;
  arm_sync_timer(decision_timer_, due, [this] {
    const auto t = sync_now();
    if (t) send_decision(*t);
  });
}

std::vector<const bcast::Proposal*> TimewheelNode::orderable_proposals(
    sim::ClockTime now) const {
  return delivery_.unordered_proposals(group_, now,
                                       /*gap_grace=*/slots_.cycle_len(),
                                       /*max_age=*/slots_.cycle_len());
}

void TimewheelNode::order_pending_proposals(bcast::Oal& oal,
                                            sim::ClockTime now) {
  for (const bcast::Proposal* p : orderable_proposals(now)) {
    if (oal.contains(p->id)) continue;
    TW_DEBUG("p" << self() << " orders " << p->id.proposer << "."
                 << p->id.seq << " at " << oal.next_ordinal());
    // Seed the acknowledgement set with the decider alone. An ack asserts
    // "holds the update AND has seen its ordinal binding": crediting the
    // proposer here would let the entry become stable (and be purged)
    // before the proposer ever learned the binding — it would then
    // re-order its own proposal at a second ordinal.
    util::ProcessSet initial;
    initial.insert(self());
    oal.append_update(*p, initial);
  }
}

util::ProcessSet TimewheelNode::try_integrate_joiners(sim::ClockTime now) {
  util::ProcessSet added;
  const util::ProcessSet alive = fd_.alive_list(now);
  for (ProcessId j : alive.minus(group_)) {
    // "Let the current member q be the successor of p in the next group g
    // ... When q becomes the decider and if all group members have included
    // p in their alive-list, q creates a new group g that includes p."
    util::ProcessSet next_group = group_;
    next_group.insert(j);
    if (next_group.successor_of(j) != self()) continue;
    bool seen_by_all = true;
    for (ProcessId m : group_) {
      if (m == self()) continue;
      if (!fd_.peer_alive_list(m).contains(j) ||
          fd_.peer_alive_age(m, now) > slots_.cycle_len()) {
        seen_by_all = false;
        break;
      }
    }
    if (seen_by_all) added.insert(j);
  }
  return added;
}

void TimewheelNode::send_decision(sim::ClockTime now) {
  if (!i_am_decider_ || !in_group()) return;
  // A decider's own half-filled batch must reach the team no later than
  // the decision that orders it, or members would see oal entries for
  // proposals they hold no payload for and turn to retransmits.
  flush_proposal_batch();

  bcast::Oal oal = delivery_.view(now);

  // Integrate joiners (a membership descriptor plus a state transfer).
  const util::ProcessSet joiners = try_integrate_joiners(now);
  if (!joiners.empty()) {
    group_ = group_.union_with(joiners);
    gid_ = next_gid(now);
    oal.append_membership(gid_, group_, now);
    install_view(gid_, group_, now);
    ep_.trace(TraceKind::group_created, gid_, 0, group_);
  }

  // New orderings belong to the current epoch: stamp them with the
  // installed gid so any member whose history forks from here can detect
  // the cross-epoch rebind instead of silently merging.
  oal.set_epoch(gid_);
  order_pending_proposals(oal, now);
  oal.purge_stable(group_, now, kDeliverDelay, slots_.cycle_len());
  emit_decision(std::move(oal), joiners, now);
}

void TimewheelNode::emit_decision(bcast::Oal oal, util::ProcessSet joiners,
                                  sim::ClockTime now) {
  bcast::Decision d;
  d.gid = gid_;
  d.group = group_;
  d.decision_no = ++last_decision_no_;
  d.decider = self();
  d.send_ts = std::max(now, round_.last_round() + 1);
  d.alive = fd_.alive_list(now);
  d.joiners = joiners;
  d.oal = std::move(oal);

  send_ring(d.encode());
  last_decision_sent_ts_ = d.send_ts;
  ++stats_.decisions_sent;
  ep_.trace(TraceKind::decision_sent, gid_, d.decision_no);

  // Self-adoption: the decider is also a member.
  round_.advance_round(d.send_ts);
  delivery_.adopt_oal(d.oal, gid_);
  run_delivery(now);

  // Relinquish the role; survey the successor.
  i_am_decider_ = false;
  expected_decider_ = group_.successor_of(self());
  expect_next(expected_decider_, d.send_ts);

  // State transfer to freshly integrated joiners (paper §4.2).
  rebaseline_.donate(joiners, d.send_ts);
}

// ---------------------------------------------------------------------------
// Proposals
// ---------------------------------------------------------------------------

ProposeResult TimewheelNode::try_propose(std::vector<std::byte> payload,
                                         bcast::Order order,
                                         bcast::Atomicity atomicity) {
  if (cfg_.max_pending > 0) {
    update_overload();
    if (overload_ == OverloadState::shedding) {
      // Refusal consumes no sequence number and touches no durable state:
      // the proposal never existed as far as FIFO gap detection goes.
      ++stats_.proposals_refused;
      ProposeResult r;
      // Retry hint: about the time a full pipeline takes to drain (one
      // cycle), jittered per process/attempt so a refused team doesn't
      // come back in lockstep.
      r.retry_after_us = static_cast<std::uint64_t>(
          slots_.cycle_len() +
          retry_jitter(static_cast<int>(stats_.proposals_refused)));
      return r;
    }
  }
  // Durable continuity: make sure the reservation watermark covers this id
  // BEFORE the proposal exists anywhere (chunked, so only every 64th
  // proposal pays a log append).
  if (store_) store_->reserve_proposal_seq(next_seq_);
  bcast::Proposal p;
  p.id = bcast::ProposalId{self(), next_seq_++};
  p.order = order;
  p.atomicity = atomicity;
  p.fifo_floor = seq_floor_;
  p.payload = std::move(payload);

  const auto now = sync_now();
  if (now && in_group()) {
    send_own(p, *now);
    schedule_batch_flush();
    run_delivery(*now);
    if (i_am_decider_) schedule_decision(/*prompt=*/true);
  } else {
    pending_proposals_.push_back(std::move(p));
  }
  ++own_inflight_;
  if (own_inflight_ > stats_.occupancy_peak)
    stats_.occupancy_peak = own_inflight_;
  update_overload();
  return ProposeResult{true, static_cast<ProposalSeq>(next_seq_ - 1), 0};
}

void TimewheelNode::send_own(bcast::Proposal& p, sim::ClockTime now) {
  p.hdo = delivery_.highest_known_ordinal();
  p.send_ts = now;
  delivery_.note_proposal(p, now);
  ++stats_.proposals_sent;
  ep_.trace(TraceKind::proposal_sent, p.id.seq);
  batch_queue_.push_back(p.id);
}

void TimewheelNode::flush_pending_proposals(sim::ClockTime now) {
  for (; !pending_proposals_.empty(); pending_proposals_.pop_front())
    send_own(pending_proposals_.front(), now);
  flush_proposal_batch();
}

void TimewheelNode::schedule_batch_flush() {
  if (static_cast<int>(batch_queue_.size()) >= cfg_.max_batch) {
    flush_proposal_batch();
    return;
  }
  if (batch_timer_ != net::kNoTimer) return;
  // Armed for now at the earliest, not flushed here: proposals made in the
  // same callback still share the datagram.
  const sim::ClockTime due =
      std::max(ep_.hw_now(), last_batch_sent_ + kBatchFlushDelay);
  batch_timer_ = ep_.set_timer_at_hw(due, [this] {
    batch_timer_ = net::kNoTimer;
    flush_proposal_batch();
  });
}

void TimewheelNode::flush_proposal_batch() {
  cancel_timer(batch_timer_);
  if (batch_queue_.empty()) return;
  std::vector<const bcast::Proposal*> batch;
  batch.reserve(batch_queue_.size());
  const auto now = sync_now();
  for (const auto& id : batch_queue_) {
    // The send timestamp is the moment the proposal leaves, not the moment
    // it was queued: a member missing it asks for it δ after this stamp.
    if (now) delivery_.restamp_unordered(id, *now);
    // A queued id can be gone if a view change purged the engine between
    // queueing and flushing; the proposal is then moot.
    if (const bcast::Proposal* p = delivery_.get(id)) batch.push_back(p);
  }
  batch_queue_.clear();
  if (!batch.empty()) last_batch_sent_ = ep_.hw_now();
  ship_proposals(kNoProcess, batch);
}

void TimewheelNode::ship_proposals(
    ProcessId to, const std::vector<const bcast::Proposal*>& ps) {
  const auto chunk =
      static_cast<std::size_t>(cfg_.max_batch > 1 ? cfg_.max_batch : 1);
  for (std::size_t i = 0; i < ps.size(); i += chunk) {
    const std::span<const bcast::Proposal* const> part(
        ps.data() + i, std::min(chunk, ps.size() - i));
    if (part.size() > 1) ++stats_.proposal_batches_sent;
    auto bytes = bcast::encode_proposal_batch(part);
    if (to == kNoProcess)
      ep_.broadcast(std::move(bytes));
    else
      ep_.send(to, std::move(bytes));
  }
}

void TimewheelNode::handle_proposals(ProcessId from,
                                     std::span<const bcast::Proposal> ps) {
  const auto now_opt = sync_now();
  if (!now_opt) return;
  bool fresh = false;
  for (const auto& p : ps) {
    if (p.id.proposer != from && delivery_.have(p.id))
      continue;  // relayed retransmission of something we hold
    delivery_.note_proposal(p, *now_opt);
    fresh = true;
  }
  if (!fresh) return;
  // One delivery pass and (if decider) one decision schedule for the whole
  // batch — this is where the receive-side amortization happens.
  run_delivery(*now_opt);
  if (i_am_decider_) schedule_decision(/*prompt=*/true);
}

void TimewheelNode::handle_retransmit_request(ProcessId from,
                                              bcast::RetransmitRequest rq) {
  std::vector<const bcast::Proposal*> have;
  have.reserve(rq.wanted.size());
  for (const auto& pid : rq.wanted)
    if (const bcast::Proposal* p = delivery_.get(pid)) have.push_back(p);
  ship_proposals(from, have);
}

void TimewheelNode::handle_decision_request(ProcessId from,
                                            sim::ClockTime round) {
  // Only a decision the requester can still adopt answers a pull: one
  // fresher than the requester's round, which names the decision it adopted
  // last. A control message of any other kind (a no-decision, join or
  // reconfiguration sent since) means we left the rotation, and it reached
  // the team by broadcast already. A decision from the previous lap — ours
  // while we hold the role, or while we wait for a predecessor's decision
  // that we lost ourselves — is one the requester already holds.
  if (from == self() || last_control_sent_.empty() ||
      last_control_sent_.front() !=
          std::byte{net::kind_byte(net::MsgKind::decision)} ||
      last_decision_sent_ts_ <= round)
    return;
  ++stats_.pull_replies;
  send_last_control(from);
}

void TimewheelNode::request_missing(ProcessId hint) {
  if (hint != kNoProcess) retransmit_hint_ = hint;
  const auto now = sync_now();
  if (!now) return;
  const auto missing = delivery_.missing();
  // Forget the repairs of payloads that arrived or left the window.
  std::erase_if(repairs_, [&missing](const auto& r) {
    return std::none_of(missing.begin(), missing.end(),
                        [&r](const bcast::OalEntry* e) {
                          return e->pid == r.first;
                        });
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
    sim::ClockTime due = it != repairs_.end() ? it->second.due
                                              : e->ts + cfg_.delta;
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
      due = r.due = *now + ((2 * cfg_.delta) << shift) +
                    retry_jitter(r.asks) % (cfg_.delta + 1);
    }
    next = std::min(next, due);
  }
  if (!rq.wanted.empty()) {
    ++stats_.retransmit_requests_sent;
    if (backoff) ++stats_.repair_backoffs;
    std::sort(rq.wanted.begin(), rq.wanted.end());
    ProcessId target = retransmit_hint_;
    if (target == kNoProcess || target == self() || !group_.contains(target))
      target = group_.successor_of(self());
    if (target != kNoProcess && target != self())
      ep_.send(target, rq.encode());
    // Re-asks go to the successor unless a decision names a new sender.
    retransmit_hint_ = kNoProcess;
  }

  // One timer, armed for the earliest due payload.
  if (next == sim::kNever) {
    cancel_timer(retransmit_timer_);
    return;
  }
  if (retransmit_timer_ != net::kNoTimer && repair_due_ == next) return;
  repair_due_ = next;
  arm_sync_timer(retransmit_timer_, next,
                 [this] { request_missing(kNoProcess); });
}

// ---------------------------------------------------------------------------
// Single-failure election (no-decision ring)
// ---------------------------------------------------------------------------

void TimewheelNode::send_no_decision(sim::ClockTime now) {
  NoDecision nd;
  nd.suspect = suspect_;
  nd.gid = gid_;
  nd.send_ts = std::max(now, fd_.last_ts_from(self()) + 1);
  nd.last_decision_ts = round_.last_round();
  nd.alive = fd_.alive_list(now);
  nd.view = delivery_.view(now);
  nd.dpd = delivery_.dpd();

  // Paper §4.3: mark the suspect's unreceived proposals undeliverable for
  // one cycle.
  delivery_.mark_suspect_sender(suspect_, now + slots_.cycle_len());
  sent_nd_this_episode_ = true;

  ++stats_.no_decisions_sent;
  nd_infos_[self()] =
      ElectionInfo{nd.view, nd.dpd, nd.send_ts, nd.suspect};
  send_ring(nd.encode());
}

void TimewheelNode::broadcast_control(std::vector<std::byte> bytes) {
  last_control_sent_ = bytes;
  ep_.broadcast(std::move(bytes));
}

void TimewheelNode::send_ring(std::vector<std::byte> bytes) {
  broadcast_control(std::move(bytes));
  // Handoff copy: our ring successor is the one member whose failure
  // detector reads a lost decision as a crashed decider, or a lost
  // no-decision as a second failure, so one lost datagram would otherwise
  // start an election or escalate one to the multiple-failure election.
  // The round gate drops whichever of the two arrives second as a
  // duplicate.
  const ProcessId successor = succ_active(self());
  if (successor != self()) send_last_control(successor);
}

void TimewheelNode::send_last_control(ProcessId to) {
  // A pooled buffer, so the copy costs no heap allocation once the pool
  // is warm.
  util::ByteWriter copy(util::BufferPool::local());
  copy.raw(last_control_sent_);
  ep_.send(to, std::move(copy).take());
}

void TimewheelNode::pass_no_decision(sim::ClockTime now) {
  if (self() == group_.predecessor_of(suspect_)) {
    close_single_failure_election(now);
    return;
  }
  send_no_decision(now);
  set_state(GcState::one_failure_send);
  expect_next(succ_active(self()), now);
}

void TimewheelNode::resend_last_control(sim::ClockTime now) {
  if (last_control_sent_.empty()) return;
  // The paper resends after EVERY no-decision receipt; under duplication
  // or a suspicion storm that turns one lost control message into n
  // broadcast bursts per ring lap. Budget: the first resend of an episode
  // is immediate (the paper's behavior in the healthy case — ring hops
  // arrive at slot pace, far above the minimum gap), later ones must be
  // spaced by an exponentially growing, jittered minimum gap.
  if (suspect_resends_ > 0) {
    const int shift = std::min(suspect_resends_ - 1, 3);
    const sim::Duration gap =
        (cfg_.delta << shift) +
        retry_jitter(suspect_resends_) % (cfg_.delta / 2 + 1);
    if (last_suspect_resend_ >= 0 && now - last_suspect_resend_ < gap) {
      ++stats_.resends_suppressed;
      return;
    }
  }
  last_suspect_resend_ = now;
  ++suspect_resends_;
  ep_.broadcast(last_control_sent_);
}

void TimewheelNode::handle_no_decision(ProcessId from, NoDecision nd) {
  const auto now_opt = sync_now();
  if (!now_opt) return;
  const sim::ClockTime now = *now_opt;
  if (round_.admit({RoundMsg::no_decision, from, nd.send_ts, 0, &nd.alive},
                   now) != RoundDrop::accepted)
    return;

  nd_infos_[from] = ElectionInfo{nd.view, nd.dpd, nd.send_ts, nd.suspect};

  if (!in_group() || !group_.contains(from)) return;
  if (in_single_failure() && nd.suspect != suspect_) {
    enter_n_failure(now);  // conflicting suspicions: multiple failures
    return;
  }

  switch (state_) {
    case GcState::failure_free: {
      if (from != expected_decider_) return;  // not part of our surveillance
      suspect_ = nd.suspect;
      if (round_.last_round() > nd.last_decision_ts) {
        // We hold a decision the suspecter missed: we do NOT concur —
        // wrong suspicion (§4.2). Only this branch may lead to the
        // become-decider-from-current-knowledge path; a member whose
        // knowledge is no fresher than the suspecter's must never take the
        // decider role from stale state.
        set_state(GcState::wrong_suspicion);
        if (suspect_ == self()) {
          // "If p itself is suspected, it resends its last control message
          // after the receipt of each no-decision message" — rate-limited
          // (set_state above reset the episode's budget).
          resend_last_control(now);
        }
        expect_next(succ_active(from), nd.send_ts);
        // The ND ring may already have reached our predecessor.
        if (from == pred_active(self()) && suspect_ != self())
          become_decider_wrong_suspicion(now);
      } else {
        // We concur (our FD just had not fired yet): join the no-decision
        // ring exactly as if our own timeout had raised the suspicion. A
        // close from failure-free passes through one-failure-receive.
        if (from == pred_active(self())) {
          if (self() == group_.predecessor_of(suspect_))
            set_state(GcState::one_failure_receive);
          pass_no_decision(now);
        } else {
          set_state(GcState::one_failure_receive);
          expect_next(succ_active(from), nd.send_ts);
        }
      }
      break;
    }
    case GcState::wrong_suspicion:
      if (suspect_ == self()) resend_last_control(now);
      if (from == pred_active(self()) && suspect_ != self())
        become_decider_wrong_suspicion(now);
      else
        expect_next(succ_active(from), nd.send_ts);
      break;
    case GcState::one_failure_receive:
      if (from == pred_active(self()))
        pass_no_decision(now);
      else
        expect_next(succ_active(from), nd.send_ts);
      break;
    case GcState::one_failure_send:
      // Stay; follow the ring with the FD.
      expect_next(succ_active(from), nd.send_ts);
      break;
    default:
      break;  // join / n-failure / desync ignore NDs
  }
}

void TimewheelNode::become_decider_wrong_suspicion(sim::ClockTime now) {
  // "p will create a decision message using the information it has received
  // from q's last decision" — the group is unchanged; the suspicion was a
  // false alarm and service continues uninterrupted.
  suspect_ = kNoProcess;
  set_state(GcState::failure_free);
  i_am_decider_ = true;
  ep_.trace(TraceKind::decider_assumed, gid_, last_decision_no_ + 1);
  send_decision(now);
}

void TimewheelNode::close_single_failure_election(sim::ClockTime now) {
  const int majority = n_ / 2 + 1;
  // Reaching here already proves ring-wide participation: the no-decision
  // ring is sequential (each member forwards only after hearing its own
  // ring predecessor name the same suspect), so the suspect's predecessor
  // closing on its predecessor's ND transitively certifies that every
  // member of group_ minus the suspect spoke this episode. A healed
  // partition's stale minority cannot complete the ring — members that
  // installed a newer group ignore old-group no-decisions, so the chain
  // stalls at the first such member and the FD escalates to the
  // multiple-failure election instead.
  if (group_.size() - 1 >= majority) {
    // Remove the suspect and take the decider role.
    util::ProcessSet members = group_;
    members.erase(suspect_);
    std::vector<bcast::ProposalId> dpds;
    for (ProcessId m : members) {
      const auto& info = nd_infos_[m];
      if (round_.fresh(info.ts, now))
        dpds.insert(dpds.end(), info.dpd.begin(), info.dpd.end());
    }
    create_group(members, util::ProcessSet{suspect_}, std::move(dpds), {},
                 now);
  } else {
    // Exactly a majority left: a smaller group is not allowed; run the
    // multiple-failure election, which can re-admit the suspect if it is
    // actually alive (§4.2).
    enter_n_failure(now);
    send_reconfiguration(now, /*abstain=*/false);
  }
}

// ---------------------------------------------------------------------------
// Group creation (single-failure close, reconfiguration win, initial join)
// ---------------------------------------------------------------------------

GroupId TimewheelNode::next_gid(sim::ClockTime now) const {
  // Group ids must be unique across epochs even when no process carries
  // the previous epoch's counter, and unique across CONCURRENT creators:
  // two election paths can legitimately close in the same slot (e.g. a
  // single-failure close racing a healed partition's re-formation), and a
  // shared id with divergent member lists would violate the §3 view
  // agreement even though the later repair machinery reconciles the
  // histories. Take the slot index — monotone in synchronized time — as
  // the high digits and the creator id as the low digits: ids stay
  // strictly increasing per process and can never collide across creators.
  const auto base = std::max(
      gid_ / static_cast<GroupId>(n_) + 1,
      static_cast<GroupId>(now / cfg_.slot_len()));
  return base * static_cast<GroupId>(n_) + static_cast<GroupId>(self());
}

void TimewheelNode::create_group(util::ProcessSet members,
                                 util::ProcessSet departed,
                                 std::vector<bcast::ProposalId> extra_dpds,
                                 util::ProcessSet joiners,
                                 sim::ClockTime now) {
  // Every caller requires a strict majority of a team of n >= 2, so the
  // creator always has a supporter to re-baseline from.
  TW_ASSERT(members.contains(self()) && members.size() >= 2);

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
  bcast::Oal merged = delivery_.view(now);
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
    if (m == self()) continue;
    const auto& nd = nd_infos_[m];
    if (round_.fresh(nd.ts, now)) fold_view(nd.view, m);
    const auto& rc = recon_infos_[m];
    if (rc.valid && round_.fresh(rc.msg.send_ts, now)) {
      fold_view(rc.msg.view, m);
      extra_dpds.insert(extra_dpds.end(), rc.msg.dpd.begin(),
                        rc.msg.dpd.end());
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

  if (gid_ == 0 && repaired.oal.empty() && repaired.oal.base() == 0) {
    // A team forming with no surviving knowledge (initial start, or
    // re-forming after every member's knowledge was lost): seed the ordinal
    // space from the synchronized clock so it cannot collide with a
    // previous epoch's ordinals. Should the clock-seeded base nevertheless
    // overlap a previous epoch's window (a stepped clock), the epoch stamp
    // lets any straggler holding that window quarantine the collision.
    repaired.oal.seed_base(static_cast<Ordinal>(now), new_gid);
  }

  ++stats_.groups_created;
  gid_ = new_gid;
  group_ = members;
  repaired.oal.append_membership(gid_, group_, now);
  ep_.trace(TraceKind::group_created, gid_,
            static_cast<std::uint64_t>(repaired.total_marked()), group_);
  install_view(gid_, group_, now);

  suspect_ = kNoProcess;
  sent_nd_this_episode_ = false;
  n_failure_since_ = -1;
  set_state(GcState::failure_free);

  if (!departed.empty()) delivery_.drop_unordered_from(departed);
  const auto adopt = delivery_.adopt_oal(repaired.oal, gid_);
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
  if (adopt.divergent > 0 || rebaseline_.app_state_suspect())
    rebaseline_.diverged(adopt, now, freshest_donor, /*joined=*/true);

  // Send the first decision of the new group.
  order_pending_proposals(repaired.oal, now);
  emit_decision(std::move(repaired.oal), joiners, now);
}

// ---------------------------------------------------------------------------
// Multiple-failure election (slotted reconfiguration)
// ---------------------------------------------------------------------------

void TimewheelNode::enter_n_failure(sim::ClockTime now) {
  if (state_ == GcState::n_failure) return;
  set_state(GcState::n_failure);
  n_failure_since_ = now;
  // The single-failure suspicion is superseded: a decision from the former
  // suspect that closes this election must take the D edge like any other.
  suspect_ = kNoProcess;
  stand_down();
  my_recon_ts_ = -1;
  my_recon_list_.clear();
  if (sent_nd_this_episode_) {
    // One election per cycle: having already backed a single-failure
    // election, abstain for N-1 slots (§4.2).
    abstain_until_ = now + (n_ - 1) * cfg_.slot_len();
  }
}

void TimewheelNode::send_reconfiguration(sim::ClockTime now, bool abstain) {
  Reconfiguration r;
  r.send_ts = std::max(now, fd_.last_ts_from(self()) + 1);
  if (!abstain) {
    const std::int64_t slot = slots_.slot_index(now);
    r.recon_list = current_recon_list(slot);
    my_recon_ts_ = r.send_ts;
    my_recon_list_ = r.recon_list;
    ++stats_.reconfigurations_sent;
  }
  r.last_decision_ts = round_.last_round();
  r.last_gid = gid_;
  r.last_group = group_;
  r.alive = fd_.alive_list(now);
  r.view = delivery_.view(now);
  r.dpd = delivery_.dpd();
  broadcast_control(r.encode());
}

util::ProcessSet TimewheelNode::current_recon_list(std::int64_t slot) const {
  util::ProcessSet list;
  list.insert(self());
  for (ProcessId q = 0; q < static_cast<ProcessId>(n_); ++q) {
    if (q == self() || !recon_infos_[q].valid) continue;
    const std::int64_t sent_slot =
        slots_.slot_index(std::max<sim::ClockTime>(0,
            recon_infos_[q].msg.send_ts));
    if (slot - sent_slot <= n_ - 1 && sent_slot < slot) list.insert(q);
  }
  return list;
}

void TimewheelNode::reconfiguration_slot_duties(sim::ClockTime now,
                                                std::int64_t slot) {
  if (!exit_decisions_needed_.empty()) return;  // excluded; just wait
  if (abstain_until_ >= 0 && now < abstain_until_) {
    send_reconfiguration(now, /*abstain=*/true);
    return;
  }
  abstain_until_ = -1;

  // Try to create a new group from the reconfiguration messages gathered
  // since our previous (non-abstaining) reconfiguration (§4.2).
  if (my_recon_ts_ >= 0 && installed_ && group_.contains(self())) {
    util::ProcessSet support;
    support.insert(self());
    for (ProcessId q : my_recon_list_) {
      if (q == self()) continue;
      const auto& info = recon_infos_[q];
      if (!info.valid || info.msg.abstaining()) continue;
      if (!slots_.in_last_slot_of(q, info.msg.send_ts, slot)) continue;
      if (!(info.msg.recon_list == my_recon_list_)) continue;
      if (info.msg.last_decision_ts > round_.last_round()) continue;
      if (!group_.contains(q)) continue;  // condition (4)
      support.insert(q);
    }
    if (support.is_majority_of(n_) && support.subset_of(group_)) {
      create_group(support, group_.minus(support), {}, {}, now);
      return;
    }
  }

  send_reconfiguration(now, /*abstain=*/false);
}

void TimewheelNode::handle_reconfiguration(ProcessId from,
                                           Reconfiguration r) {
  const auto now_opt = sync_now();
  if (!now_opt) return;
  const sim::ClockTime now = *now_opt;
  if (round_.admit({RoundMsg::reconfiguration, from, r.send_ts, 0, &r.alive},
                   now) != RoundDrop::accepted)
    return;

  recon_infos_[from] = ReconInfo{std::move(r), true};
  // "if p receives a reconfiguration message from the expected sender, it
  // switches to n-failure state" (§4.2). n-failure accumulates; join and
  // desync ignore.
  if ((state_ == GcState::failure_free || in_single_failure()) &&
      from == fd_.expected_sender())
    enter_n_failure(now);
}

// ---------------------------------------------------------------------------
// Join protocol
// ---------------------------------------------------------------------------

void TimewheelNode::send_join(sim::ClockTime now) {
  Join j;
  j.send_ts = std::max(now, fd_.last_ts_from(self()) + 1);
  j.join_list = current_join_list(slots_.slot_index(now));
  j.last_decision_ts = round_.last_round();
  // gid_ survives a desync (knowledge is stale, not lost) and is zeroed by
  // full_reset, so it is exactly "the freshest group whose history we still
  // carry" — which is what the continuity rule needs to see.
  j.gid = gid_;
  join_infos_[self()] =
      JoinInfo{j.join_list, j.send_ts, round_.last_round(), j.gid};
  broadcast_control(j.encode());
}

util::ProcessSet TimewheelNode::current_join_list(std::int64_t slot) const {
  util::ProcessSet list;
  list.insert(self());
  for (ProcessId q = 0; q < static_cast<ProcessId>(n_); ++q) {
    if (q == self() || join_infos_[q].ts < 0) continue;
    const std::int64_t sent_slot = slots_.slot_index(
        std::max<sim::ClockTime>(0, join_infos_[q].ts));
    if (slot - sent_slot <= n_ - 1) list.insert(q);
  }
  return list;
}

void TimewheelNode::join_slot_duties(sim::ClockTime now, std::int64_t slot) {
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
  // knowledge at least as fresh as ours (its installed gid >= gid_).
  //
  // Deliberately NOT gated on installed_: a desync (or an eavesdropped
  // exclusion) clears installed_ but keeps group_/gid_ — such a process
  // still remembers the group and must honor its continuity; only a
  // full_reset (crash recovery) clears group_ and lifts the constraint.
  //
  // Exception: when EVERY team member is in the join dance, the knowledge
  // rule below sees every process's history and provably elects the
  // freshest one — no group can be running elsewhere, so there is no
  // branch to orphan. Without this escape, a group whose other members all
  // crashed (serially, each under a live team majority) could never be
  // succeeded: its last survivor would wait for carriers that no longer
  // exist while its superior knowledge blocks everyone else.
  const bool whole_team_joining =
      my_list == util::ProcessSet::full(static_cast<ProcessId>(n_));
  if (!group_.empty() && !whole_team_joining) {
    util::ProcessSet carried;
    for (ProcessId q : my_list.intersect(group_)) {
      if (q == self() || join_infos_[q].gid >= gid_) carried.insert(q);
    }
    if (2 * carried.size() <= group_.size()) {
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
  if (!fd_.alive_list(now).subset_of(my_list)) {
    send_join(now);
    return;
  }
  // Initial group formation (§4.2 join state): become the decider when a
  // majority agrees on identical join-lists, each confirmed in its sender's
  // last slot.
  if (my_list.is_majority_of(n_)) {
    bool all_confirm = true;
    util::ProcessSet stale_joiners;
    for (ProcessId q : my_list) {
      if (q == self()) continue;
      const auto& info = join_infos_[q];
      if (info.ts < 0 || !slots_.in_last_slot_of(q, info.ts, slot) ||
          !(info.list == my_list) ||
          // Knowledge rule: the first decider must hold the freshest
          // replica history among the forming group, so nothing a member
          // knows about is silently lost and stale members can be brought
          // up to date with a state transfer.
          info.last_decision_ts > round_.last_round()) {
        all_confirm = false;
        break;
      }
      if (info.last_decision_ts < round_.last_round())
        stale_joiners.insert(q);
    }
    if (all_confirm) {
      create_group(my_list, {}, {}, stale_joiners, now);
      return;
    }
  }
  send_join(now);
}

void TimewheelNode::handle_join(ProcessId from, Join j) {
  const auto now_opt = sync_now();
  if (!now_opt) return;
  const sim::ClockTime now = *now_opt;
  if (round_.admit({RoundMsg::join, from, j.send_ts, 0, &j.join_list},
                   now) != RoundDrop::accepted)
    return;
  join_infos_[from] =
      JoinInfo{j.join_list, j.send_ts, j.last_decision_ts, j.gid};
  // Group members see the joiner through the FD's alive-list; the right
  // decider will integrate it (§4.2). Nothing else to do here.
}

// ---------------------------------------------------------------------------
// View installation & delivery
// ---------------------------------------------------------------------------

void TimewheelNode::install_view(GroupId gid, util::ProcessSet members,
                                 sim::ClockTime now,
                                 bool expect_state_transfer) {
  const bool was_member = installed_ && group_.contains(self());
  gid_ = gid;
  group_ = members;
  installed_ = true;
  // Fence the delivery buffer at the installed epoch: from here on,
  // windows carried by messages of older epochs (stragglers from the
  // other side of a heal) are quarantined rather than adopted.
  delivery_.raise_fence(gid);
  // Persist the installed view before announcing it: after a crash the
  // kernel's gid is the floor below which state transfers are stale.
  if (store_ && !recovered_dirty()) store_->note_view(gid, members.bits());
  ++stats_.views_installed;
  ep_.trace(TraceKind::view_installed, gid, 0, members);
  if (auto* rec = ep_.obs())
    rec->emit(obs::EvKind::view_install, 0, gid, members.bits());
  if (app_.view_change) app_.view_change(gid, members);

  if (!was_member && members.contains(self())) {
    rebaseline_.admitted(now, expect_state_transfer, state_ == GcState::join);
    flush_pending_proposals(now);
  }
}

sim::Duration TimewheelNode::retry_jitter(int attempt) const {
  // splitmix64-style avalanche over (self, incarnation, attempt): spreads
  // simultaneous retriers across a slot without any RNG, so torture replays
  // stay bit-identical.
  std::uint64_t z = (static_cast<std::uint64_t>(self()) << 32) ^
                    (incarnation_ * 0x9e3779b97f4a7c15ULL) ^
                    ((static_cast<std::uint64_t>(attempt) + 1) *
                     0xbf58476d1ce4e5b9ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  const auto span = static_cast<std::uint64_t>(slots_.slot_len());
  return span == 0 ? 0 : static_cast<sim::Duration>(z % span);
}

void TimewheelNode::update_overload() {
  if (cfg_.max_pending <= 0) return;
  const auto cap = static_cast<std::size_t>(cfg_.max_pending);
  const std::size_t hi = std::max<std::size_t>(1, cap * kOverloadHiPct / 100);
  const std::size_t lo = cap * kOverloadLoPct / 100;
  const std::size_t occ = own_inflight_;
  // Stepwise ladder with a hysteresis band: escalation triggers at hi/cap,
  // recovery waits for lo (< hi), so occupancy oscillating around one
  // boundary can't flap the state.
  OverloadState next = overload_;
  std::size_t mark = 0;
  switch (overload_) {
    case OverloadState::normal:
      if (occ >= cap) {
        next = OverloadState::shedding;
        mark = cap;
      } else if (occ >= hi) {
        next = OverloadState::backpressured;
        mark = hi;
      }
      break;
    case OverloadState::backpressured:
      if (occ >= cap) {
        next = OverloadState::shedding;
        mark = cap;
      } else if (occ <= lo) {
        next = OverloadState::normal;
        mark = lo;
      }
      break;
    case OverloadState::shedding:
      if (occ <= lo) {
        next = OverloadState::normal;
        mark = lo;
      } else if (occ < hi) {
        next = OverloadState::backpressured;
        mark = hi;
      }
      break;
  }
  if (next == overload_) return;
  const bool escalating =
      static_cast<int>(next) > static_cast<int>(overload_);
  overload_ = next;
  if (escalating)
    ++stats_.overload_enters;
  else
    ++stats_.overload_exits;
  if (auto* rec = ep_.obs())
    rec->emit(escalating ? obs::EvKind::overload_enter
                         : obs::EvKind::overload_exit,
              static_cast<std::uint8_t>(next), occ, mark);
}

void TimewheelNode::deliver_to_app(const bcast::Proposal& p,
                                   Ordinal ordinal) {
  ep_.trace(TraceKind::delivered, ordinal, p.id.proposer,
            util::ProcessSet{},
            std::to_string(p.id.proposer) + "." + std::to_string(p.id.seq));
  TW_DEBUG("p" << self() << " delivers " << p.id.proposer << "."
               << p.id.seq << " at "
               << (ordinal == kNoOrdinal ? -1
                                         : static_cast<long long>(ordinal))
               << (rebaseline_.holds_deliveries() ? " (buffered)" : ""));
  if (p.id.proposer == self() && own_inflight_ > 0) {
    // An own proposal cleared the pipeline: credit the admission budget.
    --own_inflight_;
    update_overload();
  }
  if (!rebaseline_.hold(p, ordinal)) hand_to_app(p, ordinal);
}

void TimewheelNode::hand_to_app(const bcast::Proposal& p, Ordinal ordinal) {
  if (app_.deliver) app_.deliver(p, ordinal);
  // Advance the durable delivery watermarks AFTER the application has the
  // message: losing the record re-delivers (at-least-once across crashes),
  // which the max-merge import on recovery tolerates; recording before
  // delivering could silently drop it.
  if (store_)
    store_->note_delivery(p.id.proposer, p.id.seq,
                          ordinal == kNoOrdinal ? 0 : ordinal + 1);
}

void TimewheelNode::run_delivery(sim::ClockTime now) {
  delivery_.try_deliver(now, group_);
  delivery_.purge_undeliverable();
  const sim::ClockTime next = delivery_.next_release(now);
  if (next != sim::kNever)
    arm_sync_timer(delivery_timer_, next, [this] {
      const auto t = sync_now();
      if (t) run_delivery(*t);
    });
}

}  // namespace tw::gms
