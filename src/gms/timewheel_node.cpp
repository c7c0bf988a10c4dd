#include "gms/timewheel_node.hpp"

#include <algorithm>
#include <utility>

#include "store/stable_store.hpp"
#include "util/assert.hpp"
#include "util/buffer_pool.hpp"
#include "util/logging.hpp"

namespace tw::gms {

using sim::TraceKind;

namespace {

/// Release delay Δ for time-ordered delivery: a time-ordered update is
/// delivered at send_ts + Δ on the synchronized clock. Must exceed δ + ε
/// so every member has the update by release time.
constexpr sim::Duration kDeliverDelay = sim::msec(60);

/// The NodeStats counters a metrics snapshot shows as gms.<scope>.<name>.
constexpr std::pair<const char*, std::uint64_t NodeStats::*>
    kStatCounters[] = {
    {"decisions_sent", &NodeStats::decisions_sent},
    {"proposals_sent", &NodeStats::proposals_sent},
    {"views_installed", &NodeStats::views_installed},
    {"suspicions_raised", &NodeStats::suspicions_raised},
    {"no_decisions_sent", &NodeStats::no_decisions_sent},
    {"reconfigurations_sent", &NodeStats::reconfigurations_sent},
    {"groups_created", &NodeStats::groups_created},
    {"wrong_suspicions", &NodeStats::wrong_suspicions},
    {"state_transfers_sent", &NodeStats::state_transfers_sent},
    {"state_transfers_received", &NodeStats::state_transfers_received},
    {"retransmit_requests_sent", &NodeStats::retransmit_requests_sent},
    {"exclusions", &NodeStats::exclusions},
    {"rejoin_requests_sent", &NodeStats::rejoin_requests_sent},
    {"rehabilitations", &NodeStats::rehabilitations},
    {"proposal_batches_sent", &NodeStats::proposal_batches_sent},
    {"stale_dropped", &NodeStats::stale_dropped},
    {"rebaseline_shed", &NodeStats::rebaseline_shed},
    {"repair_backoffs", &NodeStats::repair_backoffs},
    {"resends_suppressed", &NodeStats::resends_suppressed},
    {"decision_pulls", &NodeStats::decision_pulls},
    {"pull_replies", &NodeStats::pull_replies},
    {"overload.occupancy_peak", &NodeStats::occupancy_peak},
    {"overload.refused", &NodeStats::proposals_refused},
    {"overload.enters", &NodeStats::overload_enters},
    {"overload.exits", &NodeStats::overload_exits},
};

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
  if (obs::Recorder* rec = ep_.obs()) {
    delivery_.set_recorder(rec);
    if (obs::Registry* reg = rec->registry()) {
      // Snapshots see this node's NodeStats as "gms.p<id>.*" counters
      // ("gms.g<tag>.p<id>.*" under a multi-group runtime endpoint).
      const std::string prefix = "gms." + ep_.obs_scope() + '.';
      stats_source_ = reg->register_source(
          [this, prefix](std::map<std::string, std::uint64_t>& out) {
            for (const auto& [name, counter] : kStatCounters)
              out[prefix + name] = stats_.*counter;
            // Overload gauges (gms.<scope>.overload.*): the ladder rung
            // and the admission pressure behind it.
            out[prefix + "overload.state"] =
                static_cast<std::uint64_t>(proposer_.overload_state());
            out[prefix + "overload.occupancy"] = proposer_.occupancy();
            if (store_)
              out[prefix + "store_sync_failures"] = store_->sync_failures();
          });
    }
  }
}

TimewheelNode::~TimewheelNode() {
  if (stats_source_ == 0) return;
  if (obs::Recorder* rec = ep_.obs())
    if (obs::Registry* reg = rec->registry())
      reg->unregister_source(stats_source_);
}

// ---------------------------------------------------------------------------
// Lifecycle
// ---------------------------------------------------------------------------

void TimewheelNode::cancel_timer(net::TimerId& timer) {
  if (timer != net::kNoTimer)
    ep_.cancel_timer(std::exchange(timer, net::kNoTimer));
}

void TimewheelNode::full_reset(bool recovered) {
  cancel_timer(slot_timer_);
  cancel_timer(fd_timer_);
  cancel_timer(decision_timer_);
  cancel_timer(delivery_timer_);
  cancel_timer(housekeeping_timer_);
  rebaseline_.reset(recovered);
  proposer_.reset(recovered);
  election_.reset();

  state_ = GcState::join;
  installed_ = false;
  gid_ = 0;
  group_.clear();
  suspect_ = kNoProcess;
  round_.reset();
  last_decision_no_ = 0;
  i_am_decider_ = false;
  expected_decider_ = kNoProcess;
  last_control_sent_.clear();
  last_decision_sent_ts_ = -1;
  stats_ = NodeStats{};
  fd_.reset();
  delivery_.reset();
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
  ever_started_ = true;
  full_reset(recovery);
  if (store_) {
    incarnation_ = store_->begin_incarnation();
    const store::RecoveryKernel& k = store_->kernel();
    round_.set_durable_floor(k.gid);
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
  if (auto* rec = ep_.obs(); rec && store_)
    rec->emit(obs::EvKind::store_open, recovery ? 1 : 0, sstats.log_records,
              sstats.skipped_bytes + sstats.truncated_bytes +
                  sstats.bad_records);
  arm_slot_timer();
  housekeeping_timer_ = ep_.set_timer_after(
      cfg_.slot_len(), [this] { on_housekeeping(); });
}

void TimewheelNode::set_state(GcState next) {
  if (next == state_) return;
  if (next == GcState::wrong_suspicion) ++stats_.wrong_suspicions;
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
    election_.enter_join();
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
  // Our own slot: join or reconfiguration duties, then the next slot.
  arm_sync_timer(slot_timer_, slots_.next_slot_start(self(), *now), [this] {
    if (const auto t = sync_now())
      election_.slot_duties(*t, slots_.slot_index(*t));
    arm_slot_timer();
  });
}

void TimewheelNode::on_housekeeping() {
  housekeeping_timer_ =
      ep_.set_timer_after(cfg_.slot_len(), [this] { on_housekeeping(); });
  const auto now = sync_now();
  if (!now) return;
  // Admission-occupancy resync: the incremental count can drift high and
  // pin the node in a degraded state. Ground truth is cheap to recount
  // once per slot.
  proposer_.resync_occupancy();
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
  if (in_group()) proposer_.rebroadcast_stale(*now);
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
  election_.watch_stall(*now);
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
        if (const auto now = admit({RoundMsg::decision, from, d.send_ts,
                                    d.gid, &d.alive}))
          handle_decision(from, std::move(d), *now);
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
        if (const auto now = admit({RoundMsg::no_decision, from, nd.send_ts,
                                    0, &nd.alive}))
          election_.on_no_decision(from, std::move(nd), *now);
        break;
      }
      case net::MsgKind::join: {
        Join j = Join::decode(r);
        check_in_team({}, {j.join_list});
        if (admit({RoundMsg::join, from, j.send_ts, 0, &j.join_list}))
          election_.on_join(from, std::move(j));
        break;
      }
      case net::MsgKind::reconfiguration: {
        Reconfiguration rc = Reconfiguration::decode(r);
        check_in_team({}, {rc.recon_list, rc.last_group, rc.alive});
        if (const auto now = admit({RoundMsg::reconfiguration, from,
                                    rc.send_ts, 0, &rc.alive}))
          election_.on_reconfiguration(from, std::move(rc), *now);
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
        proposer_.answer(from, bcast::RetransmitRequest::decode(r));
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

std::optional<sim::ClockTime> TimewheelNode::admit(
    const RoundGate::Inbound& m) {
  const auto now = sync_now();
  // Every staleness / round / epoch / lateness fence lives in the gate
  // (gms/round.hpp); what passes is from the current round structure.
  if (!now || round_.admit(m, *now) != RoundDrop::accepted)
    return std::nullopt;
  return now;
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
      if (t && in_single_failure()) election_.enter_n_failure(*t);
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
  const auto now = sync_now();
  if (!now) return;
  const ProcessId e = fd_.expected_sender();
  fd_.note_expectation_timeout();
  fd_.clear_expectation();
  ++stats_.suspicions_raised;
  ep_.trace(TraceKind::suspicion, e);
  if (auto* rec = ep_.obs()) rec->emit(obs::EvKind::suspect, 0, e);
  election_.suspected(e, *now);
}

// ---------------------------------------------------------------------------
// Decision handling (also the heart of decider rotation)
// ---------------------------------------------------------------------------

void TimewheelNode::handle_decision(ProcessId from, bcast::Decision d,
                                    sim::ClockTime now) {
  const bool from_suspect = suspect_ != kNoProcess && from == suspect_;

  round_.advance_round(d.send_ts);
  last_decision_no_ = d.decision_no;
  election_.decided(d.send_ts);

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
      !d.joiners.contains(self()) && !election_.formed_by_join(d, now)) {
    // Remember the freshest group for the continuity rule and adopt the
    // oal knowledge (we already advanced the round cursor above — a node
    // whose timestamp is fresh but whose ordinal knowledge is stale would
    // defeat the join protocol's knowledge rule and could later extend an
    // outdated branch). We still do not JOIN the group.
    learn_group(d, now);
    return;
  }

  // Membership bookkeeping.
  if (!member) {
    handle_exclusion(d, from, now);
    return;
  }
  if (!installed_ || d.gid != gid_)
    install_view(d.gid, d.group, now, d.joiners.contains(self()));

  // Exclusion-wait bookkeeping (we may re-enter while waiting).
  election_.stop_exit_wait();

  // Broadcast bookkeeping.
  const auto adopt = delivery_.adopt_oal(d.oal, d.gid);
  // The sender of the winning decision is on the surviving branch by
  // definition — solicit the fresh baseline from it directly rather than
  // walking the ring past members that may be re-baselining themselves.
  if (adopt.divergent > 0)
    rebaseline_.diverged(adopt, now, from, /*joined=*/true);
  run_delivery(now);
  proposer_.request_missing(from);

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
      election_.enter_wrong_suspicion();
    return;
  }

  // Every other state takes the D edge to failure-free.
  if (state_ == GcState::desync) return;  // defensive: no sync_now there
  if (state_ == GcState::join) ep_.trace(TraceKind::joined, d.gid);
  if (state_ == GcState::n_failure) election_.end_episode();
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
    election_.await_exit(d, from);
  } else if (state_ != GcState::join) {
    suspect_ = kNoProcess;
    stand_down();
    election_.enter_join();
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
    if (const auto t = sync_now()) send_decision(*t);
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
  proposer_.flush_batch();

  bcast::Oal oal = delivery_.view(now);

  // Integrate joiners (a membership descriptor plus a state transfer).
  const util::ProcessSet joiners = try_integrate_joiners(now);
  if (!joiners.empty()) {
    group_ = group_.union_with(joiners);
    gid_ = election_.next_gid(now);
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

// ---------------------------------------------------------------------------
// Control messages
// ---------------------------------------------------------------------------

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

// ---------------------------------------------------------------------------
// View installation & delivery
// ---------------------------------------------------------------------------

void TimewheelNode::install_view(GroupId gid, util::ProcessSet members,
                                 sim::ClockTime now,
                                 bool expect_state_transfer) {
  const bool was_member = in_group();
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
    proposer_.flush_pending(now);
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
  if (p.id.proposer == self()) proposer_.own_delivered();
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
      if (const auto t = sync_now()) run_delivery(*t);
    });
}

}  // namespace tw::gms
