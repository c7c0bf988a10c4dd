// Failure handling: single-failure election, wrong-suspicion masking,
// multiple-failure reconfiguration, partitions, crash recovery and rejoin
// (paper §4.2).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "gms/sim_harness.hpp"
#include "net/msg_kind.hpp"

namespace tw::gms {
namespace {

HarnessConfig cfg_n(int n, std::uint64_t seed) {
  HarnessConfig cfg;
  cfg.n = n;
  cfg.seed = seed;
  return cfg;
}

/// Run to a full stable group, returning the formation time.
sim::SimTime form_group(SimHarness& h) {
  h.start();
  EXPECT_TRUE(h.run_until_group(
      util::ProcessSet::full(static_cast<ProcessId>(h.n())), sim::sec(15)))
      << h.cluster().trace_log().dump();
  return h.now();
}

TEST(GmsFailure, SingleCrashRemovesMember) {
  SimHarness h(cfg_n(5, 1));
  form_group(h);
  const sim::SimTime crash_at = h.now() + sim::msec(100);
  h.faults().crash_at(crash_at, 2);
  util::ProcessSet expected = util::ProcessSet::full(5);
  expected.erase(2);
  EXPECT_TRUE(h.run_until_group(expected, h.now() + sim::sec(10)))
      << h.cluster().trace_log().dump();
  EXPECT_TRUE(h.check_all_invariants().empty());
}

TEST(GmsFailure, SingleCrashUsesSingleFailureElection) {
  // The fast path: one crash must be resolved by the no-decision ring, not
  // by slotted reconfiguration.
  SimHarness h(cfg_n(5, 2));
  form_group(h);
  auto& stats = h.cluster().network().stats();
  const auto rc_before =
      stats.by_kind[net::kind_byte(net::MsgKind::reconfiguration)].sent;
  h.faults().crash_at(h.now() + sim::msec(100), 3);
  util::ProcessSet expected = util::ProcessSet::full(5);
  expected.erase(3);
  ASSERT_TRUE(h.run_until_group(expected, h.now() + sim::sec(10)));
  EXPECT_EQ(stats.by_kind[net::kind_byte(net::MsgKind::reconfiguration)].sent,
            rc_before)
      << "single failure should not trigger reconfiguration";
  EXPECT_GT(stats.by_kind[net::kind_byte(net::MsgKind::no_decision)].sent, 0u);
  EXPECT_TRUE(h.check_all_invariants().empty());
}

TEST(GmsFailure, SingleCrashRecoveryLatencyBounded) {
  // Detection within ~2D of the role being lost, election within about one
  // ND round: generous bound of a cycle plus a few D.
  SimHarness h(cfg_n(5, 3));
  form_group(h);
  const sim::SimTime crash_at = h.now() + sim::msec(50);
  h.faults().crash_at(crash_at, 1);
  util::ProcessSet expected = util::ProcessSet::full(5);
  expected.erase(1);
  ASSERT_TRUE(h.run_until_group(expected, h.now() + sim::sec(10)));
  const sim::SimTime created =
      h.cluster().trace_log().first_after(sim::TraceKind::group_created,
                                          crash_at);
  ASSERT_NE(created, sim::kNever);
  const auto& nc = h.node(0).config();
  // Crash → role loss (≤ one rotation) → 2D detection → N-2 hops → close.
  const sim::Duration budget =
      nc.cycle_len(5) + nc.fd_timeout() + 5 * nc.big_d;
  EXPECT_LE(created - crash_at, budget);
}

TEST(GmsFailure, EveryCrashedMemberPositionWorks) {
  // Crash each position in turn (fresh harness each time): decider,
  // successor, predecessor — all must resolve via the fast path.
  for (ProcessId victim = 0; victim < 5; ++victim) {
    SimHarness h(cfg_n(5, 40 + victim));
    form_group(h);
    h.faults().crash_at(h.now() + sim::msec(70), victim);
    util::ProcessSet expected = util::ProcessSet::full(5);
    expected.erase(victim);
    EXPECT_TRUE(h.run_until_group(expected, h.now() + sim::sec(10)))
        << "victim=" << victim;
    EXPECT_TRUE(h.check_all_invariants().empty()) << "victim=" << victim;
  }
}

TEST(GmsFailure, LostNoDecisionHopKeepsTheElectionSingleFailure) {
  // The first no-decision of a crash election loses its broadcast copy
  // towards the next ring member. The handoff copy its sender unicasts to
  // that member alongside still carries the hop, so the election closes as
  // a single-failure one and no member escalates to the multiple-failure
  // election.
  SimHarness h(cfg_n(5, 2));
  form_group(h);
  const util::ProcessSet team = util::ProcessSet::full(5);
  const ProcessId victim = 3;
  const ProcessId opener = team.successor_of(victim);
  h.faults().crash_at(h.now() + sim::msec(100), victim);
  h.cluster().network().arm_drop(
      opener, net::kind_byte(net::MsgKind::no_decision),
      util::ProcessSet{team.successor_of(opener)}, 1);
  util::ProcessSet expected = team;
  expected.erase(victim);
  ASSERT_TRUE(h.run_until_group(expected, h.now() + sim::sec(10)));
  EXPECT_EQ(h.cluster().network().stats().total.dropped_rule, 1u);
  for (const sim::TraceRecord& r :
       h.cluster().trace_log().of_kind(sim::TraceKind::state_changed))
    EXPECT_NE(r.a, static_cast<std::uint64_t>(GcState::n_failure))
        << "p" << r.p << " entered n-failure at " << r.t;
  for (ProcessId p : expected)
    EXPECT_EQ(h.node(p).stats().reconfigurations_sent, 0u) << "p" << p;
  EXPECT_TRUE(h.check_all_invariants().empty());
}

TEST(GmsFailure, FalseSuspicionDoesNotChangeMembership) {
  // Drop one decision message towards everyone: the successor suspects the
  // decider, but some member still holding the decision (the decider
  // itself rebroadcasts) resolves it without a membership change (§4.2
  // wrong-suspicion).
  SimHarness h(cfg_n(5, 5));
  form_group(h);
  h.run_for(sim::sec(1));
  const GroupId gid_before = h.node(0).group_id();
  // Drop the next decision from process 2 towards members 3 and 4 only —
  // 0 and 1 still receive it, so the suspicion is provably false.
  h.cluster().network().arm_drop(2, net::kind_byte(net::MsgKind::decision),
                                 util::ProcessSet({3, 4}), 1);
  h.run_for(sim::sec(4));
  for (ProcessId p = 0; p < 5; ++p) {
    EXPECT_TRUE(h.node(p).in_group()) << "p" << p;
    EXPECT_EQ(h.node(p).group(), util::ProcessSet::full(5)) << "p" << p;
  }
  EXPECT_EQ(h.node(0).group_id(), gid_before)
      << "false alarm must not create a new group";
  EXPECT_TRUE(h.check_all_invariants().empty());
}

TEST(GmsFailure, LostDecisionToAllRecoversWithoutExclusion) {
  // The decider's decision is lost to everyone; the decider itself answers
  // the no-decision with a resend of its last control message.
  SimHarness h(cfg_n(5, 6));
  form_group(h);
  h.run_for(sim::sec(1));
  h.cluster().network().arm_drop(1, net::kind_byte(net::MsgKind::decision),
                                 util::ProcessSet::full(5), 1);
  h.run_for(sim::sec(4));
  // All five remain members (p1 is alive; removing it would be wrong, and
  // if it was removed it must have rejoined by now).
  for (ProcessId p = 0; p < 5; ++p)
    EXPECT_TRUE(h.node(p).in_group()) << "p" << p;
  EXPECT_EQ(h.node(0).group(), util::ProcessSet::full(5));
  EXPECT_TRUE(h.check_all_invariants().empty());
}

TEST(GmsFailure, TwoSimultaneousCrashesUseReconfiguration) {
  SimHarness h(cfg_n(7, 7));
  form_group(h);
  const sim::SimTime t = h.now() + sim::msec(100);
  h.faults().crash_at(t, 2).crash_at(t, 5);
  util::ProcessSet expected = util::ProcessSet::full(7);
  expected.erase(2);
  expected.erase(5);
  ASSERT_TRUE(h.run_until_group(expected, h.now() + sim::sec(20)))
      << h.cluster().trace_log().dump();
  auto& stats = h.cluster().network().stats();
  EXPECT_GT(stats.by_kind[net::kind_byte(net::MsgKind::reconfiguration)].sent,
            0u);
  EXPECT_TRUE(h.check_all_invariants().empty());
}

TEST(GmsFailure, DeciderAndSuccessorCrashTogether) {
  SimHarness h(cfg_n(7, 8));
  form_group(h);
  h.run_for(sim::msec(300));
  // Crash the current believed decider and its successor simultaneously.
  const ProcessId d = h.node(0).believed_decider();
  const ProcessId s = h.node(0).group().successor_of(d);
  const sim::SimTime t = h.now() + sim::msec(10);
  h.faults().crash_at(t, d).crash_at(t, s);
  util::ProcessSet expected = util::ProcessSet::full(7);
  expected.erase(d);
  expected.erase(s);
  EXPECT_TRUE(h.run_until_group(expected, h.now() + sim::sec(20)))
      << "d=" << d << " s=" << s << "\n"
      << h.cluster().trace_log().dump();
  EXPECT_TRUE(h.check_all_invariants().empty());
}

TEST(GmsFailure, MaxToleratedCrashes) {
  // N=7 tolerates 3 crashes (majority 4 survives).
  SimHarness h(cfg_n(7, 9));
  form_group(h);
  const sim::SimTime t = h.now() + sim::msec(100);
  h.faults().crash_at(t, 0).crash_at(t + sim::msec(5), 3).crash_at(
      t + sim::msec(10), 6);
  util::ProcessSet expected({1, 2, 4, 5});
  EXPECT_TRUE(h.run_until_group(expected, h.now() + sim::sec(30)))
      << h.cluster().trace_log().dump();
  EXPECT_TRUE(h.check_all_invariants().empty());
}

TEST(GmsFailure, MinorityPartitionStalls_MajorityContinues) {
  SimHarness h(cfg_n(5, 10));
  form_group(h);
  h.faults().partition_at(h.now() + sim::msec(100),
                          {util::ProcessSet({0, 1, 2}),
                           util::ProcessSet({3, 4})});
  ASSERT_TRUE(
      h.run_until_group(util::ProcessSet({0, 1, 2}), h.now() + sim::sec(20)))
      << h.cluster().trace_log().dump();
  h.run_for(sim::sec(5));
  // The minority side must never install a group of its own (property 5).
  for (ProcessId p : {3u, 4u})
    EXPECT_FALSE(h.node(p).in_group() &&
                 h.node(p).group().subset_of(util::ProcessSet({3, 4})))
        << "p" << p;
  EXPECT_TRUE(h.check_all_invariants().empty());
}

TEST(GmsFailure, PartitionHealReintegrates) {
  SimHarness h(cfg_n(5, 11));
  form_group(h);
  h.faults().partition_at(h.now() + sim::msec(100),
                          {util::ProcessSet({0, 1, 2}),
                           util::ProcessSet({3, 4})});
  ASSERT_TRUE(
      h.run_until_group(util::ProcessSet({0, 1, 2}), h.now() + sim::sec(20)));
  h.run_for(sim::sec(2));
  h.cluster().network().heal();
  EXPECT_TRUE(
      h.run_until_group(util::ProcessSet::full(5), h.now() + sim::sec(30)))
      << h.cluster().trace_log().dump();
  EXPECT_TRUE(h.check_all_invariants().empty());
}

TEST(GmsFailure, CrashedMemberRejoinsAfterRecovery) {
  SimHarness h(cfg_n(5, 12));
  form_group(h);
  const sim::SimTime t = h.now();
  h.faults().crash_at(t + sim::msec(100), 4);
  util::ProcessSet without4 = util::ProcessSet::full(5);
  without4.erase(4);
  ASSERT_TRUE(h.run_until_group(without4, h.now() + sim::sec(10)));
  h.cluster().processes().recover(4);
  EXPECT_TRUE(
      h.run_until_group(util::ProcessSet::full(5), h.now() + sim::sec(20)))
      << h.cluster().trace_log().dump();
  EXPECT_TRUE(h.check_all_invariants().empty());
}

TEST(GmsFailure, SurvivorClocksStayWithinEpsilonAcrossACrashAndReturn) {
  // The node-level twin of the clock-sync test of the same name: while the
  // member with the lowest hardware clock is down, and after it returns,
  // the survivors' synchronized clocks stay within ε of each other.
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    SimHarness h(cfg_n(5, seed));
    form_group(h);
    auto& procs = h.cluster().processes();
    ProcessId victim = 0;
    for (ProcessId p = 1; p < 5; ++p)
      if (procs.clock(p).offset() < procs.clock(victim).offset()) victim = p;
    const auto deviation = [&]() -> sim::Duration {
      sim::ClockTime lo = INT64_MAX, hi = INT64_MIN;
      for (ProcessId p = 0; p < 5; ++p) {
        if (p == victim) continue;
        const auto v = h.node(p).clock().now();
        if (!v) return INT64_MAX;
        lo = std::min(lo, *v);
        hi = std::max(hi, *v);
      }
      return hi - lo;
    };
    sim::Duration worst = 0;
    const auto sample_for = [&](sim::Duration d) {
      const sim::SimTime end = h.now() + d;
      while (h.now() < end) {
        h.run_for(sim::msec(1));
        worst = std::max(worst, deviation());
      }
    };
    procs.crash(victim);
    sample_for(sim::sec(3));
    procs.recover(victim);
    sample_for(sim::sec(3));
    EXPECT_LE(worst, h.node(0).clock().epsilon());
  }
}

TEST(GmsFailure, RejoinerReceivesStateTransfer) {
  SimHarness h(cfg_n(5, 13));
  form_group(h);
  // Deliver some updates so there is state to transfer.
  for (std::uint64_t i = 0; i < 8; ++i) {
    h.propose(static_cast<ProcessId>(i % 5), 900 + i, bcast::Order::total);
    h.run_for(sim::msec(30));
  }
  h.run_for(sim::sec(2));
  h.faults().crash_at(h.now() + sim::msec(10), 2);
  util::ProcessSet without2 = util::ProcessSet::full(5);
  without2.erase(2);
  ASSERT_TRUE(h.run_until_group(without2, h.now() + sim::sec(10)));
  // More updates while 2 is down.
  for (std::uint64_t i = 0; i < 5; ++i) {
    h.propose(0, 950 + i, bcast::Order::total);
    h.run_for(sim::msec(30));
  }
  h.run_for(sim::sec(1));
  h.cluster().processes().recover(2);
  ASSERT_TRUE(
      h.run_until_group(util::ProcessSet::full(5), h.now() + sim::sec(20)));
  h.run_for(sim::sec(2));
  // The rejoiner's application state must match the others (transferred
  // base state + subsequently delivered updates).
  const auto ref = h.app_state(0);
  EXPECT_EQ(h.app_state(2), ref) << "state transfer incomplete";
  auto& stats = h.cluster().network().stats();
  EXPECT_GT(stats.by_kind[net::kind_byte(net::MsgKind::state_transfer)].sent,
            0u);
  EXPECT_TRUE(h.check_all_invariants().empty());
}

TEST(GmsFailure, UpdatesSurviveMembershipChange) {
  // Proposals in flight across a crash must still reach every survivor in
  // the same total order.
  SimHarness h(cfg_n(5, 14));
  form_group(h);
  for (std::uint64_t i = 0; i < 10; ++i) {
    h.propose(static_cast<ProcessId>(i % 5), 700 + i, bcast::Order::total);
    h.run_for(sim::msec(10));
  }
  h.faults().crash_at(h.now() + sim::msec(5), 1);
  util::ProcessSet expected = util::ProcessSet::full(5);
  expected.erase(1);
  ASSERT_TRUE(h.run_until_group(expected, h.now() + sim::sec(10)));
  for (std::uint64_t i = 0; i < 5; ++i) {
    h.propose(0, 800 + i, bcast::Order::total);
    h.run_for(sim::msec(10));
  }
  h.run_for(sim::sec(3));
  // Survivors agree on the delivered sequence.
  std::vector<std::uint64_t> ref;
  for (const auto& rec : h.delivered(0))
    ref.push_back(SimHarness::payload_tag(rec.payload));
  EXPECT_GE(ref.size(), 5u);
  for (ProcessId p : expected) {
    if (p == 0) continue;
    std::vector<std::uint64_t> got;
    for (const auto& rec : h.delivered(p))
      got.push_back(SimHarness::payload_tag(rec.payload));
    EXPECT_EQ(got, ref) << "p" << p;
  }
  EXPECT_TRUE(h.check_all_invariants().empty());
}

TEST(GmsFailure, RepeatedCrashRecoverCycles) {
  SimHarness h(cfg_n(5, 15));
  form_group(h);
  for (int round = 0; round < 3; ++round) {
    const ProcessId victim = static_cast<ProcessId>(round + 1);
    h.faults().crash_at(h.now() + sim::msec(50), victim);
    util::ProcessSet expected = util::ProcessSet::full(5);
    expected.erase(victim);
    ASSERT_TRUE(h.run_until_group(expected, h.now() + sim::sec(15)))
        << "round " << round << "\n"
        << h.cluster().trace_log().dump();
    h.cluster().processes().recover(victim);
    ASSERT_TRUE(
        h.run_until_group(util::ProcessSet::full(5), h.now() + sim::sec(20)))
        << "round " << round;
  }
  EXPECT_TRUE(h.check_all_invariants().empty());
}

TEST(GmsFailure, ExcludedNFailureMemberJoinsAfterEveryNewMembersDecision) {
  // Paper §4.2's delayed switch to join: a member in n-failure that the new
  // group excludes stays in n-failure, and sends no reconfiguration, until
  // it has a decision from every new member; only then does it enter join.
  HarnessConfig cfg = cfg_n(5, 16);
  cfg.perfect_clocks = true;  // trace times are sim times, so slots line up
  SimHarness h(cfg);
  form_group(h);
  constexpr ProcessId kCut = 4;
  util::ProcessSet rest = util::ProcessSet::full(5);
  rest.erase(kCut);
  h.faults().isolate_at(h.now() + sim::msec(100), kCut);
  ASSERT_TRUE(h.run_until_group(rest, h.now() + sim::sec(3)));
  const sim::SimTime deadline = h.now() + sim::sec(3);
  while (h.node(kCut).state() != GcState::n_failure && h.now() < deadline)
    h.run_for(sim::msec(1));
  ASSERT_EQ(h.node(kCut).state(), GcState::n_failure);
  const sim::SimTime n_failure_at = h.now();
  // Let kCut spend one of its own slots in n-failure, then heal 40 ms
  // before the next one, so the exclusion wait spans a slot of its own.
  const sim::Duration slot = h.node(kCut).config().slot_len();
  const sim::Duration cycle = 5 * slot;
  const sim::SimTime first_slot =
      (h.now() / cycle + 1) * cycle + static_cast<sim::Duration>(kCut) * slot;
  const sim::SimTime second_slot = first_slot + cycle;
  h.run_until(second_slot - sim::msec(40));
  ASSERT_EQ(h.node(kCut).state(), GcState::n_failure);
  const sim::SimTime heal = h.now();
  h.cluster().network().heal();
  ASSERT_TRUE(
      h.run_until_group(util::ProcessSet::full(5), h.now() + sim::sec(10)));
  h.run_for(sim::sec(1));

  const auto trace = h.merged_trace();
  sim::SimTime excluded_at = -1;  // first decision kCut heard after the heal
  sim::SimTime join_at = -1;      // kCut's first transition after the heal
  util::ProcessSet deciders_heard;
  std::vector<std::pair<GcState, GcState>> after_heal;  // (from, to)
  for (const obs::Event& e : trace) {
    if (e.p != kCut || e.t < heal) continue;
    if (e.kind == obs::EvKind::dgram_recv &&
        e.arg == net::kind_byte(net::MsgKind::decision) && join_at < 0) {
      if (excluded_at < 0) excluded_at = e.t;
      deciders_heard.insert(static_cast<ProcessId>(e.a));
    }
    if (e.kind == obs::EvKind::fsm_transition) {
      after_heal.emplace_back(static_cast<GcState>(e.b),
                              static_cast<GcState>(e.a));
      if (join_at < 0) join_at = e.t;
    }
  }
  ASSERT_GE(excluded_at, 0);
  ASSERT_FALSE(after_heal.empty());
  EXPECT_EQ(after_heal.front(),
            std::make_pair(GcState::n_failure, GcState::join));
  EXPECT_EQ(after_heal.back().second, GcState::failure_free);
  EXPECT_EQ(deciders_heard, rest);
  EXPECT_GT(join_at, second_slot) << "the wait did not span kCut's slot";

  const auto reconfigurations = [&trace](sim::SimTime from, sim::SimTime to) {
    int sent = 0;
    for (const obs::Event& e : trace)
      if (e.p == kCut && e.kind == obs::EvKind::dgram_send &&
          e.arg == net::kind_byte(net::MsgKind::reconfiguration) &&
          e.t >= from && e.t <= to)
        ++sent;
    return sent;
  };
  EXPECT_GT(reconfigurations(n_failure_at, heal), 0);
  EXPECT_EQ(reconfigurations(excluded_at, join_at), 0);
  EXPECT_TRUE(h.check_all_invariants().empty());
}

TEST(GmsFailure, NFailureMemberTakesTheFormerSuspectsClosingDecision) {
  // A member that suspected q and then entered n-failure must not count
  // q's decision closing the multiple-failure election as "from the
  // suspect": the election superseded that suspicion. The decision takes
  // the D edge to failure-free, and since p is q's successor it hands p
  // the decider role, so the ring keeps turning.
  HarnessConfig cfg = cfg_n(5, 19);
  cfg.perfect_clocks = true;
  SimHarness h(cfg);
  form_group(h);
  const util::ProcessSet team = util::ProcessSet::full(5);
  // p: a member whose expected decider e is neither p nor p's predecessor.
  ProcessId p = 0;
  while (p < 5 && (h.node(p).believed_decider() == p ||
                   h.node(p).believed_decider() == team.predecessor_of(p)))
    ++p;
  ASSERT_LT(p, 5);
  TimewheelNode& node = h.node(p);
  const ProcessId e = node.believed_decider();
  const ProcessId q = team.predecessor_of(p);
  ProcessId r = 0;
  while (r == p || r == q || r == e) ++r;
  const sim::ClockTime now = *node.clock().now();

  // p concurs with e's no-decision naming q: a single failure, suspect q.
  NoDecision nd;
  nd.suspect = q;
  nd.gid = node.group_id();
  nd.send_ts = now;
  nd.last_decision_ts = now;
  nd.alive = team;
  node.on_datagram(e, nd.encode());
  ASSERT_TRUE(node.state() == GcState::one_failure_receive ||
              node.state() == GcState::one_failure_send)
      << gc_state_name(node.state());
  // r names another suspect: multiple failures.
  nd.suspect = e;
  node.on_datagram(r, nd.encode());
  ASSERT_EQ(node.state(), GcState::n_failure);

  // q wins the multiple-failure election and sends the closing decision.
  bcast::Decision d;
  d.gid = node.group_id() + 1;
  d.group = team;
  d.decision_no = 1;
  d.decider = q;
  d.send_ts = now;
  d.alive = team;
  node.on_datagram(q, d.encode());
  EXPECT_EQ(node.state(), GcState::failure_free);
  EXPECT_EQ(node.group_id(), d.gid);
  EXPECT_TRUE(node.has_decider_role());
}

TEST(GmsFailure, NoDecisionNamingAProcessOutsideTheTeamIsDropped) {
  // A failure-free member hears a no-decision from its expected decider
  // that names suspect 100. Taking up that suspicion would index
  // per-member state with it, so the datagram must be dropped.
  HarnessConfig cfg = cfg_n(5, 17);
  cfg.perfect_clocks = true;
  SimHarness h(cfg);
  form_group(h);
  ProcessId p = 0;
  while (h.node(p).believed_decider() == p) ++p;
  TimewheelNode& node = h.node(p);
  ASSERT_EQ(node.state(), GcState::failure_free);
  const GroupId gid = node.group_id();
  NoDecision nd;
  nd.suspect = 100;
  nd.gid = gid;
  nd.send_ts = *node.clock().now();
  nd.alive = util::ProcessSet::full(5);
  const std::vector<std::byte> bytes = nd.encode();
  EXPECT_NO_THROW(node.on_datagram(node.believed_decider(), bytes));
  EXPECT_EQ(node.state(), GcState::failure_free);
  EXPECT_EQ(node.group_id(), gid);
  EXPECT_EQ(node.group(), util::ProcessSet::full(5));
  h.run_for(sim::sec(1));
  EXPECT_TRUE(node.in_group());
  EXPECT_TRUE(h.check_all_invariants().empty());
}

TEST(GmsFailure, DecisionNamingAProcessOutsideTheTeamIsDropped) {
  // A fresh decision whose group names member 5 of a 5-member team must
  // not be installed as the view.
  HarnessConfig cfg = cfg_n(5, 18);
  cfg.perfect_clocks = true;
  SimHarness h(cfg);
  form_group(h);
  TimewheelNode& node = h.node(0);
  const GroupId gid = node.group_id();
  bcast::Decision d;
  d.gid = gid + 1;
  d.group = util::ProcessSet::full(6);
  d.decider = node.believed_decider() == 0 ? 1 : node.believed_decider();
  d.send_ts = *node.clock().now();
  d.alive = util::ProcessSet::full(5);
  const std::vector<std::byte> bytes = d.encode();
  EXPECT_NO_THROW(node.on_datagram(d.decider, bytes));
  EXPECT_EQ(node.group_id(), gid);
  EXPECT_EQ(node.group(), util::ProcessSet::full(5));
  h.run_for(sim::sec(1));
  EXPECT_TRUE(node.in_group());
  EXPECT_TRUE(h.check_all_invariants().empty());
}

}  // namespace
}  // namespace tw::gms
