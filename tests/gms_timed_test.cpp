// The paper's TIMED specification as tests (§1, §3): detection and
// recovery latencies against analytic budgets, the fail-aware clock
// integration (desync → exclusion → resync → rejoin), and the §3 membership
// properties measured with timestamps.
#include <gtest/gtest.h>

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

sim::SimTime form(SimHarness& h) {
  h.start();
  EXPECT_TRUE(h.run_until_group(
      util::ProcessSet::full(static_cast<ProcessId>(h.n())), sim::sec(15)));
  return h.now();
}

TEST(GmsTimed, DetectionWithinRotationPlusTwoD) {
  // Crash → suspicion within (N-1)·(decision_delay + δ + σ) + 2D + ε + σ.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    SimHarness h(cfg_n(5, seed));
    form(h);
    sim::Rng rng(seed);
    const auto victim = static_cast<ProcessId>(rng.uniform_int(0, 4));
    const sim::SimTime crash_at =
        h.now() + rng.uniform_int(sim::msec(20), sim::msec(300));
    h.faults().crash_at(crash_at, victim);
    h.run_for(sim::sec(3));
    const sim::SimTime suspected = h.cluster().trace_log().first_after(
        sim::TraceKind::suspicion, crash_at);
    ASSERT_NE(suspected, sim::kNever) << "seed " << seed;
    const auto& nc = h.node(0).config();
    const sim::Duration budget =
        4 * (nc.effective_decision_delay() + nc.delta + nc.sigma) +
        nc.fd_timeout() + sim::msec(25);
    EXPECT_LE(suspected - crash_at, budget) << "seed " << seed;
  }
}

TEST(GmsTimed, SingleFailureRecoveryWithinBudget) {
  // crash → new group within detection budget + (N-2) no-decision hops.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    SimHarness h(cfg_n(5, seed + 50));
    form(h);
    sim::Rng rng(seed);
    const auto victim = static_cast<ProcessId>(rng.uniform_int(0, 4));
    const sim::SimTime crash_at = h.now() + sim::msec(100);
    h.faults().crash_at(crash_at, victim);
    util::ProcessSet expected = util::ProcessSet::full(5);
    expected.erase(victim);
    ASSERT_TRUE(h.run_until_group(expected, crash_at + sim::sec(5)));
    const sim::SimTime created = h.cluster().trace_log().first_after(
        sim::TraceKind::group_created, crash_at);
    const auto& nc = h.node(0).config();
    const sim::Duration budget =
        4 * (nc.effective_decision_delay() + nc.delta + nc.sigma) +
        nc.fd_timeout() + 3 * (nc.delta + nc.sigma) + sim::msec(30);
    EXPECT_LE(created - crash_at, budget) << "seed " << seed;
  }
}

TEST(GmsTimed, Property2_IdenticalUpToDateGroups) {
  // §3 (2): "at any point T in clock time, if p and q have an up-to-date
  // group at T, their group is identical" — sampled at many instants on a
  // churning run.
  SimHarness h(cfg_n(5, 77));
  form(h);
  h.faults().crash_at(h.now() + sim::sec(1), 2);
  h.cluster().simulator().at(h.now() + sim::sec(4), [&h] {
    h.cluster().processes().recover(2);
  });
  int samples = 0;
  for (int i = 0; i < 800; ++i) {
    h.run_for(sim::msec(10));
    // "Up-to-date" proxy: a member in failure-free state whose clock is
    // synchronized. All such members must agree on (gid, members).
    GroupId gid = 0;
    util::ProcessSet members;
    for (ProcessId p = 0; p < 5; ++p) {
      auto& node = h.node(p);
      if (!h.cluster().processes().is_up(p)) continue;
      if (node.state() != GcState::failure_free || !node.in_group())
        continue;
      if (gid == 0) {
        gid = node.group_id();
        members = node.group();
      } else {
        // Allow one-view-installation skew: groups may differ only while a
        // fresh decision is in flight (≤ δ + σ); sampling every 10 ms makes
        // sustained disagreement fail decisively.
        if (node.group_id() == gid) {
          EXPECT_EQ(node.group(), members) << "at t=" << h.now();
          ++samples;
        }
      }
    }
  }
  EXPECT_GT(samples, 100);
}

TEST(GmsTimed, Property5_GroupsAlwaysMajority) {
  SimHarness h(cfg_n(7, 78));
  form(h);
  const sim::SimTime t = h.now();
  h.faults().crash_at(t + sim::msec(100), 1).crash_at(t + sim::msec(100), 4);
  h.run_for(sim::sec(10));
  for (const auto& r :
       h.cluster().trace_log().of_kind(sim::TraceKind::view_installed))
    EXPECT_TRUE(r.set.is_majority_of(7)) << r.set.to_string();
}

TEST(GmsTimed, ClockDesyncExcludesAndResyncRejoins) {
  // Paper §2: "A process p that cannot keep its clock synchronized is
  // removed from the current group... When p can synchronize its clock
  // again, p applies to join the group again."
  SimHarness h(cfg_n(5, 79));
  form(h);
  // Cut ONLY process 4's clock-sync traffic (both directions) so its
  // fail-aware clock goes out-of-date while the datagram service otherwise
  // works.
  const auto req = net::kind_byte(net::MsgKind::clocksync_request);
  const auto rep = net::kind_byte(net::MsgKind::clocksync_reply);
  auto& net_layer = h.cluster().network();
  net_layer.arm_drop(4, req, util::ProcessSet::full(5), 1 << 20);
  for (ProcessId p = 0; p < 4; ++p)
    net_layer.arm_drop(p, rep, util::ProcessSet({4}), 1 << 20);
  h.run_for(sim::sec(6));
  EXPECT_FALSE(h.node(4).clock().synchronized());
  EXPECT_TRUE(h.node(4).state() == GcState::desync ||
              h.node(4).state() == GcState::join)
      << gc_state_name(h.node(4).state());
  // The rest excluded it and continue as a 4-member group.
  util::ProcessSet expected = util::ProcessSet::full(5);
  expected.erase(4);
  EXPECT_TRUE(h.run_until_group(expected, h.now() + sim::sec(5)));
  // The "network fault" affecting 4's clock-sync traffic ends:
  h.cluster().network().clear_rules();
  // Its fail-aware clock resynchronizes and it rejoins via the join
  // protocol (paper §2).

  EXPECT_TRUE(
      h.run_until_group(util::ProcessSet::full(5), h.now() + sim::sec(20)));
  const auto errors = h.check_view_agreement();
  EXPECT_TRUE(errors.empty());
}

TEST(GmsTimed, StallBeyondSigmaIsPerformanceFailure) {
  // A member stalled well past σ misses its decider turns; the group
  // excludes it (it is not timely), then re-admits it once it behaves.
  SimHarness h(cfg_n(5, 80));
  form(h);
  h.faults().stall_at(h.now() + sim::msec(50), 3, sim::sec(2));
  util::ProcessSet expected = util::ProcessSet::full(5);
  expected.erase(3);
  EXPECT_TRUE(h.run_until_group(expected, h.now() + sim::sec(5)))
      << "stalled member not excluded";
  EXPECT_TRUE(
      h.run_until_group(util::ProcessSet::full(5), h.now() + sim::sec(20)))
      << "recovered member not re-admitted";
}

// ---------------------------------------------------------------------------
// Decision deadline and handoff (§2: "a decision message at most D after
// assuming the role")
// ---------------------------------------------------------------------------

/// Step until some member newly takes the decider role (its decision not
/// yet sent) and return it; kNoProcess if nobody does within a second.
ProcessId step_to_role_handoff(SimHarness& h) {
  const auto n = static_cast<ProcessId>(h.n());
  std::vector<bool> had(n);
  for (ProcessId p = 0; p < n; ++p) had[p] = h.node(p).has_decider_role();
  for (int i = 0; i < 10000; ++i) {
    h.run_for(sim::usec(100));
    for (ProcessId p = 0; p < n; ++p) {
      const bool has = h.node(p).has_decider_role();
      if (has && !had[p]) return p;
      had[p] = has;
    }
  }
  return kNoProcess;
}

/// Step until `p`'s decision counter passes `before`; returns the time.
sim::SimTime step_to_decision(SimHarness& h, ProcessId p,
                              std::uint64_t before, sim::SimTime limit) {
  while (h.now() < limit) {
    h.run_for(sim::usec(100));
    if (h.node(p).decisions_sent() > before) return h.now();
  }
  return sim::kNever;
}

// Sync-clock drift and the 100 µs stepping grain.
constexpr sim::Duration kStepSlack = sim::usec(500);

TEST(GmsTimed, DecisionDeadlineCountsFromFirstFreshProposal) {
  // A steady stream of fresh proposals must not postpone the decision:
  // the decider sends at most kProposalBatchDelay after the first one.
  SimHarness h(cfg_n(3, 21));
  form(h);
  h.run_for(sim::sec(1));
  const ProcessId d = step_to_role_handoff(h);
  ASSERT_NE(d, kNoProcess);
  const std::uint64_t before = h.node(d).decisions_sent();
  const sim::SimTime first = h.now();
  h.propose(d, 100);
  for (int i = 1; i < 20; ++i)
    h.cluster().simulator().at(first + i * sim::msec(1),
                               [&h, d, i] { h.propose(d, 100 + i); });
  const sim::SimTime sent =
      step_to_decision(h, d, before, first + sim::msec(50));
  ASSERT_NE(sent, sim::kNever);
  EXPECT_LE(sent - first, TimewheelNode::kProposalBatchDelay + kStepSlack);
}

TEST(GmsTimed, SuccessorHoldingProposalsDecidesWithinBatchDelay) {
  // A proposal the decider never received reaches its successor first.
  // When the role arrives the successor already holds unordered work, so
  // it decides within kProposalBatchDelay, not after the idle D/2.
  SimHarness h(cfg_n(3, 22));
  form(h);
  h.run_for(sim::sec(1));
  const ProcessId d = step_to_role_handoff(h);
  ASSERT_NE(d, kNoProcess);
  const ProcessId q = h.node(d).group().successor_of(d);
  const ProcessId p = h.node(q).group().successor_of(q);
  ASSERT_NE(p, d);
  h.cluster().network().arm_drop(p, net::kind_byte(net::MsgKind::proposal),
                                 util::ProcessSet{d}, 1);
  h.propose(p, 7);
  const std::uint64_t before = h.node(q).decisions_sent();
  ASSERT_EQ(step_to_role_handoff(h), q);
  const sim::SimTime assumed = h.now();
  const sim::SimTime sent =
      step_to_decision(h, q, before, assumed + sim::msec(50));
  ASSERT_NE(sent, sim::kNever);
  EXPECT_LE(sent - assumed, TimewheelNode::kProposalBatchDelay + kStepSlack);
  h.run_for(sim::sec(1));
  for (ProcessId m = 0; m < 3; ++m)
    EXPECT_EQ(h.delivered(m).size(), 1u) << "p" << m;
}

TEST(GmsTimed, LostHandoffDatagramRaisesNoSuspicion) {
  // One lost datagram must not start an election: the broadcast copy of a
  // decision is lost towards the successor, and the handoff copy the
  // decider sends it alongside still passes the role on.
  SimHarness h(cfg_n(5, 23));
  form(h);
  h.run_for(sim::sec(1));
  const ProcessId d = step_to_role_handoff(h);
  ASSERT_NE(d, kNoProcess);
  const ProcessId q = h.node(d).group().successor_of(d);
  h.cluster().network().arm_drop(d, net::kind_byte(net::MsgKind::decision),
                                 util::ProcessSet{q}, 1);
  h.run_for(sim::sec(2));
  EXPECT_EQ(h.cluster().network().stats().total.dropped_rule, 1u);
  for (ProcessId p = 0; p < 5; ++p) {
    EXPECT_EQ(h.node(p).stats().suspicions_raised, 0u) << "p" << p;
    EXPECT_EQ(h.node(p).stats().no_decisions_sent, 0u) << "p" << p;
  }
  EXPECT_TRUE(h.check_all_invariants().empty());
}

TEST(GmsTimed, LateMessageStormDoesNotSplitTheGroup) {
  // Persistent performance failures (late messages beyond δ) degrade but
  // must never produce two concurrent groups.
  HarnessConfig cfg = cfg_n(5, 81);
  cfg.delays.late_prob = 0.10;
  cfg.delays.late_extra_max = sim::msec(80);
  SimHarness h(cfg);
  h.start();
  h.run_until(sim::sec(30));
  EXPECT_TRUE(h.check_single_decider().empty());
  EXPECT_TRUE(h.check_view_agreement().empty());
  EXPECT_TRUE(h.check_majority().empty());
}

}  // namespace
}  // namespace tw::gms
