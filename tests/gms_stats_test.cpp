// NodeStats introspection: the counters must reflect what actually
// happened in well-understood scenarios.
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

TEST(NodeStats, FailureFreeCounters) {
  SimHarness h(cfg_n(5, 1));
  h.start();
  ASSERT_TRUE(h.run_until_group(util::ProcessSet::full(5), sim::sec(10)));
  h.run_for(sim::sec(5));
  std::uint64_t total_decisions = 0;
  for (ProcessId p = 0; p < 5; ++p) {
    const NodeStats& s = h.node(p).stats();
    total_decisions += s.decisions_sent;
    EXPECT_GT(s.decisions_sent, 5u) << "p" << p;     // rotation share
    EXPECT_EQ(s.views_installed, 1u) << "p" << p;    // just the formation
    EXPECT_EQ(s.no_decisions_sent, 0u) << "p" << p;  // no failures
    EXPECT_EQ(s.reconfigurations_sent, 0u) << "p" << p;
    EXPECT_EQ(s.wrong_suspicions, 0u) << "p" << p;
    EXPECT_EQ(s.exclusions, 0u) << "p" << p;
    EXPECT_EQ(s.state_transfers_sent, 0u) << "p" << p;
  }
  // Exactly one member created the initial group.
  int creators = 0;
  for (ProcessId p = 0; p < 5; ++p)
    if (h.node(p).stats().groups_created > 0) ++creators;
  EXPECT_EQ(creators, 1);
  EXPECT_GT(total_decisions, 25u);
}

TEST(NodeStats, ProposalsCounted) {
  SimHarness h(cfg_n(3, 2));
  h.start();
  ASSERT_TRUE(h.run_until_group(util::ProcessSet::full(3), sim::sec(10)));
  for (std::uint64_t i = 0; i < 7; ++i) h.propose(1, i);
  h.run_for(sim::sec(1));
  EXPECT_EQ(h.node(1).stats().proposals_sent, 7u);
  EXPECT_EQ(h.node(0).stats().proposals_sent, 0u);
}

TEST(NodeStats, SingleCrashCounters) {
  SimHarness h(cfg_n(5, 3));
  h.start();
  ASSERT_TRUE(h.run_until_group(util::ProcessSet::full(5), sim::sec(10)));
  h.faults().crash_at(h.now() + sim::msec(100), 2);
  util::ProcessSet expected = util::ProcessSet::full(5);
  expected.erase(2);
  ASSERT_TRUE(h.run_until_group(expected, h.now() + sim::sec(10)));
  std::uint64_t nds = 0, creations = 0, suspicions = 0;
  for (ProcessId p : expected) {
    const NodeStats& s = h.node(p).stats();
    nds += s.no_decisions_sent;
    creations += s.groups_created;
    suspicions += s.suspicions_raised;
    EXPECT_GE(s.views_installed, 2u) << "p" << p;  // formation + removal
  }
  EXPECT_EQ(creations, 2u);   // initial formation + the removal election
  EXPECT_GE(nds, 3u);         // N-2 ring members sent no-decisions
  EXPECT_GE(suspicions, 1u);
}

TEST(NodeStats, StateTransferCountersOnRejoin) {
  SimHarness h(cfg_n(5, 4));
  h.start();
  ASSERT_TRUE(h.run_until_group(util::ProcessSet::full(5), sim::sec(10)));
  h.faults().crash_at(h.now() + sim::msec(100), 4);
  util::ProcessSet expected = util::ProcessSet::full(5);
  expected.erase(4);
  ASSERT_TRUE(h.run_until_group(expected, h.now() + sim::sec(10)));
  h.cluster().processes().recover(4);
  ASSERT_TRUE(
      h.run_until_group(util::ProcessSet::full(5), h.now() + sim::sec(20)));
  EXPECT_GE(h.node(4).stats().state_transfers_received, 1u);
  std::uint64_t sent = 0;
  for (ProcessId p : expected) sent += h.node(p).stats().state_transfers_sent;
  EXPECT_GE(sent, 1u);
  // Stats reset across the crash: node 4's counters describe only its new
  // incarnation.
  EXPECT_EQ(h.node(4).stats().exclusions, 0u);
}

TEST(NodeStats, WrongSuspicionCounted) {
  SimHarness h(cfg_n(5, 5));
  h.start();
  ASSERT_TRUE(h.run_until_group(util::ProcessSet::full(5), sim::sec(10)));
  h.run_for(sim::sec(1));
  // Drop one decision towards two members only (every copy, so the
  // successor's handoff copy is lost too if it is one of them), and the
  // next two decision-kind datagrams too: the copies the two members pull
  // when they see no decision in time. The rest hold it and at least one
  // enters wrong-suspicion when the ring starts.
  h.cluster().network().arm_drop_message(
      h.node(0).believed_decider(),
      net::kind_byte(net::MsgKind::decision), util::ProcessSet({3, 4}), 3);
  h.run_for(sim::sec(4));
  std::uint64_t ws = 0;
  for (ProcessId p = 0; p < 5; ++p) ws += h.node(p).stats().wrong_suspicions;
  EXPECT_GE(ws, 1u);
  // And nobody got excluded (it was a false alarm).
  for (ProcessId p = 0; p < 5; ++p)
    EXPECT_EQ(h.node(p).stats().exclusions, 0u) << "p" << p;
}

TEST(NodeStats, MetricsSnapshotMirrorsNodeStatsAndNetCounters) {
  // The registry snapshot is the single read path the benches and the
  // torture oracle use; it must agree with direct NodeStats reads and
  // carry the simulated-network counters alongside them.
  SimHarness h(cfg_n(4, 6));
  h.start();
  ASSERT_TRUE(h.run_until_group(util::ProcessSet::full(4), sim::sec(10)));
  for (std::uint64_t i = 0; i < 3; ++i) h.propose(2, i);
  // One decision lost towards the decider's successor, so the run also
  // repairs a hop with a decision pull.
  const ProcessId decider = h.node(0).believed_decider();
  h.cluster().network().arm_drop_message(
      decider, net::kind_byte(net::MsgKind::decision),
      util::ProcessSet{h.node(0).group().successor_of(decider)}, 1);
  h.run_for(sim::sec(2));

  const obs::MetricsSnapshot snap = h.metrics();
  std::uint64_t pulls = 0, replies = 0;
  for (ProcessId p = 0; p < 4; ++p) {
    const NodeStats& s = h.node(p).stats();
    const std::string prefix = "gms.p" + std::to_string(p) + '.';
    EXPECT_EQ(snap.value(prefix + "decisions_sent"), s.decisions_sent);
    EXPECT_EQ(snap.value(prefix + "proposals_sent"), s.proposals_sent);
    EXPECT_EQ(snap.value(prefix + "views_installed"), s.views_installed);
    EXPECT_EQ(snap.value(prefix + "exclusions"), s.exclusions);
    EXPECT_EQ(snap.value(prefix + "decision_pulls"), s.decision_pulls);
    EXPECT_EQ(snap.value(prefix + "pull_replies"), s.pull_replies);
    pulls += s.decision_pulls;
    replies += s.pull_replies;
  }
  EXPECT_GE(pulls, 1u);
  EXPECT_GE(replies, 1u);
  EXPECT_EQ(snap.value("gms.p2.proposals_sent"), 3u);
  EXPECT_EQ(snap.sum_prefix("gms.") > 0, true);

  // sim::MessageStats rides along in the same snapshot.
  EXPECT_GT(snap.value("net.sent"), 0u);
  EXPECT_GT(snap.value("net.delivered"), 0u);
  EXPECT_GT(snap.value("net.kind.decision.sent"), 0u);
  EXPECT_EQ(snap.value("net.kind.decision_request.sent"), pulls);
  EXPECT_EQ(snap.value("net.dropped_corrupt"), 0u);

  // The merged trace exists and exports to parseable JSONL.
  const auto trace = h.merged_trace();
  std::uint64_t installs = 0;
  for (const obs::Event& e : trace)
    if (e.kind == obs::EvKind::view_install) ++installs;
  EXPECT_GE(installs, 4u);  // every member installed the formation view
  std::vector<obs::Event> parsed;
  ASSERT_TRUE(obs::parse_jsonl(h.trace_jsonl(), parsed));
  EXPECT_EQ(parsed.size(), trace.size());
}

}  // namespace
}  // namespace tw::gms
