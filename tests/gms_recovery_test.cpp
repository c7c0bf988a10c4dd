// Crash-recovery: durable proposal-id continuity, zombie rehabilitation via
// solicited state transfer, delivery-watermark safety across restarts, and
// oracle-checked crash/recover + store-fault torture plans.
#include <gtest/gtest.h>

#include <string>

#include "gms/sim_harness.hpp"
#include "net/msg_kind.hpp"
#include "torture/fault_plan.hpp"
#include "torture/oracle.hpp"

namespace tw::gms {
namespace {

HarnessConfig cfg_n(int n, std::uint64_t seed) {
  HarnessConfig cfg;
  cfg.n = n;
  cfg.seed = seed;
  return cfg;
}

sim::SimTime form_group(SimHarness& h) {
  h.start();
  EXPECT_TRUE(h.run_until_group(
      util::ProcessSet::full(static_cast<ProcessId>(h.n())), sim::sec(15)))
      << h.cluster().trace_log().dump();
  return h.now();
}

/// Step until `p`'s NEXT incarnation is up and clean (not recovered-dirty,
/// not awaiting a state transfer) or the deadline passes. Guarding on the
/// durable incarnation counter keeps the loop from returning while the
/// process is still down (a crashed node trivially reports "not dirty").
bool run_until_clean(SimHarness& h, ProcessId p, std::uint64_t incarnation,
                     sim::SimTime deadline) {
  while (h.now() < deadline) {
    h.run_for(sim::msec(20));
    if (h.cluster().processes().is_up(p) &&
        h.node(p).incarnation() >= incarnation &&
        !h.node(p).recovered_dirty() && !h.node(p).awaiting_state())
      return true;
  }
  return false;
}

TEST(GmsRecovery, FastRestartCannotReuseProposalIds) {
  // Regression for the pre-durable clock heuristic: a process whose
  // hardware clock reads EARLIER after a restart (step back + fast reboot)
  // must still issue fresh proposal ids — they now come from the durable
  // reservation watermark, not the clock.
  SimHarness h(cfg_n(5, 21));
  form_group(h);
  for (std::uint64_t i = 0; i < 6; ++i) {
    h.propose(2, 100 + i, bcast::Order::total);
    h.run_for(sim::msec(40));
  }
  h.run_for(sim::sec(1));
  const ProposalSeq reserved = h.stable_store(2).kernel().reserved_seq;
  ASSERT_GT(reserved, 0u);

  h.faults().crash_at(h.now() + sim::msec(10), 2);
  h.run_for(sim::msec(30));
  // An hour backwards: the clock heuristic would restart the sequence far
  // below the ids already spent.
  h.cluster().processes().clock_step(2, -sim::sec(3600));
  h.cluster().processes().recover(2);
  ASSERT_TRUE(run_until_clean(h, 2, 2, h.now() + sim::sec(30)))
      << h.cluster().trace_log().dump();
  ASSERT_TRUE(
      h.run_until_group(util::ProcessSet::full(5), h.now() + sim::sec(20)));

  h.propose(2, 777, bcast::Order::total);
  h.run_for(sim::sec(3));
  bool found = false;
  for (const auto& rec : h.delivered(0)) {
    if (SimHarness::payload_tag(rec.payload) != 777) continue;
    found = true;
    EXPECT_EQ(rec.pid.proposer, 2u);
    EXPECT_GE(rec.pid.seq, reserved)
        << "post-restart proposal reused a pre-crash id";
  }
  EXPECT_TRUE(found) << "post-restart proposal was never delivered";
  EXPECT_GT(h.node(2).incarnation(), 1u);
  EXPECT_TRUE(h.check_all_invariants().empty());
}

TEST(GmsRecovery, ZombieIsRehabilitatedBySolicitedStateTransfer) {
  // Crash + recover FASTER than failure detection: the group never excludes
  // the process, so no join integration (and its state transfer) ever
  // happens. The recovered process must solicit its own re-baselining.
  SimHarness h(cfg_n(5, 22));
  form_group(h);
  for (std::uint64_t i = 0; i < 5; ++i) {
    h.propose(static_cast<ProcessId>(i % 5), 300 + i, bcast::Order::total);
    h.run_for(sim::msec(30));
  }
  h.run_for(sim::sec(1));

  const sim::SimTime t = h.now();
  // A 200µs blink: no in-flight datagram is lost, so the per-message
  // failure detectors never fire and the group keeps p3 as a member.
  h.faults().crash_at(t + sim::msec(5), 3);
  h.faults().recover_at(t + sim::msec(5) + sim::usec(200), 3);
  ASSERT_TRUE(run_until_clean(h, 3, 2, t + sim::sec(30)))
      << h.cluster().trace_log().dump();
  ASSERT_TRUE(
      h.run_until_group(util::ProcessSet::full(5), h.now() + sim::sec(20)));

  // More traffic, then verify the rehabilitated replica tracks the group.
  for (std::uint64_t i = 0; i < 4; ++i) {
    h.propose(0, 350 + i, bcast::Order::total);
    h.run_for(sim::msec(30));
  }
  h.run_for(sim::sec(2));
  EXPECT_EQ(h.app_state(3), h.app_state(0)) << "rehabilitated state differs";
  EXPECT_GE(h.node(3).stats().rejoin_requests_sent, 1u)
      << "zombie never solicited a state transfer";
  EXPECT_GE(h.node(3).stats().rehabilitations, 1u);
  EXPECT_EQ(h.node(3).buffered_delivery_count(), 0u);
  EXPECT_TRUE(h.check_all_invariants().empty());
}

/// p's events of `kind` in the merged trace, in order.
std::vector<obs::Event> events_of(const SimHarness& h, ProcessId p,
                                  obs::EvKind kind) {
  std::vector<obs::Event> out;
  for (const obs::Event& e : h.merged_trace())
    if (e.p == p && e.kind == kind) out.push_back(e);
  return out;
}

TEST(GmsRecovery, ZombieRejoinSolicitationBacksOffAndRotatesPastAStaleDonor) {
  // A zombie whose solicitations go unanswered walks the ring with backoff.
  // After p3's blink it learns the group and asks p0 (dropped); it must
  // not ask again before the backoff, then asks p1, whose copy arrives
  // past the staleness bound and is refused by p1's round gate; p2's copy
  // is dropped too; the walk skips p3 itself and p0 answers. Meanwhile the
  // team excludes p3, re-integrates it once (p0 is its ring successor, so
  // the integrating decider; that transfer is dropped) and excludes it
  // again. Decisions to p3 and its joins are dropped, so p3 still believes
  // it is listed and keeps soliciting instead of joining.
  HarnessConfig cfg = cfg_n(4, 22);
  SimHarness h(cfg);
  form_group(h);
  for (std::uint64_t i = 0; i < 4; ++i) {
    h.propose(static_cast<ProcessId>(i % 4), 500 + i, bcast::Order::total);
    h.run_for(sim::msec(30));
  }
  h.run_for(sim::sec(1));

  const sim::Duration cycle = cfg.node.cycle_len(4);
  const auto rejoin = net::kind_byte(net::MsgKind::rejoin_request);
  const util::ProcessSet others{0, 1, 2};
  const sim::SimTime t = h.now();
  h.faults().crash_at(t + sim::msec(5), 3);
  h.faults().recover_at(t + sim::msec(5) + sim::usec(200), 3);
  h.faults().drop_at(t + sim::msec(6), 3, rejoin, util::ProcessSet{0}, 1);
  h.faults().delay_at(t + sim::msec(6), 3, rejoin, util::ProcessSet{1}, 1,
                      2 * cycle);
  h.faults().drop_at(t + sim::msec(6), 3, rejoin, util::ProcessSet{2}, 1);
  h.faults().drop_at(t + sim::msec(6), 3, net::kind_byte(net::MsgKind::join),
                     others, 100000);
  h.faults().drop_at(t + sim::msec(6), 0,
                     net::kind_byte(net::MsgKind::state_transfer),
                     util::ProcessSet{3}, 1);
  const sim::SimTime deadline = t + sim::sec(8);
  while (h.node(3).stats().rejoin_requests_sent == 0 && h.now() < deadline)
    h.run_for(sim::msec(1));
  ASSERT_EQ(h.node(3).stats().rejoin_requests_sent, 1u)
      << h.cluster().trace_log().dump();
  for (ProcessId q : others)
    h.faults().drop_at(h.now(), q, net::kind_byte(net::MsgKind::decision),
                       util::ProcessSet{3}, 100000);

  while (h.node(3).recovered_dirty() && h.now() < deadline)
    h.run_for(sim::msec(10));
  ASSERT_FALSE(h.node(3).recovered_dirty()) << h.cluster().trace_log().dump();
  const auto asks = events_of(h, 3, obs::EvKind::rejoin_request);
  ASSERT_EQ(asks.size(), 4u);
  EXPECT_EQ(asks[0].a, 0u);
  EXPECT_EQ(asks[1].a, 1u) << "the retry did not move on to another member";
  EXPECT_EQ(asks[2].a, 2u);
  EXPECT_EQ(asks[3].a, 0u) << "the walk did not skip the zombie itself";
  EXPECT_GE(asks[1].t_sync() - asks[0].t_sync(), 2 * cycle)
      << "retried before the backoff";
  const std::uint8_t stale_rejoin = static_cast<std::uint8_t>(
      (static_cast<std::uint8_t>(RoundMsg::rejoin_request) << 4) |
      static_cast<std::uint8_t>(RoundDrop::stale));
  bool refused = false;
  for (const obs::Event& e : events_of(h, 1, obs::EvKind::round_drop))
    refused = refused || e.arg == stale_rejoin;
  EXPECT_TRUE(refused) << "p1 did not refuse the late solicitation";
  EXPECT_GE(h.node(1).stats().stale_dropped, 1u);
  EXPECT_EQ(h.node(3).stats().rehabilitations, 1u);

  h.faults().clear_rules_at(h.now() + sim::msec(1));
  ASSERT_TRUE(
      h.run_until_group(util::ProcessSet::full(4), h.now() + sim::sec(20)));
  ASSERT_TRUE(run_until_clean(h, 3, 2, h.now() + sim::sec(10)));
  h.run_for(sim::sec(1));
  EXPECT_EQ(h.app_state(3), h.app_state(0));
  EXPECT_EQ(h.node(3).buffered_delivery_count(), 0u);
  EXPECT_TRUE(h.check_all_invariants().empty());
}

TEST(GmsRecovery, DetectedCrashRejoinKeepsDeliveryWatermarksSafe) {
  // Long downtime: the group excludes the member, re-forms, and readmits it
  // through the join path. Across both incarnations the member must never
  // deliver the same proposal twice (durable watermarks + transfer marks).
  SimHarness h(cfg_n(5, 23));
  form_group(h);
  for (std::uint64_t i = 0; i < 8; ++i) {
    h.propose(static_cast<ProcessId>(i % 5), 400 + i, bcast::Order::total);
    h.run_for(sim::msec(30));
  }
  h.run_for(sim::sec(1));
  h.faults().crash_at(h.now() + sim::msec(10), 1);
  util::ProcessSet without1 = util::ProcessSet::full(5);
  without1.erase(1);
  ASSERT_TRUE(h.run_until_group(without1, h.now() + sim::sec(10)));
  for (std::uint64_t i = 0; i < 5; ++i) {
    h.propose(0, 450 + i, bcast::Order::total);
    h.run_for(sim::msec(30));
  }
  h.cluster().processes().recover(1);
  ASSERT_TRUE(
      h.run_until_group(util::ProcessSet::full(5), h.now() + sim::sec(20)));
  ASSERT_TRUE(run_until_clean(h, 1, 2, h.now() + sim::sec(10)));
  h.run_for(sim::sec(2));
  EXPECT_EQ(h.app_state(1), h.app_state(0));
  // check_delivery_safety's per-node duplicate check spans incarnations,
  // because delivered() accumulates across the whole run.
  EXPECT_TRUE(h.check_all_invariants().empty());
  EXPECT_GT(h.stable_store(1).kernel().incarnation, 1u);
}

TEST(GmsRecovery, RecoveredJoinerStarvedOfStateTransfersGivesUp) {
  // The team excludes crashed p1 and re-integrates it as a joiner, but no
  // state transfer ever reaches it. After state_retry_limit requests p1
  // stops waiting: it hands its buffered deliveries over, is no longer
  // recovered-dirty, and traces one rehabilitation that gave up (arg 2).
  HarnessConfig cfg = cfg_n(5, 23);
  SimHarness h(cfg);
  form_group(h);
  for (std::uint64_t i = 0; i < 5; ++i) {
    h.propose(static_cast<ProcessId>(i % 5), 600 + i, bcast::Order::total);
    h.run_for(sim::msec(30));
  }
  h.run_for(sim::sec(1));
  h.faults().crash_at(h.now() + sim::msec(10), 1);
  util::ProcessSet without1 = util::ProcessSet::full(5);
  without1.erase(1);
  ASSERT_TRUE(h.run_until_group(without1, h.now() + sim::sec(10)));
  for (ProcessId donor : without1)
    h.faults().drop_at(h.now(), donor,
                       net::kind_byte(net::MsgKind::state_transfer),
                       util::ProcessSet{1}, 100000);
  auto& sent = h.cluster().network().stats().by_kind;
  const auto requests = net::kind_byte(net::MsgKind::state_request);
  const std::uint64_t requests_before = sent[requests].sent;
  h.cluster().processes().recover(1);
  ASSERT_TRUE(
      h.run_until_group(util::ProcessSet::full(5), h.now() + sim::sec(20)));
  for (std::uint64_t i = 0; i < 3; ++i) {
    h.propose(0, 650 + i, bcast::Order::total);
    h.run_for(sim::msec(30));
  }
  EXPECT_TRUE(h.node(1).awaiting_state());
  EXPECT_TRUE(h.node(1).recovered_dirty());
  EXPECT_GE(h.node(1).buffered_delivery_count(), 1u);

  const sim::SimTime deadline = h.now() + sim::sec(30);
  while (h.node(1).awaiting_state() && h.now() < deadline)
    h.run_for(sim::msec(10));
  EXPECT_FALSE(h.node(1).awaiting_state());
  EXPECT_FALSE(h.node(1).recovered_dirty());
  EXPECT_EQ(h.node(1).buffered_delivery_count(), 0u);
  EXPECT_EQ(h.node(1).stats().state_transfers_received, 0u);
  // Attempts 1..state_retry_limit walk the ring from p1's successor; in a
  // ring of five, attempt 5 lands on p1 itself and sends nothing.
  const auto asks = events_of(h, 1, obs::EvKind::rejoin_retry);
  ASSERT_EQ(asks.size(), 5u);
  for (std::size_t i = 0; i < asks.size(); ++i) {
    EXPECT_EQ(asks[i].arg, 0u);
    EXPECT_NE(asks[i].b, 1u);
  }
  EXPECT_EQ(asks.back().a,
            static_cast<std::uint64_t>(cfg.node.state_retry_limit));
  EXPECT_EQ(sent[requests].sent - requests_before, asks.size());
  const auto rehab = events_of(h, 1, obs::EvKind::rehabilitated);
  ASSERT_EQ(rehab.size(), 1u);
  EXPECT_EQ(rehab[0].arg, 2u);
  EXPECT_EQ(h.node(1).stats().rehabilitations, 1u);
}

TEST(GmsRecovery, AStateTransferAheadOfItsDecisionIsTheJoinersOnlyOne) {
  // The integrating decider sends the decision that admits a joiner, then
  // its state transfer, and each datagram takes its own delay. With every
  // decision to the recovered p4 5 ms late the transfer lands first; it
  // already re-baselines p4, so admission must not wait for a second one.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    SimHarness h(cfg_n(5, seed));
    form_group(h);
    h.faults().crash_at(h.now() + sim::msec(10), 4);
    util::ProcessSet without4 = util::ProcessSet::full(5);
    without4.erase(4);
    ASSERT_TRUE(h.run_until_group(without4, h.now() + sim::sec(10)));
    for (ProcessId q : without4)
      h.cluster().network().arm_delay(
          q, net::kind_byte(net::MsgKind::decision), util::ProcessSet{4},
          100000, sim::msec(5));
    h.cluster().processes().recover(4);
    ASSERT_TRUE(
        h.run_until_group(util::ProcessSet::full(5), h.now() + sim::sec(10)));
    ASSERT_TRUE(run_until_clean(h, 4, 2, h.now() + sim::sec(10)));
    h.run_for(sim::sec(1));
    EXPECT_EQ(h.node(4).stats().state_transfers_received, 1u);
    EXPECT_TRUE(events_of(h, 4, obs::EvKind::rejoin_retry).empty())
        << "the joiner asked for a second transfer";
  }
}

TEST(GmsRecovery, HandWrittenCrashRecoverPlanPassesOracle) {
  // A fixed plan exercising both recovery shapes under the full oracle
  // (§3 safety + rehabilitation liveness): p1 is a zombie (200ms blink),
  // p2 a detected crash with seconds of downtime.
  torture::TortureConfig cfg;
  cfg.fault_start = sim::sec(3);
  cfg.fault_end = sim::sec(12);
  torture::FaultPlan plan;
  plan.cfg = cfg;
  plan.seed = 77;
  auto op = [](sim::SimTime at, torture::FaultType type, ProcessId p) {
    torture::FaultOp o;
    o.at = at;
    o.type = type;
    o.p = p;
    return o;
  };
  plan.ops.push_back(op(sim::sec(4), torture::FaultType::crash, 1));
  plan.ops.push_back(
      op(sim::sec(4) + sim::msec(200), torture::FaultType::recover, 1));
  plan.ops.push_back(op(sim::sec(6), torture::FaultType::crash, 2));
  plan.ops.push_back(op(sim::sec(9), torture::FaultType::recover, 2));
  std::uint64_t tag = 1;
  for (sim::SimTime w = cfg.fault_start + sim::msec(500); w < cfg.fault_end;
       w += sim::msec(400)) {
    torture::WorkloadOp wop;
    wop.at = w;
    wop.proposer = static_cast<ProcessId>(tag % 5);
    wop.tag = tag++;
    plan.workload.push_back(wop);
  }

  SimHarness h(torture::harness_config(plan));
  torture::apply_plan(plan, h);
  h.start();
  const torture::OracleReport report = torture::run_oracle(h, plan);
  EXPECT_TRUE(report.passed()) << report.to_string();
}

TEST(GmsRecovery, StoreFaultPlanPassesOracle) {
  // Storage under attack while processes crash around it: torn appends and
  // fsync failures on the crashing process, a media bit flip in its log.
  // The oracle must still see §3 safety and full rehabilitation.
  torture::TortureConfig cfg;
  cfg.fault_start = sim::sec(3);
  cfg.fault_end = sim::sec(12);
  torture::FaultPlan plan;
  plan.cfg = cfg;
  plan.seed = 78;
  auto op = [](sim::SimTime at, torture::FaultType type, ProcessId p) {
    torture::FaultOp o;
    o.at = at;
    o.type = type;
    o.p = p;
    return o;
  };
  {
    torture::FaultOp torn = op(sim::sec(3), torture::FaultType::store_torn, 1);
    torn.count = 2;
    torn.kind = 40;  // keep 40%
    plan.ops.push_back(torn);
  }
  plan.ops.push_back(op(sim::sec(4), torture::FaultType::crash, 1));
  plan.ops.push_back(
      op(sim::sec(4) + sim::msec(300), torture::FaultType::recover, 1));
  {
    torture::FaultOp flip = op(sim::sec(5), torture::FaultType::store_flip, 1);
    flip.kind = 0;  // the log
    flip.step = 12345;
    plan.ops.push_back(flip);
  }
  {
    torture::FaultOp fs = op(sim::sec(6), torture::FaultType::store_fsync, 1);
    fs.count = 3;
    plan.ops.push_back(fs);
  }
  plan.ops.push_back(op(sim::sec(7), torture::FaultType::crash, 1));
  plan.ops.push_back(op(sim::sec(9), torture::FaultType::recover, 1));
  std::uint64_t tag = 1;
  for (sim::SimTime w = cfg.fault_start + sim::msec(500); w < cfg.fault_end;
       w += sim::msec(400)) {
    torture::WorkloadOp wop;
    wop.at = w;
    wop.proposer = static_cast<ProcessId>(tag % 5);
    wop.tag = tag++;
    plan.workload.push_back(wop);
  }

  SimHarness h(torture::harness_config(plan));
  torture::apply_plan(plan, h);
  h.start();
  const torture::OracleReport report = torture::run_oracle(h, plan);
  EXPECT_TRUE(report.passed()) << report.to_string();
}

TEST(GmsRecovery, StorelessHarnessStillConverges) {
  // durable_store=false keeps the legacy volatile-only behavior working
  // (the clock heuristic and the join-path stopgap).
  HarnessConfig cfg = cfg_n(5, 24);
  cfg.durable_store = false;
  SimHarness h(cfg);
  form_group(h);
  h.faults().crash_at(h.now() + sim::msec(50), 2);
  util::ProcessSet without2 = util::ProcessSet::full(5);
  without2.erase(2);
  ASSERT_TRUE(h.run_until_group(without2, h.now() + sim::sec(10)));
  h.cluster().processes().recover(2);
  EXPECT_TRUE(
      h.run_until_group(util::ProcessSet::full(5), h.now() + sim::sec(20)))
      << h.cluster().trace_log().dump();
  EXPECT_TRUE(h.check_all_invariants().empty());
}

}  // namespace
}  // namespace tw::gms
