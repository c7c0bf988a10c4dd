// End-to-end broadcast-semantics tests on the full stack: the 3×3
// (order × atomicity) matrix under failure-free and crashy conditions, and
// the §4.3 undeliverable-proposal machinery driven through a real scenario.
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

void form(SimHarness& h) {
  h.start();
  ASSERT_TRUE(h.run_until_group(
      util::ProcessSet::full(static_cast<ProcessId>(h.n())), sim::sec(15)));
}

struct SemanticsCase {
  bcast::Order order;
  bcast::Atomicity atomicity;
};

class SemanticsMatrix : public ::testing::TestWithParam<SemanticsCase> {};

TEST_P(SemanticsMatrix, AllMembersDeliverEverythingFailureFree) {
  const auto prm = GetParam();
  SimHarness h(cfg_n(5, 11));
  form(h);
  for (std::uint64_t i = 0; i < 25; ++i) {
    h.propose(static_cast<ProcessId>(i % 5), 100 + i, prm.order,
              prm.atomicity);
    h.run_for(sim::msec(15));
  }
  h.run_for(sim::sec(3));
  for (ProcessId p = 0; p < 5; ++p)
    EXPECT_EQ(h.delivered(p).size(), 25u)
        << "p" << p << " " << bcast::order_name(prm.order) << "/"
        << bcast::atomicity_name(prm.atomicity);
}

TEST_P(SemanticsMatrix, SurvivorsAgreeAcrossACrash) {
  const auto prm = GetParam();
  SimHarness h(cfg_n(5, 12));
  form(h);
  for (std::uint64_t i = 0; i < 10; ++i) {
    h.propose(static_cast<ProcessId>(i % 5), 200 + i, prm.order,
              prm.atomicity);
    h.run_for(sim::msec(15));
  }
  h.faults().crash_at(h.now() + sim::msec(5), 2);
  util::ProcessSet expected = util::ProcessSet::full(5);
  expected.erase(2);
  ASSERT_TRUE(h.run_until_group(expected, h.now() + sim::sec(10)));
  for (std::uint64_t i = 0; i < 5; ++i) {
    h.propose(0, 300 + i, prm.order, prm.atomicity);
    h.run_for(sim::msec(15));
  }
  h.run_for(sim::sec(3));
  // Survivors delivered the same multiset of tags...
  std::multiset<std::uint64_t> ref;
  for (const auto& rec : h.delivered(0))
    ref.insert(SimHarness::payload_tag(rec.payload));
  EXPECT_GE(ref.size(), 5u);
  for (ProcessId p : {1u, 3u, 4u}) {
    std::multiset<std::uint64_t> got;
    for (const auto& rec : h.delivered(p))
      got.insert(SimHarness::payload_tag(rec.payload));
    EXPECT_EQ(got, ref) << "p" << p;
  }
  // ...and for ordered semantics, in the same sequence.
  if (prm.order != bcast::Order::unordered) {
    std::vector<std::uint64_t> seq0;
    for (const auto& rec : h.delivered(0))
      seq0.push_back(SimHarness::payload_tag(rec.payload));
    for (ProcessId p : {1u, 3u, 4u}) {
      std::vector<std::uint64_t> seq;
      for (const auto& rec : h.delivered(p))
        seq.push_back(SimHarness::payload_tag(rec.payload));
      EXPECT_EQ(seq, seq0) << "p" << p;
    }
  }
  EXPECT_TRUE(h.check_all_invariants().empty());
}

std::vector<SemanticsCase> matrix() {
  std::vector<SemanticsCase> out;
  for (auto order : {bcast::Order::unordered, bcast::Order::total,
                     bcast::Order::time})
    for (auto atomicity : {bcast::Atomicity::weak, bcast::Atomicity::strong,
                           bcast::Atomicity::strict})
      out.push_back({order, atomicity});
  return out;
}

std::string case_name(const ::testing::TestParamInfo<SemanticsCase>& info) {
  return std::string(bcast::order_name(info.param.order)) + "_" +
         bcast::atomicity_name(info.param.atomicity);
}

INSTANTIATE_TEST_SUITE_P(All, SemanticsMatrix, ::testing::ValuesIn(matrix()),
                         case_name);

// ---------------------------------------------------------------------------
// Strong and strict delivery at the ring's pace, and loss repair on each
// payload's own clock.
// ---------------------------------------------------------------------------

/// Simulated time from `proposed` until every member delivered `tag`
/// (kNever if some member never did).
sim::Duration all_member_latency(const SimHarness& h, std::uint64_t tag,
                                 sim::SimTime proposed) {
  sim::SimTime last = -1;
  for (ProcessId p = 0; p < static_cast<ProcessId>(h.n()); ++p) {
    sim::SimTime at = sim::kNever;
    for (const auto& rec : h.delivered(p))
      if (SimHarness::payload_tag(rec.payload) == tag) at = rec.at;
    if (at == sim::kNever) return sim::kNever;
    last = std::max(last, at);
  }
  return last - proposed;
}

TEST(AckPace, LoneStrongAndStrictUpdatesReachEveryMemberPromptly) {
  // The ack bits a strong or strict update waits for travel on decisions.
  // A decider that would add a missing ack decides at the ring's pace, not
  // after the idle decision delay, so on an idle 5-member ring a lone
  // strong update reaches every member within about one majority of ring
  // hops and a strict one within about one lap.
  const std::pair<bcast::Atomicity, sim::Duration> cases[] = {
      {bcast::Atomicity::strong, sim::msec(10)},
      {bcast::Atomicity::strict, sim::msec(15)},
  };
  for (const auto& [atomicity, bound] : cases) {
    SimHarness h(cfg_n(5, 31));
    form(h);
    h.run_for(sim::sec(1));
    const sim::SimTime proposed = h.now();
    h.propose(2, 42, bcast::Order::total, atomicity);
    h.run_for(sim::sec(1));
    EXPECT_LE(all_member_latency(h, 42, proposed), bound)
        << bcast::atomicity_name(atomicity);
    EXPECT_TRUE(h.check_all_invariants().empty());
  }
}

TEST(LossRepair, LosslessRunAsksForNoPayload) {
  // Every member proposes every 200 µs, so decisions often reach a member
  // before the proposals they order. A copy still in flight is never asked
  // for: with no loss, nobody sends a retransmit request.
  SimHarness h(cfg_n(5, 32));
  form(h);
  h.run_for(sim::sec(1));
  const sim::SimTime load_start = h.now();
  std::uint64_t tag = 0;
  while (h.now() < load_start + sim::msec(300)) {
    for (ProcessId p = 0; p < 5; ++p) h.propose(p, ++tag);
    h.run_for(sim::usec(200));
  }
  h.run_for(sim::sec(1));
  for (ProcessId p = 0; p < 5; ++p) {
    EXPECT_EQ(h.node(p).stats().retransmit_requests_sent, 0u) << "p" << p;
    EXPECT_EQ(h.delivered(p).size(), tag) << "p" << p;
  }
  EXPECT_TRUE(h.check_all_invariants().empty());
}

TEST(LossRepair, ANewLossIsAskedForWhenOverdueDuringAnotherBackoff) {
  // p1 misses p3's update, and its first two requests for it are lost, so
  // that repair backs off. Meanwhile p1 misses p4's update too. The new
  // loss is asked for once overdue, δ after it was sent, not at the old
  // repair's next step.
  SimHarness h(cfg_n(5, 33));
  form(h);
  h.run_for(sim::sec(1));
  auto& net_layer = h.cluster().network();
  net_layer.arm_drop(3, net::kind_byte(net::MsgKind::proposal),
                     util::ProcessSet{1}, 1);
  net_layer.arm_drop(1, net::kind_byte(net::MsgKind::retransmit_request),
                     util::ProcessSet::full(5), 2);
  h.propose(3, 1, bcast::Order::unordered);
  const sim::SimTime limit = h.now() + sim::msec(200);
  while (h.node(1).stats().retransmit_requests_sent < 2 && h.now() < limit)
    h.run_for(sim::usec(100));
  ASSERT_EQ(h.node(1).stats().retransmit_requests_sent, 2u);
  net_layer.arm_drop(4, net::kind_byte(net::MsgKind::proposal),
                     util::ProcessSet{1}, 1);
  const sim::SimTime proposed = h.now();
  h.propose(4, 2, bcast::Order::unordered);
  h.run_for(sim::sec(1));
  const auto& nc = h.node(1).config();
  sim::SimTime repaired = sim::kNever;
  for (const auto& rec : h.delivered(1))
    if (SimHarness::payload_tag(rec.payload) == 2) repaired = rec.at;
  // Overdue δ after it was sent; the slack covers the synchronized clocks'
  // spread and the answer's transit.
  EXPECT_LE(repaired - proposed, nc.delta + sim::msec(5));
  for (ProcessId p = 0; p < 5; ++p)
    EXPECT_EQ(h.delivered(p).size(), 2u) << "p" << p;
  EXPECT_TRUE(h.check_all_invariants().empty());
}

// ---------------------------------------------------------------------------
// §4.3 end-to-end: a lost proposal of a departed member must be delivered
// by NOBODY, and its FIFO successors cascade.
// ---------------------------------------------------------------------------

TEST(Undeliverable, LostProposalOfDepartedMemberDeliveredByNobody) {
  SimHarness h(cfg_n(5, 13));
  form(h);
  h.run_for(sim::msec(200));

  // Member 4 proposes a total-order update whose PROPOSAL datagram is lost
  // to everyone (and keeps being lost on re-broadcast); the oal may list it
  // (the decider never gets the payload either, so in this variant it is
  // simply never ordered). Then 4 crashes: nobody can ever recover the
  // payload.
  auto& net_layer = h.cluster().network();
  net_layer.arm_drop(4, net::kind_byte(net::MsgKind::proposal),
                     util::ProcessSet::full(5), 1 << 20);
  h.propose(4, 444, bcast::Order::total);
  h.propose(4, 445, bcast::Order::total);  // FIFO successor
  h.run_for(sim::msec(300));
  h.faults().crash_at(h.now() + sim::msec(10), 4);
  util::ProcessSet expected = util::ProcessSet::full(5);
  expected.erase(4);
  ASSERT_TRUE(h.run_until_group(expected, h.now() + sim::sec(10)));

  // Later updates still flow.
  for (std::uint64_t i = 0; i < 5; ++i) {
    h.propose(0, 500 + i, bcast::Order::total);
    h.run_for(sim::msec(20));
  }
  h.run_for(sim::sec(3));

  for (ProcessId p = 0; p < 4; ++p) {
    for (const auto& rec : h.delivered(p)) {
      const auto tag = SimHarness::payload_tag(rec.payload);
      EXPECT_NE(tag, 444u) << "p" << p << " delivered a lost proposal";
      EXPECT_NE(tag, 445u) << "p" << p << " delivered its FIFO successor";
    }
    // And the service made progress past the loss.
    int later = 0;
    for (const auto& rec : h.delivered(p))
      if (SimHarness::payload_tag(rec.payload) >= 500) ++later;
    EXPECT_EQ(later, 5) << "p" << p;
  }
  EXPECT_TRUE(h.check_all_invariants().empty());
}

TEST(Undeliverable, OrderedProposalHeldByOneSurvivorIsRecovered) {
  // Contrast case: the proposal reaches ONE survivor before the proposer
  // dies. §4.3's "lost" rule must NOT fire — the survivor's copy makes it
  // deliverable everywhere via retransmission.
  SimHarness h(cfg_n(5, 14));
  form(h);
  h.run_for(sim::msec(200));

  // Drop member 4's proposal towards everyone EXCEPT member 0.
  h.cluster().network().arm_drop(4, net::kind_byte(net::MsgKind::proposal),
                                 util::ProcessSet({1, 2, 3}), 1 << 20);
  h.propose(4, 777, bcast::Order::total);
  h.run_for(sim::msec(400));  // let a decider order it from 0's relay / 4
  h.faults().crash_at(h.now() + sim::msec(10), 4);
  util::ProcessSet expected = util::ProcessSet::full(5);
  expected.erase(4);
  ASSERT_TRUE(h.run_until_group(expected, h.now() + sim::sec(10)));
  h.run_for(sim::sec(3));

  // All survivors deliver it exactly once (retransmission recovered it).
  for (ProcessId p = 0; p < 4; ++p) {
    int count = 0;
    for (const auto& rec : h.delivered(p))
      if (SimHarness::payload_tag(rec.payload) == 777) ++count;
    EXPECT_EQ(count, 1) << "p" << p;
  }
  EXPECT_TRUE(h.check_all_invariants().empty());
}

TEST(Undeliverable, WeakUnorderedFromCrashedProposerViaDpd) {
  // A weak+unordered update delivered early by some members before its
  // proposer crashes must become stable for everyone that got it — the dpd
  // mechanism orders it post-mortem (§4.3 "removal of undeliverable
  // proposals": dpd entries are appended so atomicity holds).
  SimHarness h(cfg_n(5, 15));
  form(h);
  h.run_for(sim::msec(200));
  h.propose(4, 888, bcast::Order::unordered, bcast::Atomicity::weak);
  h.run_for(sim::msec(50));  // early delivery at receivers
  h.faults().crash_at(h.now(), 4);
  util::ProcessSet expected = util::ProcessSet::full(5);
  expected.erase(4);
  ASSERT_TRUE(h.run_until_group(expected, h.now() + sim::sec(10)));
  h.run_for(sim::sec(2));
  for (ProcessId p = 0; p < 4; ++p) {
    int count = 0;
    for (const auto& rec : h.delivered(p))
      if (SimHarness::payload_tag(rec.payload) == 888) ++count;
    EXPECT_EQ(count, 1) << "p" << p;
  }
  EXPECT_TRUE(h.check_all_invariants().empty());
}

}  // namespace
}  // namespace tw::gms
