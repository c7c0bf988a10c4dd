#include "sim/network.hpp"

#include <gtest/gtest.h>

#include <set>

#include "sim/fault.hpp"

namespace tw::sim {
namespace {

struct Rig {
  Simulator sim{1};
  ProcessService procs;
  DatagramNetwork net;
  std::vector<std::vector<std::pair<ProcessId, std::vector<std::byte>>>> rx;

  explicit Rig(int n, DelayModel delays = {}, SchedModel sched = {})
      : procs(sim, n, sched, 0.0, 0), net(sim, procs, delays), rx(static_cast<size_t>(n)) {
    for (ProcessId p = 0; p < static_cast<ProcessId>(n); ++p) {
      procs.install(p, ProcessService::Callbacks{
                           [] {},
                           [this, p](ProcessId from, std::span<const std::byte> d) {
                             rx[p].emplace_back(
                                 from,
                                 std::vector<std::byte>(d.begin(), d.end()));
                           }});
    }
  }

  static std::vector<std::byte> msg(std::uint8_t kind, std::uint8_t body) {
    return {std::byte{kind}, std::byte{body}};
  }
};

TEST(Network, BroadcastReachesAllOthersNotSelf) {
  Rig rig(4);
  rig.net.broadcast(1, Rig::msg(9, 42));
  rig.sim.run();
  EXPECT_TRUE(rig.rx[1].empty());
  for (ProcessId p : {0u, 2u, 3u}) {
    ASSERT_EQ(rig.rx[p].size(), 1u) << "p=" << p;
    EXPECT_EQ(rig.rx[p][0].first, 1u);
    EXPECT_EQ(rig.rx[p][0].second[1], std::byte{42});
  }
  EXPECT_EQ(rig.net.stats().total.sent, 3u);
  EXPECT_EQ(rig.net.stats().total.delivered, 3u);
}

TEST(Network, UnicastDeliversToTargetOnly) {
  Rig rig(3);
  rig.net.send(0, 2, Rig::msg(9, 7));
  rig.sim.run();
  EXPECT_TRUE(rig.rx[1].empty());
  ASSERT_EQ(rig.rx[2].size(), 1u);
}

TEST(Network, DeliveryDelayWithinDelta) {
  DelayModel m;
  m.min_delay = 100;
  m.mean_delay = 300;
  m.delta = 1000;
  Rig rig(2, m);
  SimTime sent_at = 0;
  rig.net.send(0, 1, Rig::msg(9, 1));
  rig.sim.run();
  const SimTime arrival = rig.sim.now();
  EXPECT_GE(arrival - sent_at, m.min_delay);
  // Arrival includes scheduling delay on top of transmission delay.
  EXPECT_LE(arrival - sent_at, m.delta + msec(10));
}

TEST(Network, LossDropsDatagrams) {
  DelayModel m;
  m.loss_prob = 1.0;
  Rig rig(2, m);
  rig.net.send(0, 1, Rig::msg(9, 1));
  rig.sim.run();
  EXPECT_TRUE(rig.rx[1].empty());
  EXPECT_EQ(rig.net.stats().total.dropped_loss, 1u);
}

TEST(Network, StatisticalLossRate) {
  DelayModel m;
  m.loss_prob = 0.3;
  Rig rig(2, m);
  const int n = 5000;
  for (int i = 0; i < n; ++i) rig.net.send(0, 1, Rig::msg(9, 1));
  rig.sim.run();
  const double rate =
      static_cast<double>(rig.net.stats().total.dropped_loss) / n;
  EXPECT_NEAR(rate, 0.3, 0.03);
}

TEST(Network, CrashedDestinationDrops) {
  Rig rig(2);
  rig.procs.crash(1);
  rig.net.send(0, 1, Rig::msg(9, 1));
  rig.sim.run();
  EXPECT_TRUE(rig.rx[1].empty());
  EXPECT_EQ(rig.net.stats().total.dropped_crashed, 1u);
}

TEST(Network, PartitionBlocksCrossTraffic) {
  Rig rig(5);
  rig.net.set_partition({util::ProcessSet({0, 1, 2}), util::ProcessSet({3, 4})});
  rig.net.broadcast(0, Rig::msg(9, 1));
  rig.net.broadcast(4, Rig::msg(9, 2));
  rig.sim.run();
  EXPECT_EQ(rig.rx[1].size(), 1u);
  EXPECT_EQ(rig.rx[2].size(), 1u);
  EXPECT_TRUE(rig.rx[3].empty() ||
              rig.rx[3][0].second[1] == std::byte{2});  // only from 4
  ASSERT_EQ(rig.rx[3].size(), 1u);
  EXPECT_EQ(rig.rx[3][0].first, 4u);
  EXPECT_TRUE(rig.rx[0].empty());  // 4's broadcast can't cross
  EXPECT_GT(rig.net.stats().total.dropped_link, 0u);
}

TEST(Network, HealRestoresTraffic) {
  Rig rig(2);
  rig.net.set_partition({util::ProcessSet({0}), util::ProcessSet({1})});
  rig.net.send(0, 1, Rig::msg(9, 1));
  rig.sim.run();
  EXPECT_TRUE(rig.rx[1].empty());
  rig.net.heal();
  rig.net.send(0, 1, Rig::msg(9, 2));
  rig.sim.run();
  ASSERT_EQ(rig.rx[1].size(), 1u);
}

TEST(Network, DirectionalLink) {
  Rig rig(2);
  rig.net.set_link(0, 1, false);
  rig.net.send(0, 1, Rig::msg(9, 1));
  rig.net.send(1, 0, Rig::msg(9, 2));
  rig.sim.run();
  EXPECT_TRUE(rig.rx[1].empty());
  ASSERT_EQ(rig.rx[0].size(), 1u);  // reverse direction unaffected
}

TEST(Network, DropRuleMatchesKindAndCount) {
  Rig rig(3);
  // Drop the next TWO kind-9 datagrams from 0 to {1}.
  rig.net.arm_drop(0, 9, util::ProcessSet({1}), 2);
  rig.net.send(0, 1, Rig::msg(9, 1));   // dropped
  rig.net.send(0, 1, Rig::msg(8, 2));   // different kind: delivered
  rig.net.send(0, 2, Rig::msg(9, 3));   // different destination: delivered
  rig.net.send(0, 1, Rig::msg(9, 4));   // dropped (second match)
  rig.net.send(0, 1, Rig::msg(9, 5));   // rule exhausted: delivered
  rig.sim.run();
  ASSERT_EQ(rig.rx[1].size(), 2u);
  // Delivery order between the two survivors depends on sampled delays;
  // compare contents as a set.
  std::set<std::byte> got{rig.rx[1][0].second[1], rig.rx[1][1].second[1]};
  EXPECT_EQ(got, (std::set<std::byte>{std::byte{2}, std::byte{5}}));
  ASSERT_EQ(rig.rx[2].size(), 1u);
  EXPECT_EQ(rig.net.stats().total.dropped_rule, 2u);
}

TEST(Network, DropMessageRuleTakesSameInstantCopies) {
  Rig rig(3);
  rig.net.arm_drop_message(0, 9, util::ProcessSet({1, 2}), 1);
  rig.net.broadcast(0, Rig::msg(9, 1));  // dropped towards 1 and 2
  rig.net.send(0, 1, Rig::msg(9, 1));    // same-instant copy: dropped
  rig.net.send(0, 1, Rig::msg(9, 2));    // another message: delivered
  rig.sim.run();
  rig.net.send(0, 2, Rig::msg(9, 1));    // same bytes, later: delivered
  rig.sim.run();
  ASSERT_EQ(rig.rx[1].size(), 1u);
  EXPECT_EQ(rig.rx[1][0].second[1], std::byte{2});
  ASSERT_EQ(rig.rx[2].size(), 1u);
  EXPECT_EQ(rig.net.stats().total.dropped_rule, 3u);
}

TEST(Network, DelayRuleMakesMessageLate) {
  DelayModel m;
  m.delta = 1000;
  Rig rig(2, m);
  rig.net.arm_delay(0, 9, util::ProcessSet({1}), 1, 5000);
  rig.net.send(0, 1, Rig::msg(9, 1));
  rig.sim.run();
  ASSERT_EQ(rig.rx[1].size(), 1u);
  EXPECT_GE(rig.sim.now(), 6000);  // δ + extra
  EXPECT_EQ(rig.net.stats().total.late, 1u);
}

TEST(Network, PerKindAccounting) {
  Rig rig(3);
  rig.net.broadcast(0, Rig::msg(9, 1));
  rig.net.broadcast(0, Rig::msg(16, 1));
  rig.sim.run();
  EXPECT_EQ(rig.net.stats().by_kind[9].sent, 2u);
  EXPECT_EQ(rig.net.stats().by_kind[16].sent, 2u);
  EXPECT_EQ(rig.net.stats().sent_by_process[0], 4u);
}

TEST(FaultScript, ScriptedCrashAndRecovery) {
  Rig rig(2);
  FaultScript faults(rig.sim, rig.procs, rig.net);
  faults.crash_at(100, 1).recover_at(200, 1);
  rig.sim.at(150, [&] { rig.net.send(0, 1, Rig::msg(9, 1)); });  // while down
  rig.sim.at(300, [&] { rig.net.send(0, 1, Rig::msg(9, 2)); });  // after up
  rig.sim.run();
  ASSERT_EQ(rig.rx[1].size(), 1u);
  EXPECT_EQ(rig.rx[1][0].second[1], std::byte{2});
}

}  // namespace
}  // namespace tw::sim
