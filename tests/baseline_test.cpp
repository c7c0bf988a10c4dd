// Tests for the baseline membership protocols used as benchmark
// comparators.
#include <gtest/gtest.h>

#include <memory>

#include "baseline/attendance_ring.hpp"
#include "baseline/heartbeat.hpp"
#include "net/sim_transport.hpp"

namespace tw::baseline {
namespace {

template <typename Protocol>
struct Rig {
  net::SimCluster cluster;
  std::vector<std::unique_ptr<Protocol>> nodes;
  std::vector<std::vector<std::pair<std::uint64_t, util::ProcessSet>>> views;

  Rig(int n, std::uint64_t seed)
      : cluster(make_cc(n, seed)), views(static_cast<std::size_t>(n)) {
    for (ProcessId p = 0; p < static_cast<ProcessId>(n); ++p) {
      nodes.push_back(std::make_unique<Protocol>(
          cluster.endpoint(p),
          [this, p](std::uint64_t vid, util::ProcessSet m) {
            views[p].emplace_back(vid, m);
          }));
      cluster.bind(p, *nodes.back());
    }
    cluster.start();
  }

  static net::SimClusterConfig make_cc(int n, std::uint64_t seed) {
    net::SimClusterConfig cc;
    cc.n = n;
    cc.seed = seed;
    return cc;
  }

  bool run_until_view(util::ProcessSet expected, sim::SimTime deadline) {
    while (cluster.now() < deadline) {
      cluster.run_until(cluster.now() + sim::msec(10));
      bool ok = true;
      for (ProcessId p : expected)
        if (!cluster.processes().is_up(p) || !nodes[p]->in_group() ||
            !(nodes[p]->members() == expected)) {
          ok = false;
          break;
        }
      if (ok) return true;
    }
    return false;
  }
};

using HbRig = Rig<HeartbeatMembership>;
using ArRig = Rig<AttendanceRing>;

TEST(Heartbeat, FormsInitialView) {
  HbRig rig(5, 1);
  EXPECT_TRUE(rig.run_until_view(util::ProcessSet::full(5), sim::sec(5)));
}

TEST(Heartbeat, SendsHeartbeatsContinuously) {
  HbRig rig(5, 2);
  ASSERT_TRUE(rig.run_until_view(util::ProcessSet::full(5), sim::sec(5)));
  auto& stats = rig.cluster.network().stats();
  const auto before =
      stats.by_kind[net::kind_byte(net::MsgKind::heartbeat)].sent;
  rig.cluster.run_until(rig.cluster.now() + sim::sec(10));
  const auto sent =
      stats.by_kind[net::kind_byte(net::MsgKind::heartbeat)].sent - before;
  // 5 members × (N-1 destinations) × ~33 beats/s × 10 s ≈ 6600.
  EXPECT_GT(sent, 4000u);
}

TEST(Heartbeat, RemovesCrashedMember) {
  HbRig rig(5, 3);
  ASSERT_TRUE(rig.run_until_view(util::ProcessSet::full(5), sim::sec(5)));
  rig.cluster.faults().crash_at(rig.cluster.now() + sim::msec(50), 2);
  util::ProcessSet expected = util::ProcessSet::full(5);
  expected.erase(2);
  EXPECT_TRUE(rig.run_until_view(expected, rig.cluster.now() + sim::sec(5)));
}

TEST(Heartbeat, ReadmitsRecoveredMember) {
  HbRig rig(5, 4);
  ASSERT_TRUE(rig.run_until_view(util::ProcessSet::full(5), sim::sec(5)));
  rig.cluster.faults().crash_at(rig.cluster.now() + sim::msec(50), 4);
  util::ProcessSet without = util::ProcessSet::full(5);
  without.erase(4);
  ASSERT_TRUE(rig.run_until_view(without, rig.cluster.now() + sim::sec(5)));
  rig.cluster.processes().recover(4);
  EXPECT_TRUE(rig.run_until_view(util::ProcessSet::full(5),
                                 rig.cluster.now() + sim::sec(5)));
}

TEST(Heartbeat, MinorityCannotFormView) {
  HbRig rig(5, 5);
  ASSERT_TRUE(rig.run_until_view(util::ProcessSet::full(5), sim::sec(5)));
  rig.cluster.faults().partition_at(
      rig.cluster.now(), {util::ProcessSet({0, 1, 2}),
                          util::ProcessSet({3, 4})});
  rig.cluster.run_until(rig.cluster.now() + sim::sec(3));
  // Minority side never installs a {3,4}-only view.
  for (ProcessId p : {3u, 4u})
    EXPECT_FALSE(rig.nodes[p]->members().subset_of(util::ProcessSet({3, 4})) &&
                 rig.nodes[p]->in_group() &&
                 rig.nodes[p]->members().size() <= 2);
}

TEST(Heartbeat, FalseSuspicionChangesView) {
  // The contrast case for the timewheel's wrong-suspicion masking: dropping
  // a few heartbeats from one member makes the coordinator reshape the view
  // even though the member is alive.
  HbRig rig(5, 6);
  ASSERT_TRUE(rig.run_until_view(util::ProcessSet::full(5), sim::sec(5)));
  const auto views_before = rig.views[0].size();
  // Drop member 3's heartbeats to everyone for 5 periods.
  rig.cluster.network().arm_drop(3, net::kind_byte(net::MsgKind::heartbeat),
                                 util::ProcessSet::full(5),
                                 5 * 4 /* per-destination */);
  rig.cluster.run_until(rig.cluster.now() + sim::sec(3));
  EXPECT_GT(rig.views[0].size(), views_before)
      << "heartbeat membership should have churned the view";
  // Eventually the member is re-admitted.
  EXPECT_TRUE(rig.run_until_view(util::ProcessSet::full(5),
                                 rig.cluster.now() + sim::sec(5)));
}

TEST(AttendanceRing, FormsViewAndCirculatesToken) {
  ArRig rig(5, 7);
  ASSERT_TRUE(rig.run_until_view(util::ProcessSet::full(5), sim::sec(5)));
  auto& stats = rig.cluster.network().stats();
  const auto before =
      stats.by_kind[net::kind_byte(net::MsgKind::attendance_token)].sent;
  rig.cluster.run_until(rig.cluster.now() + sim::sec(5));
  EXPECT_GT(
      stats.by_kind[net::kind_byte(net::MsgKind::attendance_token)].sent,
      before);
}

TEST(AttendanceRing, CrashTriggersReformation) {
  ArRig rig(5, 8);
  ASSERT_TRUE(rig.run_until_view(util::ProcessSet::full(5), sim::sec(5)));
  rig.cluster.faults().crash_at(rig.cluster.now() + sim::msec(50), 1);
  util::ProcessSet expected = util::ProcessSet::full(5);
  expected.erase(1);
  EXPECT_TRUE(rig.run_until_view(expected, rig.cluster.now() + sim::sec(5)));
  EXPECT_GT(rig.nodes[0]->reformations(), 0u);
}

TEST(AttendanceRing, TokenLossForcesFullReformation) {
  // The ablation point: a single lost token datagram interrupts service
  // with a full re-formation — no single-failure fast path, no masking.
  ArRig rig(5, 9);
  ASSERT_TRUE(rig.run_until_view(util::ProcessSet::full(5), sim::sec(5)));
  const auto before = rig.nodes[2]->reformations();
  // Drop the next few token messages entirely.
  rig.cluster.network().arm_drop(
      0, net::kind_byte(net::MsgKind::attendance_token),
      util::ProcessSet::full(5), 20);
  rig.cluster.network().arm_drop(
      1, net::kind_byte(net::MsgKind::attendance_token),
      util::ProcessSet::full(5), 20);
  rig.cluster.run_until(rig.cluster.now() + sim::sec(2));
  rig.cluster.run_until(rig.cluster.now() + sim::sec(3));
  bool someone_reformed = false;
  for (auto& n : rig.nodes)
    if (n->reformations() > before) someone_reformed = true;
  EXPECT_TRUE(someone_reformed);
  EXPECT_TRUE(rig.run_until_view(util::ProcessSet::full(5),
                                 rig.cluster.now() + sim::sec(5)));
}

}  // namespace
}  // namespace tw::baseline
