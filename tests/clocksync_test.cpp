#include "clocksync/clock_sync.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "net/sim_transport.hpp"

namespace tw::csync {
namespace {

/// Minimal stack: just the clock synchronization service.
struct CsNode final : net::Handler {
  net::Endpoint& ep;
  ClockSync cs;
  int sync_edges = 0;

  CsNode(net::Endpoint& e, Config cfg)
      : ep(e), cs(e, cfg, [this](bool) { ++sync_edges; }) {}

  void on_start() override { cs.start(); }
  void on_datagram(ProcessId from, std::span<const std::byte> data) override {
    util::ByteReader r(data);
    const auto kind = static_cast<net::MsgKind>(r.u8());
    if (ClockSync::handles(kind)) cs.on_datagram(from, kind, r);
  }
};

struct Rig {
  net::SimCluster cluster;
  std::vector<std::unique_ptr<CsNode>> nodes;

  explicit Rig(int n, std::uint64_t seed = 1, double rho = 1e-5,
               sim::ClockTime max_offset = sim::sec(2))
      : cluster(make_cfg(n, seed, rho, max_offset)) {
    Config cfg;
    cfg.delta = cluster.network().delays().delta;
    cfg.min_delay = cluster.network().delays().min_delay;
    cfg.rho = rho;
    for (ProcessId p = 0; p < static_cast<ProcessId>(n); ++p) {
      nodes.push_back(std::make_unique<CsNode>(cluster.endpoint(p), cfg));
      cluster.bind(p, *nodes.back());
    }
    cluster.start();
  }

  static net::SimClusterConfig make_cfg(int n, std::uint64_t seed, double rho,
                                        sim::ClockTime max_offset) {
    net::SimClusterConfig c;
    c.n = n;
    c.seed = seed;
    c.rho = rho;
    c.max_clock_offset = max_offset;
    return c;
  }

  /// Max pairwise deviation of synchronized clocks among given processes.
  sim::Duration max_deviation(const std::vector<ProcessId>& ps) {
    sim::ClockTime lo = INT64_MAX, hi = INT64_MIN;
    for (ProcessId p : ps) {
      const auto v = nodes[p]->cs.now();
      if (!v) return INT64_MAX;
      lo = std::min(lo, *v);
      hi = std::max(hi, *v);
    }
    return hi - lo;
  }
};

TEST(ClockSync, BecomesSynchronizedQuickly) {
  Rig rig(5);
  rig.cluster.run_until(sim::sec(2));
  for (auto& n : rig.nodes) EXPECT_TRUE(n->cs.synchronized());
}

TEST(ClockSync, DeviationBoundedByEpsilon) {
  Rig rig(5, /*seed=*/7);
  rig.cluster.run_until(sim::sec(2));
  const auto eps = rig.nodes[0]->cs.epsilon();
  for (int checks = 0; checks < 20; ++checks) {
    rig.cluster.run_until(rig.cluster.now() + sim::msec(500));
    const auto dev = rig.max_deviation({0, 1, 2, 3, 4});
    ASSERT_NE(dev, INT64_MAX);
    EXPECT_LE(dev, eps) << "check " << checks;
  }
}

TEST(ClockSync, CorrectsLargeInitialSkew) {
  Rig rig(3, /*seed=*/3, 1e-5, sim::sec(5));  // up to 5 s initial skew
  rig.cluster.run_until(sim::sec(2));
  const auto dev = rig.max_deviation({0, 1, 2});
  EXPECT_LE(dev, rig.nodes[0]->cs.epsilon());
}

TEST(ClockSync, FailAwareness_LosesSyncWhenIsolated) {
  Rig rig(5);
  rig.cluster.run_until(sim::sec(2));
  EXPECT_TRUE(rig.nodes[4]->cs.synchronized());
  // Isolate process 4 from everyone.
  rig.cluster.faults().isolate_at(rig.cluster.now(), 4);
  // After the lease expires its readings go stale and it KNOWS it.
  rig.cluster.run_until(rig.cluster.now() + sim::sec(4));
  EXPECT_FALSE(rig.nodes[4]->cs.synchronized());
  EXPECT_EQ(rig.nodes[4]->cs.now(), std::nullopt);
  // The majority side is unaffected.
  for (ProcessId p : {0u, 1u, 2u, 3u})
    EXPECT_TRUE(rig.nodes[p]->cs.synchronized());
}

TEST(ClockSync, ResynchronizesAfterHeal) {
  Rig rig(5);
  rig.cluster.run_until(sim::sec(2));
  rig.cluster.faults().isolate_at(rig.cluster.now(), 4);
  rig.cluster.run_until(rig.cluster.now() + sim::sec(4));
  ASSERT_FALSE(rig.nodes[4]->cs.synchronized());
  rig.cluster.network().heal();
  rig.cluster.run_until(rig.cluster.now() + sim::sec(2));
  EXPECT_TRUE(rig.nodes[4]->cs.synchronized());
  EXPECT_LE(rig.max_deviation({0, 1, 2, 3, 4}), rig.nodes[0]->cs.epsilon());
  EXPECT_GE(rig.nodes[4]->sync_edges, 3);  // up, down, up
}

TEST(ClockSync, MonotoneWhileSynchronized) {
  Rig rig(3, /*seed=*/11);
  rig.cluster.run_until(sim::sec(2));
  sim::ClockTime last = INT64_MIN;
  for (int i = 0; i < 200; ++i) {
    rig.cluster.run_until(rig.cluster.now() + sim::msec(20));
    const auto v = rig.nodes[0]->cs.now();
    ASSERT_TRUE(v.has_value());
    EXPECT_GE(*v, last);
    last = *v;
  }
}

TEST(ClockSync, SurvivorsStayWithinEpsilonAcrossACrashAndReturn) {
  // The crashed member's reading expires at a different instant on each
  // survivor. Its hardware clock sat lowest, so a survivor that dropped it
  // from the median would jump to the next clock up, ahead of the others,
  // and be held there by the monotonic clamp when it returns.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rig rig(5, seed, 1e-5, sim::msec(500));
    auto& procs = rig.cluster.processes();
    ProcessId victim = 0;
    for (ProcessId p = 1; p < 5; ++p)
      if (procs.clock(p).offset() < procs.clock(victim).offset()) victim = p;
    std::vector<ProcessId> survivors;
    for (ProcessId p = 0; p < 5; ++p)
      if (p != victim) survivors.push_back(p);
    rig.cluster.run_until(sim::sec(2));
    sim::Duration worst = 0;
    const auto sample_for = [&](sim::Duration d) {
      const sim::SimTime end = rig.cluster.now() + d;
      while (rig.cluster.now() < end) {
        rig.cluster.run_until(rig.cluster.now() + sim::msec(1));
        worst = std::max(worst, rig.max_deviation(survivors));
      }
    };
    procs.crash(victim);
    sample_for(sim::sec(3));
    procs.recover(victim);
    sample_for(sim::sec(3));
    EXPECT_LE(worst, rig.nodes[0]->cs.epsilon());
  }
}

TEST(ClockSync, MinorityPartitionLosesSyncMajorityKeepsIt) {
  Rig rig(5);
  rig.cluster.run_until(sim::sec(2));
  rig.cluster.faults().partition_at(
      rig.cluster.now(),
      {util::ProcessSet({0, 1, 2}), util::ProcessSet({3, 4})});
  rig.cluster.run_until(rig.cluster.now() + sim::sec(4));
  for (ProcessId p : {0u, 1u, 2u}) EXPECT_TRUE(rig.nodes[p]->cs.synchronized());
  for (ProcessId p : {3u, 4u}) EXPECT_FALSE(rig.nodes[p]->cs.synchronized());
}

TEST(ClockSync, PerfectModeReportsHardwareClock) {
  net::SimClusterConfig cc;
  cc.n = 2;
  cc.max_clock_offset = 0;
  cc.rho = 0.0;
  net::SimCluster cluster(cc);
  Config cfg;
  cfg.perfect = true;
  CsNode node(cluster.endpoint(0), cfg);
  cluster.bind(0, node);
  cluster.start();
  cluster.run_until(sim::msec(100));
  EXPECT_TRUE(node.cs.synchronized());
  const auto v = node.cs.now();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, cluster.endpoint(0).hw_now());
  // And it costs zero messages.
  EXPECT_EQ(cluster.network().stats().total.sent, 0u);
}

TEST(ClockSync, RejectsLateReadings) {
  // With every datagram late (> δ round trips), no reading is accepted:
  // fail-awareness means the service reports OUT-OF-DATE rather than
  // producing garbage offsets.
  net::SimClusterConfig cc;
  cc.n = 3;
  cc.seed = 5;
  cc.delays.late_prob = 1.0;
  net::SimCluster cluster(cc);
  Config cfg;
  cfg.delta = cc.delays.delta;
  std::vector<std::unique_ptr<CsNode>> nodes;
  for (ProcessId p = 0; p < 3; ++p) {
    nodes.push_back(std::make_unique<CsNode>(cluster.endpoint(p), cfg));
    cluster.bind(p, *nodes.back());
  }
  cluster.start();
  cluster.run_until(sim::sec(3));
  for (auto& n : nodes) {
    EXPECT_FALSE(n->cs.synchronized());
    EXPECT_EQ(n->cs.fresh_readings(), 0);
  }
}

TEST(ClockSyncConfig, EpsilonFormula) {
  Config cfg;
  cfg.delta = sim::msec(10);
  cfg.min_delay = sim::usec(200);
  cfg.lease = sim::msec(1500);
  cfg.rho = 1e-5;
  // 2*(δ - min) + 2ρ·lease = 2*9800 + 30 = 19630 µs (±1 for fp ceil)
  EXPECT_NEAR(static_cast<double>(cfg.epsilon()), 19630.0, 1.0);
}

}  // namespace
}  // namespace tw::csync
