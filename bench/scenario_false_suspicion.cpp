// Experiment E3 — false suspicion must not interrupt the service.
//
// "the group communication service is not interrupted, if a failure
// suspicion turns out to be a false alarm" (§1). Under a continuous
// total-order update load we drop one decision message towards part of the
// group (provoking a suspicion of a live decider) and measure: (a) did the
// membership change, (b) the worst update-delivery gap around the episode,
// against the fault-free gap. The heartbeat baseline shows the contrast: a
// few dropped heartbeats reshape the view.
#include <memory>

#include "baseline/heartbeat.hpp"
#include "bench/bench_common.hpp"

namespace tw::bench {
namespace {

constexpr int kSeeds = 25;

struct EpisodeResult {
  util::Samples max_gap_ms;   ///< worst inter-delivery gap near the episode
  int view_changes = 0;       ///< membership changed during the episode
  int failures = 0;
};

/// Worst gap between consecutive deliveries at member 0 in [from, to].
double worst_gap_ms(const gms::SimHarness& h, sim::SimTime from,
                    sim::SimTime to) {
  sim::SimTime prev = from;
  double worst = 0;
  for (const auto& rec : h.delivered(0)) {
    if (rec.at < from || rec.at > to) continue;
    worst = std::max(worst, static_cast<double>(rec.at - prev));
    prev = rec.at;
  }
  worst = std::max(worst, static_cast<double>(to - prev));
  return ms(worst);
}

EpisodeResult run_timewheel(int n, bool inject) {
  EpisodeResult res;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    gms::SimHarness h(default_config(n, seed + (inject ? 0 : 5000)));
    if (form_full_group(h) < 0) {
      ++res.failures;
      continue;
    }
    // Continuous load: one update every 10 ms, round-robin proposers.
    std::uint64_t tag = 1;
    for (sim::SimTime t = h.now(); t < h.now() + sim::sec(6);
         t += sim::msec(10)) {
      const auto proposer =
          static_cast<ProcessId>(tag % static_cast<std::uint64_t>(n));
      h.cluster().simulator().at(t, [&h, proposer, tag] {
        h.propose(proposer, tag, bcast::Order::total);
      });
      ++tag;
    }
    h.run_for(sim::sec(2));
    const GroupId gid_before = h.node(0).group_id();
    const sim::SimTime episode = h.now();
    if (inject) {
      // Drop the believed decider's next decision towards half the group.
      const ProcessId d = h.node(0).believed_decider();
      util::ProcessSet targets;
      int count = 0;
      for (ProcessId p = 0; p < static_cast<ProcessId>(n); ++p)
        if (p != d && count < n / 2) {
          targets.insert(p);
          ++count;
        }
      h.cluster().network().arm_drop(
          d, net::kind_byte(net::MsgKind::decision), targets, 1);
    }
    h.run_for(sim::sec(3));
    res.max_gap_ms.add(
        worst_gap_ms(h, episode - sim::msec(500), episode + sim::sec(2)));
    if (h.node(0).group_id() != gid_before) ++res.view_changes;
  }
  return res;
}

void heartbeat_contrast(int n) {
  int view_changes = 0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    net::SimClusterConfig cc;
    cc.n = n;
    cc.seed = seed + 700;
    net::SimCluster cluster(cc);
    std::vector<std::unique_ptr<baseline::HeartbeatMembership>> nodes;
    int installs = 0;
    for (ProcessId p = 0; p < static_cast<ProcessId>(n); ++p) {
      nodes.push_back(std::make_unique<baseline::HeartbeatMembership>(
          cluster.endpoint(p),
          [&installs](std::uint64_t, util::ProcessSet) { ++installs; }));
      cluster.bind(p, *nodes.back());
    }
    cluster.start();
    cluster.run_until(sim::sec(5));
    const int installs_before = installs;
    // Drop one member's heartbeats for 4 periods — the same "one lost
    // message burst" class of fault.
    cluster.network().arm_drop(
        2, net::kind_byte(net::MsgKind::heartbeat),
        util::ProcessSet::full(static_cast<ProcessId>(n)), 4 * (n - 1));
    cluster.run_until(cluster.now() + sim::sec(4));
    if (installs > installs_before) ++view_changes;
  }
  std::printf(
      "heartbeat    n=%2d  view changed during false alarm: %d/%d runs\n", n,
      view_changes, kSeeds);
}

}  // namespace
}  // namespace tw::bench

int main() {
  using namespace tw::bench;
  print_header("E3: false suspicion (drop one decision to half the group)",
               "gap = worst update-delivery stall at member 0 around the "
               "episode");
  for (int n : {5, 7}) {
    const EpisodeResult base = run_timewheel(n, /*inject=*/false);
    const EpisodeResult fault = run_timewheel(n, /*inject=*/true);
    std::printf(
        "timewheel    n=%2d  no-fault gap ms: mean=%6.1f p95=%6.1f | "
        "false-alarm gap ms: mean=%6.1f p95=%6.1f | view changed: %d/%d\n",
        n, base.max_gap_ms.mean(), base.max_gap_ms.percentile(0.95),
        fault.max_gap_ms.mean(), fault.max_gap_ms.percentile(0.95),
        fault.view_changes, kSeeds);
    heartbeat_contrast(n);
  }
  std::printf(
      "\nExpected shape: the timewheel group id does not change in the vast\n"
      "majority of runs (wrong-suspicion masking) and the delivery gap\n"
      "stays within a few D; heartbeat churns its view on the same fault.\n");
  return 0;
}
