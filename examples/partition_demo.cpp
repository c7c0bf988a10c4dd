// Partition demo: majority agreement under a network split (paper §3).
//
// Seven members; the network splits 4/3. The majority side keeps the
// service (it can still form groups of ≥ majority); the minority side's
// fail-aware clocks go OUT-OF-DATE, it never installs a minority view, and
// it stops accepting updates. On heal, the minority rejoins via the join
// protocol + state transfer and catches up.
//
//   ./build/examples/partition_demo
#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "gms/timewheel_node.hpp"
#include "net/sim_transport.hpp"

using namespace tw;

int main() {
  constexpr int kTeam = 7;
  const util::ProcessSet majority_side({0, 1, 2, 3});
  const util::ProcessSet minority_side({4, 5, 6});

  net::SimClusterConfig cluster_cfg;
  cluster_cfg.n = kTeam;
  cluster_cfg.seed = 2024;
  net::SimCluster cluster(cluster_cfg);

  std::vector<int> delivered(kTeam, 0);
  std::vector<std::unique_ptr<gms::TimewheelNode>> nodes;
  for (ProcessId p = 0; p < kTeam; ++p) {
    gms::AppCallbacks app;
    app.deliver = [&delivered, p](const bcast::Proposal&, Ordinal) {
      ++delivered[p];
    };
    // State transfer for the healing phase: the count stands in for real
    // application state.
    app.get_state = [&delivered, p] {
      std::vector<std::byte> s(sizeof(int));
      std::memcpy(s.data(), &delivered[p], sizeof(int));
      return s;
    };
    app.set_state = [&delivered, p](std::span<const std::byte> s) {
      if (s.size() == sizeof(int))
        std::memcpy(&delivered[p], s.data(), sizeof(int));
    };
    nodes.push_back(std::make_unique<gms::TimewheelNode>(
        cluster.endpoint(p), gms::NodeConfig{}, app));
    cluster.bind(p, *nodes.back());
  }
  cluster.start();
  cluster.run_until(sim::sec(2));
  std::printf("formed: %s\n", nodes[0]->group().to_string().c_str());

  auto propose = [&](ProcessId via, std::uint64_t tag) {
    std::vector<std::byte> payload(8);
    std::memcpy(payload.data(), &tag, 8);
    nodes[via]->try_propose(std::move(payload), bcast::Order::total);
  };

  std::printf("\nsplitting the network %s | %s ...\n",
              majority_side.to_string().c_str(),
              minority_side.to_string().c_str());
  cluster.network().set_partition({majority_side, minority_side});
  cluster.run_until(cluster.now() + sim::sec(5));

  std::printf("majority-side view at member 0: %s (in_group=%d)\n",
              nodes[0]->group().to_string().c_str(),
              static_cast<int>(nodes[0]->in_group()));
  for (ProcessId p : minority_side) {
    std::printf(
        "minority member %u: in_group=%d, clock synchronized=%d, state=%s\n",
        p, static_cast<int>(nodes[p]->in_group()),
        static_cast<int>(nodes[p]->clock().synchronized()),
        gms::gc_state_name(nodes[p]->state()));
  }

  std::printf("\nmajority keeps serving: 10 updates through member 1...\n");
  for (std::uint64_t i = 0; i < 10; ++i) {
    propose(1, 100 + i);
    cluster.run_until(cluster.now() + sim::msec(50));
  }
  cluster.run_until(cluster.now() + sim::sec(1));
  std::printf("delivered counts: majority {");
  for (ProcessId p : majority_side) std::printf(" %u:%d", p, delivered[p]);
  std::printf(" }  minority {");
  for (ProcessId p : minority_side) std::printf(" %u:%d", p, delivered[p]);
  std::printf(" }\n");

  std::printf("\nhealing the partition...\n");
  cluster.network().heal();
  cluster.run_until(cluster.now() + sim::sec(15));
  std::printf("healed view at member 0: %s\n",
              nodes[0]->group().to_string().c_str());

  propose(5, 999);  // a previously-minority member serves writes again
  cluster.run_until(cluster.now() + sim::sec(1));

  bool ok = nodes[0]->group() == util::ProcessSet::full(kTeam);
  for (ProcessId p = 0; p < kTeam; ++p) {
    std::printf("member %u: delivered-or-transferred count %d, in_group=%d\n",
                p, delivered[p], static_cast<int>(nodes[p]->in_group()));
    ok = ok && nodes[p]->in_group();
  }
  if (!ok) {
    std::printf("DID NOT HEAL CLEANLY\n");
    return 1;
  }
  std::printf("\npartition healed; full team re-formed; minority caught up "
              "via state transfer. done.\n");
  return 0;
}
