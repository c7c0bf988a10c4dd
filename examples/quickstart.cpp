// Quickstart: a five-member timewheel team on the simulated network.
//
// Shows the whole public API surface in ~80 lines: build a SimCluster,
// bind one TimewheelNode per member, watch the group form, broadcast
// totally-ordered updates, crash a member, watch the single-failure
// election remove it, and verify every survivor delivered the same
// sequence.
//
//   ./build/examples/quickstart
#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "gms/timewheel_node.hpp"
#include "net/sim_transport.hpp"

using namespace tw;

int main() {
  constexpr int kTeam = 5;

  net::SimClusterConfig cluster_cfg;
  cluster_cfg.n = kTeam;
  cluster_cfg.seed = 7;
  net::SimCluster cluster(cluster_cfg);

  // Per-member delivery logs, filled by the deliver callback.
  std::vector<std::vector<std::string>> logs(kTeam);
  std::vector<std::unique_ptr<gms::TimewheelNode>> nodes;

  for (ProcessId p = 0; p < kTeam; ++p) {
    gms::AppCallbacks app;
    app.deliver = [&logs, p](const bcast::Proposal& prop, Ordinal ordinal) {
      logs[p].push_back(std::string(prop.payload.size(), '\0'));
      std::memcpy(logs[p].back().data(), prop.payload.data(),
                  prop.payload.size());
      (void)ordinal;
    };
    app.view_change = [p](GroupId gid, util::ProcessSet members) {
      std::printf("  member %u installed view #%llu = %s\n", p,
                  static_cast<unsigned long long>(gid),
                  members.to_string().c_str());
    };
    nodes.push_back(std::make_unique<gms::TimewheelNode>(
        cluster.endpoint(p), gms::NodeConfig{}, app));
    cluster.bind(p, *nodes.back());
  }

  std::printf("starting %d members; waiting for the initial group...\n",
              kTeam);
  cluster.start();
  cluster.run_until(sim::sec(2));

  std::printf("\nbroadcasting three totally-ordered updates...\n");
  auto propose = [&](ProcessId from, const char* text) {
    std::vector<std::byte> payload(std::strlen(text));
    std::memcpy(payload.data(), text, payload.size());
    nodes[from]->try_propose(std::move(payload), bcast::Order::total);
  };
  propose(0, "alpha");
  propose(3, "bravo");
  propose(1, "charlie");
  cluster.run_until(cluster.now() + sim::sec(1));

  std::printf("\ncrashing member 2; the ring elects it out...\n");
  cluster.processes().crash(2);
  cluster.run_until(cluster.now() + sim::sec(2));

  propose(4, "delta (after the crash)");
  cluster.run_until(cluster.now() + sim::sec(1));

  std::printf("\ndelivered sequences:\n");
  for (ProcessId p = 0; p < kTeam; ++p) {
    std::printf("  member %u%s: ", p, p == 2 ? " (crashed)" : "");
    for (const auto& s : logs[p]) std::printf("[%s] ", s.c_str());
    std::printf("\n");
  }

  // Survivors must agree on the delivered sequence.
  for (ProcessId p : {1u, 3u, 4u}) {
    if (logs[p] != logs[0]) {
      std::printf("MISMATCH at member %u!\n", p);
      return 1;
    }
  }
  std::printf("\nall survivors delivered the same totally-ordered "
              "sequence. done.\n");
  return 0;
}
