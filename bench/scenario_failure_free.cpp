// Experiment E1 — failure-free message cost (paper §1's headline claim:
// "this protocol does not cause any extra messages to be exchanged during
// failure-free periods").
//
// For each team size, runs 60 simulated seconds with no faults and counts
// datagrams per second per layer, for the timewheel stack and for both
// baseline membership protocols.
#include <memory>

#include "baseline/attendance_ring.hpp"
#include "baseline/heartbeat.hpp"
#include "bench/bench_common.hpp"

namespace tw::bench {
namespace {

constexpr sim::Duration kRun = sim::sec(60);

void timewheel_row(int n) {
  gms::SimHarness h(default_config(n, 42));
  if (form_full_group(h) < 0) {
    std::printf("timewheel n=%d: FORMATION TIMEOUT\n", n);
    return;
  }
  auto& stats = h.cluster().network().stats();
  const auto membership0 = membership_msgs(h);
  const auto decisions0 = kind_sent(h, net::MsgKind::decision);
  const auto clocksync0 =
      kind_sent(h, net::MsgKind::clocksync_request) +
      kind_sent(h, net::MsgKind::clocksync_reply);
  const auto total0 = stats.total.sent;
  h.run_for(kRun);
  const double secs = sim::to_sec(kRun);
  std::printf(
      "timewheel     n=%2d  membership/s=%7.2f  decision/s=%7.2f  "
      "clocksync/s=%7.2f  total/s=%8.2f\n",
      n, static_cast<double>(membership_msgs(h) - membership0) / secs,
      static_cast<double>(kind_sent(h, net::MsgKind::decision) - decisions0) /
          secs,
      static_cast<double>(kind_sent(h, net::MsgKind::clocksync_request) +
                          kind_sent(h, net::MsgKind::clocksync_reply) -
                          clocksync0) /
          secs,
      static_cast<double>(stats.total.sent - total0) / secs);
}

template <typename Protocol>
void baseline_row(const char* name, int n, net::MsgKind main_kind) {
  net::SimClusterConfig cc;
  cc.n = n;
  cc.seed = 42;
  net::SimCluster cluster(cc);
  std::vector<std::unique_ptr<Protocol>> nodes;
  for (ProcessId p = 0; p < static_cast<ProcessId>(n); ++p) {
    nodes.push_back(std::make_unique<Protocol>(cluster.endpoint(p)));
    cluster.bind(p, *nodes.back());
  }
  cluster.start();
  cluster.run_until(sim::sec(5));  // formation
  auto& stats = cluster.network().stats();
  const auto main0 = stats.by_kind[net::kind_byte(main_kind)].sent;
  const auto total0 = stats.total.sent;
  cluster.run_until(cluster.now() + kRun);
  const double secs = sim::to_sec(kRun);
  std::printf(
      "%-13s n=%2d  membership/s=%7.2f  total/s=%8.2f\n", name, n,
      static_cast<double>(stats.by_kind[net::kind_byte(main_kind)].sent -
                          main0) /
          secs,
      static_cast<double>(stats.total.sent - total0) / secs);
}

}  // namespace
}  // namespace tw::bench

int main() {
  using namespace tw;
  using namespace tw::bench;
  print_header(
      "E1: failure-free membership message cost (60 s, no faults)",
      "membership/s = datagrams of the membership layer per second");
  for (int n : {3, 5, 7, 9, 13}) {
    timewheel_row(n);
    baseline_row<baseline::HeartbeatMembership>("heartbeat", n,
                                                net::MsgKind::heartbeat);
    baseline_row<baseline::AttendanceRing>("attendance", n,
                                           net::MsgKind::attendance_token);
  }
  std::printf(
      "\nExpected shape: timewheel membership/s == 0 (decisions belong to\n"
      "the broadcast layer and rotate regardless); heartbeat grows ~N^2;\n"
      "attendance ring pays a token stream.\n");
  return 0;
}
