// Experiment E2 — single-failure recovery latency and message cost.
//
// The paper: "it uses a very simple and fast algorithm to recover from
// single failures" (§1). For each N we crash one member at a random phase
// of the rotation and measure crash → new-group-created latency plus the
// membership messages spent, over many seeds. The same is measured for the
// heartbeat baseline and the attendance ring; a two-crash run shows what
// the slotted reconfiguration path costs by comparison.
#include <memory>

#include "baseline/attendance_ring.hpp"
#include "baseline/heartbeat.hpp"
#include "bench/bench_common.hpp"

namespace tw::bench {
namespace {

constexpr int kSeeds = 40;

struct Result {
  util::Samples latency_ms;
  util::Samples messages;
  int failures = 0;
};

Result timewheel_single(int n) {
  Result res;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    gms::SimHarness h(default_config(n, seed));
    if (form_full_group(h) < 0) {
      ++res.failures;
      continue;
    }
    sim::Rng rng(seed * 31);
    const auto victim =
        static_cast<ProcessId>(rng.uniform_int(0, n - 1));
    const sim::SimTime crash_at =
        h.now() + rng.uniform_int(sim::msec(20), sim::msec(400));
    h.faults().crash_at(crash_at, victim);
    util::ProcessSet expected =
        util::ProcessSet::full(static_cast<ProcessId>(n));
    expected.erase(victim);
    const auto msgs0 = membership_msgs(h);
    if (!h.run_until_group(expected, crash_at + sim::sec(10))) {
      ++res.failures;
      continue;
    }
    const sim::SimTime created = h.cluster().trace_log().first_after(
        sim::TraceKind::group_created, crash_at);
    res.latency_ms.add(ms(static_cast<double>(created - crash_at)));
    res.messages.add(static_cast<double>(membership_msgs(h) - msgs0));
  }
  return res;
}

Result timewheel_double(int n) {
  Result res;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    gms::SimHarness h(default_config(n, seed + 1000));
    if (form_full_group(h) < 0) {
      ++res.failures;
      continue;
    }
    sim::Rng rng(seed * 37);
    const auto v1 = static_cast<ProcessId>(rng.uniform_int(0, n - 1));
    auto v2 = static_cast<ProcessId>(rng.uniform_int(0, n - 1));
    if (v2 == v1) v2 = static_cast<ProcessId>((v2 + 1) % static_cast<ProcessId>(n));
    const sim::SimTime crash_at =
        h.now() + rng.uniform_int(sim::msec(20), sim::msec(400));
    h.faults().crash_at(crash_at, v1).crash_at(crash_at, v2);
    util::ProcessSet expected =
        util::ProcessSet::full(static_cast<ProcessId>(n));
    expected.erase(v1);
    expected.erase(v2);
    const auto msgs0 = membership_msgs(h);
    if (!h.run_until_group(expected, crash_at + sim::sec(20))) {
      ++res.failures;
      continue;
    }
    const sim::SimTime created = h.cluster().trace_log().first_after(
        sim::TraceKind::group_created, crash_at);
    res.latency_ms.add(ms(static_cast<double>(created - crash_at)));
    res.messages.add(static_cast<double>(membership_msgs(h) - msgs0));
  }
  return res;
}

template <typename Protocol>
Result baseline_single(int n, std::uint64_t seed_base) {
  Result res;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    net::SimClusterConfig cc;
    cc.n = n;
    cc.seed = seed + seed_base;
    net::SimCluster cluster(cc);
    std::vector<std::unique_ptr<Protocol>> nodes;
    std::vector<sim::SimTime> installed(static_cast<std::size_t>(n), -1);
    util::ProcessSet expected;
    for (ProcessId p = 0; p < static_cast<ProcessId>(n); ++p) {
      nodes.push_back(std::make_unique<Protocol>(
          cluster.endpoint(p),
          [&installed, &expected, &cluster, p](std::uint64_t,
                                               util::ProcessSet m) {
            if (!expected.empty() && m == expected && installed[p] < 0)
              installed[p] = cluster.now();
          }));
      cluster.bind(p, *nodes.back());
    }
    cluster.start();
    cluster.run_until(sim::sec(5));
    sim::Rng rng(seed * 31);
    const auto victim = static_cast<ProcessId>(rng.uniform_int(0, n - 1));
    expected = util::ProcessSet::full(static_cast<ProcessId>(n));
    expected.erase(victim);
    const sim::SimTime crash_at =
        cluster.now() + rng.uniform_int(sim::msec(20), sim::msec(400));
    cluster.faults().crash_at(crash_at, victim);
    cluster.run_until(crash_at + sim::sec(10));
    sim::SimTime done = -1;
    for (ProcessId p : expected)
      done = std::max(done, installed[p]);
    bool all = true;
    for (ProcessId p : expected)
      if (installed[p] < 0) all = false;
    if (!all) {
      ++res.failures;
      continue;
    }
    res.latency_ms.add(ms(static_cast<double>(done - crash_at)));
  }
  return res;
}

void print_result(const char* name, int n, const Result& r) {
  std::printf(
      "%-22s n=%2d  latency ms: mean=%7.1f p95=%7.1f max=%7.1f   "
      "membership msgs: mean=%6.1f   fail=%d/%d\n",
      name, n, r.latency_ms.mean(), r.latency_ms.percentile(0.95),
      r.latency_ms.max(), r.messages.mean(), r.failures, kSeeds);
}

}  // namespace
}  // namespace tw::bench

int main() {
  using namespace tw;
  using namespace tw::bench;
  print_header("E2: recovery latency after member crash (40 seeds each)",
               "latency = crash to new group created at the electing member");
  for (int n : {3, 5, 7, 9, 13}) {
    print_result("timewheel 1-crash", n, timewheel_single(n));
    if (n >= 5)
      print_result("timewheel 2-crash", n, timewheel_double(n));
    print_result(
        "heartbeat 1-crash", n,
        baseline_single<baseline::HeartbeatMembership>(n, 500));
    print_result(
        "attendance 1-crash", n,
        baseline_single<baseline::AttendanceRing>(n, 900));
  }
  std::printf(
      "\nExpected shape: timewheel single-crash recovery within roughly a\n"
      "cycle + 2D (detection) + one no-decision round; the two-crash case\n"
      "pays the slotted reconfiguration (about two cycles more).\n");
  return 0;
}
