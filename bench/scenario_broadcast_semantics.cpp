// Experiment E7 — delivery latency of the 3×3 (order × atomicity)
// semantics of the timewheel broadcast service (substrate check).
//
//   scenario_broadcast_semantics [--out FILE]
//
// Prints one row per combination. With --out it also writes the rows as
// tw-bench-v1 JSON (BENCH_semantics.json) for tools/benchdiff: the run is
// deterministic in simulated time, so CI diffs every metric. Exits 1 unless
// every combination delivers all its updates at every member.
#include <cstdio>
#include <string>

#include "bench/bench_common.hpp"
#include "bench/bench_json.hpp"

namespace tw::bench {
namespace {

constexpr int kUpdates = 150;
constexpr int kTeam = 5;
constexpr std::uint64_t kSeed = 4711;

/// Runs one combination into `out`; returns true when all kUpdates updates
/// reached every member.
bool run_combo(bcast::Order order, bcast::Atomicity atomicity, BenchRun& out) {
  gms::SimHarness h(default_config(kTeam, kSeed));
  if (form_full_group(h) < 0) {
    std::printf("formation timeout\n");
    return false;
  }
  // Record propose times by tag.
  std::vector<sim::SimTime> proposed(kUpdates, -1);
  std::uint64_t tag = 0;
  for (sim::SimTime t = h.now() + sim::msec(50); tag < kUpdates;
       t += sim::msec(20)) {
    const auto proposer = static_cast<ProcessId>(tag % kTeam);
    h.cluster().simulator().at(
        t, [&h, &proposed, proposer, tag, order, atomicity] {
          proposed[tag] = h.cluster().simulator().now();
          h.propose(proposer, tag, order, atomicity);
        });
    ++tag;
  }
  h.run_for(sim::msec(20) * kUpdates + sim::sec(5));

  // Latency to delivery at ALL members (the semantics' guarantee point).
  util::Samples all_members_ms;
  std::map<std::uint64_t, std::pair<int, sim::SimTime>> latest;
  for (ProcessId p = 0; p < kTeam; ++p) {
    for (const auto& rec : h.delivered(p)) {
      const auto t = gms::SimHarness::payload_tag(rec.payload);
      auto& [count, max_at] = latest[t];
      ++count;
      max_at = std::max(max_at, rec.at);
    }
  }
  int complete = 0;
  for (const auto& [t, cm] : latest) {
    if (cm.first == kTeam && t < kUpdates && proposed[t] >= 0) {
      ++complete;
      all_members_ms.add(ms(static_cast<double>(cm.second - proposed[t])));
    }
  }
  std::printf(
      "%-9s x %-6s  all-member delivery ms: mean=%6.1f p50=%6.1f "
      "p95=%6.1f max=%6.1f  complete=%d/%d\n",
      bcast::order_name(order), bcast::atomicity_name(atomicity),
      all_members_ms.mean(), all_members_ms.percentile(0.5),
      all_members_ms.percentile(0.95), all_members_ms.max(), complete,
      kUpdates);
  out.name = std::string("semantics/") + bcast::order_name(order) + "/" +
             bcast::atomicity_name(atomicity);
  out.config = {{"n", kTeam},
                {"updates", kUpdates},
                {"seed", static_cast<double>(kSeed)}};
  out.metrics = {{"all_member_ms_mean", all_members_ms.mean()},
                 {"all_member_ms_p50", all_members_ms.percentile(0.5)},
                 {"all_member_ms_p95", all_members_ms.percentile(0.95)},
                 {"all_member_ms_max", all_members_ms.max()},
                 {"delivered", static_cast<double>(complete)}};
  return complete == kUpdates;
}

}  // namespace
}  // namespace tw::bench

int main(int argc, char** argv) {
  using namespace tw;
  using namespace tw::bench;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: scenario_broadcast_semantics [--out FILE]\n");
      return 2;
    }
  }
  print_header("E7: broadcast delivery latency per (order x atomicity)",
               "N=5, one update per 20 ms round-robin, failure-free");
  bool ok = true;
  BenchReport report{"broadcast-semantics", {}};
  for (auto order :
       {bcast::Order::unordered, bcast::Order::total, bcast::Order::time})
    for (auto atomicity : {bcast::Atomicity::weak, bcast::Atomicity::strong,
                           bcast::Atomicity::strict}) {
      BenchRun r;
      ok = run_combo(order, atomicity, r) && ok;
      report.runs.push_back(std::move(r));
    }
  std::printf(
      "\nExpected shape: weak+unordered is fastest (delivered on receipt);\n"
      "stronger atomicity waits for ack accumulation around the wheel\n"
      "(strict > strong); time order releases at send_ts + deliver_delay.\n");
  if (!out_path.empty()) {
    if (!report.write_file(out_path)) ok = false;
    std::printf("wrote %s\n", out_path.c_str());
  }
  if (!ok) std::printf("INCOMPLETE: some updates missed a member\n");
  return ok ? 0 : 1;
}
