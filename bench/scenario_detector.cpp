// Experiment E11 — adaptive vs fixed failure detection, exported as
// tw-bench-v1 JSON (BENCH_detector.json) for tools/benchdiff.
//
// The paper's failure detector waits a fixed 2D = 100 ms for the expected
// sender's next control message. The adaptive DetectorPolicy instead
// tracks the observed ring-hop latency (EWMA + variance margin, clamped to
// [fd_floor, 2D]), so detection fires as soon as the ring's real cadence —
// not its worst case — is violated. This scenario measures what that buys
// and what it risks, across three regimes:
//
//   clean — the default simulator network (sub-ms transit, tiny drift).
//   lossy — 5% datagram loss + 2% performance failures (late datagrams).
//   drift — hardware clocks drifting at rho = 1e-4 (10x the default).
//
// Per (regime, policy) cell, over many seeds: the team forms, runs a warm
// steady-state window (long enough for the adaptive policy's per-peer
// warmup), then one random member crashes. We record
//
//   view_change_ms_p50/p99 — crash to new-group-created (simulated time),
//   false_suspicions       — FD timeouts raised during the crash-FREE warm
//                            window, where every suspicion is by
//                            construction wrong,
//   recovery_failures      — seeds where the survivors never re-formed.
//
// Everything is simulated-time deterministic for a given seed set, so CI
// diffs a fresh run against the committed BENCH_detector.json baseline.
// Acceptance (ISSUE 8): adaptive p50 beats the fixed baseline in the clean
// regime, with no false-suspicion regression under lossy/drift.
#include <cstdlib>
#include <string>

#include "bench/bench_common.hpp"
#include "bench/bench_json.hpp"

namespace tw::bench {
namespace {

struct Regime {
  const char* name;
  double loss_prob = 0.0;
  double late_prob = 0.0;
  double rho = 1e-5;
};

constexpr Regime kRegimes[] = {
    {"clean"},
    {"lossy", 0.05, 0.02, 1e-5},
    {"drift", 0.0, 0.0, 1e-4},
};

/// Steady-state window before the crash: the adaptive policy needs
/// `warmup` hop samples per peer plus a tighten_streak of answered hops,
/// and hops close roughly once per slot, so 6 s is ~100 hops.
constexpr sim::Duration kWarmWindow = sim::sec(6);

std::uint64_t total_suspicions(gms::SimHarness& h) {
  std::uint64_t total = 0;
  for (ProcessId p = 0; p < static_cast<ProcessId>(h.n()); ++p)
    total += h.node(p).stats().suspicions_raised;
  return total;
}

bool run_cell(const Regime& regime, gms::DetectorKind kind, int n,
              std::uint64_t seeds, BenchRun& out) {
  util::Samples lat;
  std::uint64_t false_susp = 0;
  int failures = 0;
  for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
    gms::HarnessConfig cfg = default_config(n, seed);
    cfg.node.detector = kind;
    cfg.delays.loss_prob = regime.loss_prob;
    cfg.delays.late_prob = regime.late_prob;
    cfg.rho = regime.rho;
    gms::SimHarness h(cfg);
    if (form_full_group(h) < 0) {
      ++failures;
      continue;
    }
    // Crash-free warm window: it feeds the adaptive estimator, and any
    // suspicion raised in it is a false one.
    const std::uint64_t susp0 = total_suspicions(h);
    h.run_for(kWarmWindow);
    false_susp += total_suspicions(h) - susp0;

    sim::Rng rng(seed * 31);
    const auto victim = static_cast<ProcessId>(rng.uniform_int(0, n - 1));
    const sim::SimTime crash_at =
        h.now() + rng.uniform_int(sim::msec(20), sim::msec(400));
    h.faults().crash_at(crash_at, victim);
    util::ProcessSet expected =
        util::ProcessSet::full(static_cast<ProcessId>(n));
    expected.erase(victim);
    if (!h.run_until_group(expected, crash_at + sim::sec(10))) {
      ++failures;
      continue;
    }
    const sim::SimTime created = h.cluster().trace_log().first_after(
        sim::TraceKind::group_created, crash_at);
    if (created == sim::kNever) {
      // Under loss, a false suspicion just before the crash can install
      // the survivor group early; no creation follows the crash. Not a
      // view-change sample, not a recovery failure.
      continue;
    }
    lat.add(ms(static_cast<double>(created - crash_at)));
  }
  if (lat.count() == 0) return false;

  const char* policy =
      kind == gms::DetectorKind::adaptive ? "adaptive" : "fixed";
  out.name = std::string("detector/") + regime.name + "/" + policy;
  out.config = {{"n", static_cast<double>(n)},
                {"seeds", static_cast<double>(seeds)},
                {"adaptive", kind == gms::DetectorKind::adaptive ? 1.0 : 0.0},
                {"loss_prob", regime.loss_prob},
                {"late_prob", regime.late_prob},
                {"rho", regime.rho}};
  out.metrics = {{"view_change_ms_p50", lat.percentile(0.5)},
                 {"view_change_ms_p99", lat.percentile(0.99)},
                 {"view_change_ms_mean", lat.mean()},
                 {"false_suspicions", static_cast<double>(false_susp)},
                 {"recovery_failures", static_cast<double>(failures)}};
  std::printf(
      "%-26s view-change ms: p50=%6.1f p99=%6.1f mean=%6.1f  "
      "false-susp=%llu  fail=%d/%llu\n",
      out.name.c_str(), lat.percentile(0.5), lat.percentile(0.99), lat.mean(),
      static_cast<unsigned long long>(false_susp), failures,
      static_cast<unsigned long long>(seeds));
  return true;
}

}  // namespace
}  // namespace tw::bench

int main(int argc, char** argv) {
  using namespace tw;
  using namespace tw::bench;
  std::string out_path = "BENCH_detector.json";
  int n = 5;
  std::uint64_t seeds = 40;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--out" && next()) {
      out_path = argv[i];
    } else if (arg == "--n" && next()) {
      n = std::atoi(argv[i]);
    } else if (arg == "--seeds" && next()) {
      seeds = std::strtoull(argv[i], nullptr, 10);
    } else {
      std::fprintf(stderr,
                   "usage: scenario_detector [--out FILE] [--n N] "
                   "[--seeds K]\n");
      return 2;
    }
  }
  if (n < 3 || seeds == 0) return 2;

  print_header(
      "E11: fixed (2D) vs adaptive (EWMA + margin) failure detection",
      "crash after a 6 s warm window; warm-window suspicions are false");
  bool ok = true;
  BenchReport report{"detector-policy", {}};
  for (const Regime& regime : kRegimes) {
    for (const gms::DetectorKind kind :
         {gms::DetectorKind::fixed, gms::DetectorKind::adaptive}) {
      BenchRun r;
      if (run_cell(regime, kind, n, seeds, r))
        report.runs.push_back(std::move(r));
      else
        ok = false;
    }
  }
  if (!report.write_file(out_path)) ok = false;
  std::printf("\nwrote %s%s\n", out_path.c_str(),
              ok ? "" : "  (WITH FAILURES)");
  return ok ? 0 : 1;
}
