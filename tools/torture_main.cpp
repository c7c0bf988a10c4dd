// torture_main — the deterministic fault-injection torture CLI.
//
// Every run is bit-for-bit reproducible from its seed: the fault schedule,
// the datagram delays, the scheduling jitter and the workload all derive
// from it. On an oracle violation the tool prints the seed, the violation
// report and a minimized fault schedule, and writes a replayable plan file.
//
//   torture_main --seed 7                 # one seed, verbose verdict
//   torture_main --seeds 200              # sweep seeds 1..200
//   torture_main --seed 7 --print-plan    # show the generated schedule
//   torture_main --replay fail.plan       # re-run a written plan file
//   torture_main --explore                # enumerate the default window
//   torture_main --explore-window W.window   # ... a checked-in window spec
//   torture_main --seeds 200 --digest-only   # "<seed> <digest>" lines
//
// Exit status: 0 = all runs passed, 1 = at least one violation, 2 = usage.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "torture/engine.hpp"
#include "torture/explore.hpp"

namespace {

void usage() {
  std::fprintf(stderr, R"(usage: torture_main [options]
  --seed S          run a single seed (default 1)
  --seeds K         sweep K seeds starting at --first-seed
  --first-seed S    first seed of a sweep (default 1)
  --n N             team size (default 5)
  --duration SEC    fault-window length in simulated seconds (default 15)
  --rate HZ         proposal workload rate (default 15)
  --max-batch K     NodeConfig::max_batch for every node (default 1 = off)
  --loss P          ambient datagram loss probability (default 0.01)
  --dup P           ambient duplication probability (default 0.02)
  --reorder P       ambient bounded-reorder probability (default 0.05)
  --corrupt P       ambient corruption probability (default 0.01)
  --no-crash --no-stall --no-partition --no-drop --no-dup
  --no-reorder --no-corrupt --no-clock --no-store --no-slow
                    disable a fault family
  --print-plan      print the generated fault schedule before running
  --no-minimize     skip minimizing failing schedules
  --out FILE        write failing plans to FILE (default torture_fail.plan)
  --replay FILE     run a plan file written by a previous failure
  --digest-only     print only "<seed|plan|case> <digest>" lines (for
                    diffing runs; see tools/digest_gate.sh)
  --explore         exhaustively enumerate the default bounded window
                    (3 processes x 2 rounds; crash + partition transitions)
  --explore-window FILE   enumerate an "explore-window v1" spec file
  --no-occupancy-guard    disable the delivery occupancy-conflict repair
                          (mutation check: explore MUST find a violation)
)");
}

bool parse_f(const char* s, double& out) {
  char* end = nullptr;
  out = std::strtod(s, &end);
  return end != s && *end == '\0';
}

bool parse_u(const char* s, std::uint64_t& out) {
  char* end = nullptr;
  out = std::strtoull(s, &end, 10);
  return end != s && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tw;
  torture::TortureConfig cfg;
  std::uint64_t seed = 1, first_seed = 1, sweep_count = 0;
  bool single = true, print_plan = false, do_minimize = true;
  bool digest_only = false;
  double duration_sec = 15.0;
  std::string out_file = "torture_fail.plan";
  std::string replay_file;
  bool do_explore = false, occupancy_guard = true;
  std::string window_file;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    std::uint64_t u = 0;
    double f = 0;
    if (arg == "--seed" && next() && parse_u(argv[i], u)) {
      seed = u;
      single = true;
    } else if (arg == "--seeds" && next() && parse_u(argv[i], u)) {
      sweep_count = u;
      single = false;
    } else if (arg == "--first-seed" && next() && parse_u(argv[i], u)) {
      first_seed = u;
    } else if (arg == "--n" && next() && parse_u(argv[i], u)) {
      cfg.n = static_cast<int>(u);
    } else if (arg == "--duration" && next() && parse_f(argv[i], f)) {
      duration_sec = f;
    } else if (arg == "--rate" && next() && parse_f(argv[i], f)) {
      cfg.workload_rate_hz = f;
    } else if (arg == "--max-batch" && next() && parse_u(argv[i], u)) {
      cfg.max_batch = static_cast<int>(u);
    } else if (arg == "--loss" && next() && parse_f(argv[i], f)) {
      cfg.loss_prob = f;
    } else if (arg == "--dup" && next() && parse_f(argv[i], f)) {
      cfg.model.dup_prob = f;
    } else if (arg == "--reorder" && next() && parse_f(argv[i], f)) {
      cfg.model.reorder_prob = f;
    } else if (arg == "--corrupt" && next() && parse_f(argv[i], f)) {
      cfg.model.corrupt_prob = f;
    } else if (arg == "--no-crash") {
      cfg.crashes = false;
    } else if (arg == "--no-stall") {
      cfg.stalls = false;
    } else if (arg == "--no-partition") {
      cfg.partitions = false;
    } else if (arg == "--no-drop") {
      cfg.drops = false;
    } else if (arg == "--no-dup") {
      cfg.duplication = false;
    } else if (arg == "--no-reorder") {
      cfg.reordering = false;
    } else if (arg == "--no-corrupt") {
      cfg.corruption = false;
    } else if (arg == "--no-clock") {
      cfg.clock_faults = false;
    } else if (arg == "--no-store") {
      cfg.store_faults = false;
    } else if (arg == "--no-slow") {
      cfg.slow_receivers = false;
    } else if (arg == "--print-plan") {
      print_plan = true;
    } else if (arg == "--no-minimize") {
      do_minimize = false;
    } else if (arg == "--digest-only") {
      digest_only = true;
    } else if (arg == "--out" && next()) {
      out_file = argv[i];
    } else if (arg == "--replay" && next()) {
      replay_file = argv[i];
    } else if (arg == "--explore") {
      do_explore = true;
    } else if (arg == "--explore-window" && next()) {
      do_explore = true;
      window_file = argv[i];
    } else if (arg == "--no-occupancy-guard") {
      occupancy_guard = false;
    } else {
      usage();
      return 2;
    }
  }
  cfg.fault_end =
      cfg.fault_start + static_cast<tw::sim::Duration>(duration_sec * 1e6);
  cfg.occupancy_guard = occupancy_guard;

  torture::TortureEngine engine(cfg);

  auto report_failure = [&](const torture::RunResult& run) {
    std::printf("seed %llu FAILED:\n%s\n",
                static_cast<unsigned long long>(run.seed),
                run.report.to_string().c_str());
    torture::FaultPlan repro = run.plan;
    std::string trace = run.trace_jsonl;
    if (do_minimize) {
      std::printf("minimizing %zu fault ops...\n", run.plan.ops.size());
      repro = engine.minimize(run.plan);
      // The minimized schedule is what a developer replays; dump ITS
      // trace, not the noisier original one.
      const torture::RunResult rerun = engine.run_plan(repro);
      if (!rerun.trace_jsonl.empty()) trace = rerun.trace_jsonl;
    }
    std::printf("minimal schedule (%zu ops):\n", repro.ops.size());
    for (const auto& op : repro.ops)
      if (!op.structural) std::printf("  %s\n", op.to_string().c_str());
    std::ofstream out(out_file);
    out << torture::plan_to_string(repro);
    const std::string trace_file = out_file + ".trace.jsonl";
    if (!trace.empty()) {
      std::ofstream tout(trace_file);
      tout << trace;
      std::printf("merged trace: %s  (inspect with twtrace)\n",
                  trace_file.c_str());
    }
    std::printf(
        "replay: torture_main --replay %s   (or --seed %llu for the full "
        "schedule)\n",
        out_file.c_str(), static_cast<unsigned long long>(run.seed));
  };

  if (do_explore) {
    torture::ExploreWindow window;
    if (!window_file.empty()) {
      std::ifstream in(window_file);
      if (!in) {
        std::fprintf(stderr, "cannot open %s\n", window_file.c_str());
        return 2;
      }
      std::ostringstream text;
      text << in.rdbuf();
      if (!torture::window_from_string(text.str(), window)) {
        std::fprintf(stderr, "cannot parse %s\n", window_file.c_str());
        return 2;
      }
    }
    // The CLI mutation flag overrides the spec, so one checked-in window
    // serves both the HEAD run and the guard-mutated run.
    if (!occupancy_guard) window.occupancy_guard = false;
    if (digest_only) {
      // One "<case> <digest>" line per case, in explore()'s DFS order. Built
      // only on build_explore_case and run_plan, so tools/digest_gate.sh can
      // drive a library that predates this mode; a window with only one
      // transition enabled counts that transition's domain.
      auto domain = [&window](bool crash, bool partition, bool drops) {
        torture::ExploreWindow only = window;
        only.crash = crash;
        only.partition = partition;
        only.drops = drops;
        return only.case_count() - 1;  // minus "transition absent"
      };
      const int crashes = domain(window.crash, false, false);
      const int cuts = domain(false, window.partition, false);
      const int drops = domain(false, false, window.drops);
      int cases = 0, violations = 0;
      for (int c = -1; c < crashes; ++c)
        for (int p = -1; p < cuts; ++p)
          for (int d = -1; d < drops; ++d) {
            const torture::RunResult run =
                engine.run_plan(torture::build_explore_case(window, c, p, d));
            if (!run.passed()) ++violations;
            std::printf(
                "%d %016llx\n", ++cases,
                static_cast<unsigned long long>(run.report.trace_digest));
          }
      std::printf("explored %d cases: %d violation%s\n", cases, violations,
                  violations == 1 ? "" : "s");
      return violations == 0 ? 0 : 1;
    }
    std::printf(
        "exploring %d processes x %d rounds x %d buckets "
        "(%d cases, guard %s)\n",
        window.n, window.rounds, window.buckets, window.case_count(),
        window.occupancy_guard ? "on" : "OFF");
    const torture::ExploreResult res = torture::explore(
        window, [](int done, int total) {
          if (done % 100 == 0 || done == total)
            std::printf("  %d/%d cases...\n", done, total);
        });
    std::printf("explored %d cases: %d violation%s\n", res.cases,
                res.violations, res.violations == 1 ? "" : "s");
    if (res.violations == 0) return 0;
    report_failure(res.failed.front());
    return 1;
  }

  if (!replay_file.empty()) {
    std::ifstream in(replay_file);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", replay_file.c_str());
      return 2;
    }
    std::ostringstream text;
    text << in.rdbuf();
    torture::FaultPlan plan;
    if (!torture::plan_from_string(text.str(), plan)) {
      std::fprintf(stderr, "cannot parse %s\n", replay_file.c_str());
      return 2;
    }
    const torture::RunResult run = engine.run_plan(plan);
    if (digest_only) {
      std::printf("%s %016llx\n", replay_file.c_str(),
                  static_cast<unsigned long long>(run.report.trace_digest));
      // Digest mode must still be loud about violations: a CI job diffing
      // digests would otherwise green-light a failing replay.
      if (!run.passed())
        std::fprintf(stderr, "replay of %s FAILED:\n%s\n",
                     replay_file.c_str(), run.report.to_string().c_str());
      return run.passed() ? 0 : 1;
    }
    std::printf("replay of %s: %s\n", replay_file.c_str(),
                run.report.to_string().c_str());
    if (!run.passed()) {
      // A replayed plan is already minimal; name it and dump its trace
      // beside it, mirroring what a failing seed run reports.
      std::printf("plan: %s\n", replay_file.c_str());
      if (!run.trace_jsonl.empty()) {
        const std::string trace_file = replay_file + ".trace.jsonl";
        std::ofstream tout(trace_file);
        tout << run.trace_jsonl;
        std::printf("merged trace: %s  (inspect with twtrace)\n",
                    trace_file.c_str());
      }
    }
    return run.passed() ? 0 : 1;
  }

  if (single) {
    const torture::FaultPlan plan = torture::generate_plan(cfg, seed);
    if (print_plan) std::printf("%s", torture::plan_to_string(plan).c_str());
    const torture::RunResult run = engine.run_plan(plan);
    if (digest_only) {
      std::printf("%llu %016llx\n", static_cast<unsigned long long>(seed),
                  static_cast<unsigned long long>(run.report.trace_digest));
      return run.passed() ? 0 : 1;
    }
    if (run.passed()) {
      std::printf("seed %llu %s\n", static_cast<unsigned long long>(seed),
                  run.report.to_string().c_str());
      return 0;
    }
    report_failure(run);
    return 1;
  }

  int failures = 0;
  for (std::uint64_t s = first_seed; s < first_seed + sweep_count; ++s) {
    const torture::RunResult run = engine.run_seed(s);
    if (digest_only) {
      std::printf("%llu %016llx\n", static_cast<unsigned long long>(s),
                  static_cast<unsigned long long>(run.report.trace_digest));
    } else if (run.passed()) {
      std::printf("seed %llu ok digest=%016llx\n",
                  static_cast<unsigned long long>(s),
                  static_cast<unsigned long long>(run.report.trace_digest));
    }
    if (!run.passed()) {
      ++failures;
      if (!digest_only) report_failure(run);
    }
  }
  std::printf("sweep: %llu seeds, %d violation%s\n",
              static_cast<unsigned long long>(sweep_count), failures,
              failures == 1 ? "" : "s");
  return failures == 0 ? 0 : 1;
}
