// The torture engine: seed in, verdict out.
//
// One run = generate (or accept) a FaultPlan, build a fresh SimHarness,
// schedule the plan, live through it, and hand the lineage + trace to the
// invariant oracle. A failing run is minimized by greedy delta-debugging
// over the plan's non-structural fault ops, so the repro a developer reads
// is the smallest schedule that still trips the oracle the same way.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "torture/fault_plan.hpp"
#include "torture/oracle.hpp"

namespace tw::torture {

struct RunResult {
  std::uint64_t seed = 0;
  OracleReport report;
  FaultPlan plan;
  /// Merged cross-process trace (JSONL, twtrace-compatible) of the run.
  /// Captured only for FAILING runs, so a passing sweep stays cheap.
  std::string trace_jsonl;

  [[nodiscard]] bool passed() const { return report.passed(); }
};

struct SweepResult {
  int runs = 0;
  int failures = 0;
  std::vector<RunResult> failed;  ///< only the failing runs are kept
};

class TortureEngine {
 public:
  explicit TortureEngine(TortureConfig cfg) : cfg_(cfg) {}

  [[nodiscard]] const TortureConfig& config() const { return cfg_; }

  /// Generate the plan for `seed` and execute it.
  [[nodiscard]] RunResult run_seed(std::uint64_t seed) const;

  /// Execute an explicit (possibly pruned or hand-written) plan.
  [[nodiscard]] RunResult run_plan(const FaultPlan& plan) const;

  /// Greedy minimization of a failing plan: drop each non-structural fault
  /// op in turn, keep the removal when the oracle still reports violations
  /// of exactly the kinds `plan` shows. The returned plan reproduces that
  /// failure with (locally) minimal fault ops.
  [[nodiscard]] FaultPlan minimize(const FaultPlan& plan) const;

  /// Run seeds first_seed .. first_seed+count-1.
  [[nodiscard]] SweepResult sweep(std::uint64_t first_seed, int count) const;

 private:
  TortureConfig cfg_;
};

}  // namespace tw::torture
