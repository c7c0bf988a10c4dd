#include "torture/engine.hpp"

namespace tw::torture {

RunResult TortureEngine::run_seed(std::uint64_t seed) const {
  return run_plan(generate_plan(cfg_, seed));
}

RunResult TortureEngine::run_plan(const FaultPlan& plan) const {
  RunResult result;
  result.seed = plan.seed;
  result.plan = plan;
  gms::SimHarness harness(harness_config(plan));
  apply_plan(plan, harness);
  harness.start();
  result.report = run_oracle(harness, plan);
  if (!result.report.passed()) result.trace_jsonl = harness.trace_jsonl();
  return result;
}

FaultPlan TortureEngine::minimize(const FaultPlan& plan) const {
  const std::uint32_t kinds = run_plan(plan).report.kinds();
  FaultPlan current = plan;
  // Greedy single-op removal, repeated until a fixed point: dropping one op
  // can make another removable. A candidate that fails some other way
  // (say, a deleted recover op leaves the team unable to re-form) shows a
  // different bug, so it is not kept.
  bool shrunk = true;
  while (shrunk) {
    shrunk = false;
    for (std::size_t i = 0; i < current.ops.size(); ++i) {
      if (current.ops[i].structural) continue;
      FaultPlan candidate = current;
      candidate.ops.erase(candidate.ops.begin() +
                          static_cast<std::ptrdiff_t>(i));
      if (run_plan(candidate).report.kinds() == kinds) {
        current = std::move(candidate);
        shrunk = true;
        break;  // indices shifted; restart the scan
      }
    }
  }
  return current;
}

SweepResult TortureEngine::sweep(std::uint64_t first_seed, int count) const {
  SweepResult result;
  for (int i = 0; i < count; ++i) {
    RunResult run = run_seed(first_seed + static_cast<std::uint64_t>(i));
    ++result.runs;
    if (!run.passed()) {
      ++result.failures;
      result.failed.push_back(std::move(run));
    }
  }
  return result;
}

}  // namespace tw::torture
