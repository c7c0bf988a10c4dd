// Explore-mode (exhaustive small-scope model checking) suite.
//
// The checked-in window spec tests/plans/explore_dp_3x2.window is the CI
// coverage contract for the communication-closed-rounds work: 3 processes
// x 2 rounds with the decision-omission and partition transitions enabled.
// The suite pins both directions of the contract:
//
//   - HEAD is clean: full enumeration of the window finds zero violations.
//   - The checker is honest: mutating the occupancy guard out
//     (NodeConfig::occupancy_guard = false) makes the same window FIND the
//     same-epoch lineage fork, and the failing case minimizes to a
//     replayable plan that round-trips through the plan-file format and
//     reproduces the violation bit-for-bit (digest-stable).
#include "torture/explore.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "torture/engine.hpp"
#include "torture/fault_plan.hpp"

#ifndef TW_PLANS_DIR
#error "TW_PLANS_DIR must point at tests/plans"
#endif

namespace tw::torture {
namespace {

testing::AssertionResult load_window(ExploreWindow& out) {
  const std::string path =
      std::string(TW_PLANS_DIR) + "/explore_dp_3x2.window";
  std::ifstream in(path);
  if (!in) return testing::AssertionFailure() << "cannot open " << path;
  std::ostringstream text;
  text << in.rdbuf();
  if (!window_from_string(text.str(), out))
    return testing::AssertionFailure() << "cannot parse " << path;
  return testing::AssertionSuccess();
}

// The checked-in spec parses to the shape CI depends on: the drops
// transition (the only one that forks a lineage without an epoch change)
// is on, the crash transition is off (it cannot catch the guard mutation
// and would triple the case count), and the guard itself is on so the
// spec describes the HEAD run; --no-occupancy-guard overrides it for the
// mutation run.
TEST(TortureExplore, CheckedInWindowSpecParses) {
  ExploreWindow w;
  ASSERT_TRUE(load_window(w));
  EXPECT_EQ(w.n, 3);
  EXPECT_EQ(w.rounds, 2);
  EXPECT_EQ(w.buckets, 3);
  EXPECT_FALSE(w.crash);
  EXPECT_TRUE(w.partition);
  EXPECT_TRUE(w.drops);
  EXPECT_TRUE(w.occupancy_guard);
  EXPECT_GT(w.case_count(), 1000);  // drops dominate: n*(n-1)*positions
}

TEST(TortureExplore, WindowSpecRoundTrip) {
  ExploreWindow w;
  ASSERT_TRUE(load_window(w));
  const std::string text = window_to_string(w);
  ExploreWindow parsed;
  ASSERT_TRUE(window_from_string(text, parsed));
  EXPECT_EQ(window_to_string(parsed), text);

  // Unknown keys are errors (same contract as the plan format) and a
  // truncated spec (no `end`) is rejected rather than silently accepted.
  ExploreWindow bad;
  EXPECT_FALSE(window_from_string("explore-window v1\nbogus 3\nend\n", bad));
  EXPECT_FALSE(window_from_string("explore-window v1\nn 3\n", bad));
}

// Every leaf of the checked-in window passes the invariant oracle on HEAD.
// This IS the exhaustive run CI performs — small scope by design, so full
// coverage stays a few seconds.
TEST(TortureExplore, CheckedInWindowIsCleanOnHead) {
  ExploreWindow w;
  ASSERT_TRUE(load_window(w));
  const ExploreResult res = explore(w);
  EXPECT_EQ(res.cases, w.case_count());
  EXPECT_EQ(res.violations, 0)
      << (res.failed.empty() ? std::string("(no detail kept)")
                             : res.failed.front().report.to_string());
}

// Mutation check: with the occupancy guard compiled out of the delivery
// engine's conflict repair, the same window MUST find the same-epoch
// lineage fork — and the failing case must minimize to a plan that still
// fails, round-trips through the plan-file format, and replays to the
// identical trace digest (the repro a developer reads is both small and
// deterministic).
TEST(TortureExplore, GuardMutationIsCaughtAndMinimizesToReplayablePlan) {
  ExploreWindow w;
  ASSERT_TRUE(load_window(w));
  w.occupancy_guard = false;
  const ExploreResult res = explore(w);
  EXPECT_EQ(res.cases, w.case_count());
  ASSERT_GT(res.violations, 0)
      << "the occupancy-guard mutation escaped the explore window";
  ASSERT_FALSE(res.failed.empty());
  const RunResult& first = res.failed.front();
  EXPECT_FALSE(first.passed());
  EXPECT_FALSE(first.plan.rounds.empty())
      << "explore plans must carry round-boundary marks";

  const TortureEngine engine(first.plan.cfg);
  const FaultPlan minimized = engine.minimize(first.plan);
  EXPECT_LE(minimized.ops.size(), first.plan.ops.size());

  const RunResult direct = engine.run_plan(minimized);
  ASSERT_FALSE(direct.passed()) << "minimized plan no longer reproduces";

  // Plan-file round trip, preserving the guard-off config knob (it is
  // serialized only when off so historical plan dumps stay unchanged).
  const std::string text = plan_to_string(minimized);
  FaultPlan parsed;
  ASSERT_TRUE(plan_from_string(text, parsed));
  EXPECT_EQ(plan_to_string(parsed), text);
  EXPECT_FALSE(parsed.cfg.occupancy_guard);

  const RunResult replayed = TortureEngine(parsed.cfg).run_plan(parsed);
  ASSERT_FALSE(replayed.passed());
  EXPECT_EQ(replayed.report.trace_digest, direct.report.trace_digest)
      << "replay of the serialized minimized plan diverged";
}

// The minimizer keeps a removal only while the run fails the same way. The
// guard-off case below forks (decision p0 -> p2 dropped twice, every
// member's next retransmit request lost, p1 cut off for a bucket). A crash
// of p0 just before the window closes, recovered 345 ms later, leaves that
// fork as it is. Deleting the recover op alone adds a liveness failure,
// because p0 never comes back.
// Listed first, that removal is the first one a minimizer blind to kinds
// would keep; it would then strip the fork's own ops and end on the crash
// alone, a plan that shows only the liveness failure.
TEST(TortureExplore, MinimizerKeepsTheViolationKinds) {
  ExploreWindow w;
  ASSERT_TRUE(load_window(w));
  w.occupancy_guard = false;
  FaultPlan plan = build_explore_case(w, -1, 18, 7);
  FaultOp recover;
  recover.type = FaultType::recover;
  recover.p = 0;
  recover.at = sim::msec(3700);
  FaultOp crash = recover;
  crash.type = FaultType::crash;
  crash.at = sim::msec(3355);
  plan.ops.insert(plan.ops.begin(), recover);
  plan.ops.insert(plan.ops.begin() + 7, crash);  // after the omission and cut

  const auto bit = [](ViolationKind k) {
    return 1u << static_cast<unsigned>(k);
  };
  const TortureEngine engine(plan.cfg);
  const RunResult failed = engine.run_plan(plan);
  ASSERT_EQ(failed.report.kinds(), bit(ViolationKind::fork))
      << failed.report.to_string();
  FaultPlan drifted = plan;
  drifted.ops.erase(drifted.ops.begin());
  ASSERT_EQ(engine.run_plan(drifted).report.kinds(),
            bit(ViolationKind::fork) | bit(ViolationKind::liveness));

  const FaultPlan minimized = engine.minimize(plan);
  const RunResult replayed = engine.run_plan(minimized);
  EXPECT_EQ(replayed.report.kinds(), bit(ViolationKind::fork))
      << replayed.report.to_string();
  for (const FaultOp& op : minimized.ops)
    EXPECT_FALSE(!op.structural && (op.type == FaultType::crash ||
                                    op.type == FaultType::recover))
        << "the minimized plan still crashes or recovers p0";
}

}  // namespace
}  // namespace tw::torture
