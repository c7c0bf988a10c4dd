// The pluggable surveillance-timeout policy layer (failure_detector.hpp):
// the paper's fixed 2D bound, the adaptive EWMA-of-hop-latency estimator,
// and the FailureDetector plumbing that feeds them (hop observations on
// the first expectation-satisfying control message, penalties on expiry,
// [floor, cap] clamping no policy may escape), including a team whose
// nodes run the adaptive policy. Plus the plan-file keys the
// explore work added ("guard", "round"): serialized only off-default so
// historical dumps stay byte-identical.
#include "gms/failure_detector.hpp"

#include <gtest/gtest.h>

#include <string>

#include "gms/sim_harness.hpp"
#include "torture/fault_plan.hpp"

namespace tw::gms {
namespace {

constexpr sim::Duration kFloor = 1000;
constexpr sim::Duration kCap = 100000;  // "2D"

AdaptiveDetectorPolicy::Params fast_params() {
  AdaptiveDetectorPolicy::Params p;
  p.warmup = 4;
  p.tighten_streak = 4;  // tighten as soon as warmup allows
  p.decay_streak = 8;
  return p;
}

void feed(AdaptiveDetectorPolicy& pol, ProcessId from, sim::Duration gap,
          int times) {
  for (int i = 0; i < times; ++i) pol.observe(from, gap);
}

TEST(DetectorPolicy, FixedAlwaysReturnsCap) {
  FixedDetectorPolicy pol;
  EXPECT_EQ(pol.timeout(0, kFloor, kCap), kCap);
  pol.observe(0, 10);      // no-ops
  pol.penalize(0);
  EXPECT_EQ(pol.timeout(0, kFloor, kCap), kCap);
  EXPECT_STREQ(pol.name(), "fixed");
}

TEST(DetectorPolicy, AdaptiveStaysAtCapDuringWarmup) {
  AdaptiveDetectorPolicy pol(3, fast_params());
  EXPECT_EQ(pol.timeout(1, kFloor, kCap), kCap);
  feed(pol, 1, 5000, 3);  // one short of warmup
  EXPECT_EQ(pol.timeout(1, kFloor, kCap), kCap);
  feed(pol, 1, 5000, 1);
  EXPECT_LT(pol.timeout(1, kFloor, kCap), kCap);
  // Warmup is per peer: peer 2 has no samples, its timeout stays at cap.
  EXPECT_EQ(pol.timeout(2, kFloor, kCap), kCap);
}

TEST(DetectorPolicy, AdaptiveTracksHopLatencyWithMargin) {
  AdaptiveDetectorPolicy pol(3, fast_params());
  feed(pol, 1, 5000, 32);
  EXPECT_EQ(pol.estimate(1), 5000);
  const sim::Duration t = pol.timeout(1, kFloor, kCap);
  // Above the estimate (a margin exists) but far below the 2D cap.
  EXPECT_GT(t, 5000);
  EXPECT_LT(t, kCap / 2);
}

TEST(DetectorPolicy, AdaptiveClampsToFloor) {
  AdaptiveDetectorPolicy pol(3, fast_params());
  feed(pol, 1, 10, 32);  // hops far quicker than any admissible envelope
  EXPECT_EQ(pol.timeout(1, /*floor=*/5000, kCap), 5000);
}

TEST(DetectorPolicy, PenaltyDoublesTimeoutAndStreakDecaysIt) {
  auto params = fast_params();
  params.tighten_streak = 1;
  AdaptiveDetectorPolicy pol(3, params);
  feed(pol, 1, 5000, 32);
  const sim::Duration base = pol.timeout(1, kFloor, kCap);
  pol.penalize(1);
  EXPECT_EQ(pol.backoff(), 1);
  // The streak hysteresis pins a freshly-penalized policy at the cap...
  EXPECT_EQ(pol.timeout(1, kFloor, kCap), kCap);
  // ...and once enough answered hops rebuild the streak, the timeout is
  // the doubled estimate until decay_streak hops retire the notch.
  feed(pol, 1, 5000, 2);
  EXPECT_GE(pol.timeout(1, kFloor, kCap), 2 * base - 1);
  feed(pol, 1, 5000, 8);
  EXPECT_EQ(pol.backoff(), 0);
  EXPECT_LT(pol.timeout(1, kFloor, kCap), 2 * base);
}

TEST(DetectorPolicy, BackoffIsSharedAcrossPeersAndCapped) {
  auto params = fast_params();
  params.backoff_max = 3;
  AdaptiveDetectorPolicy pol(3, params);
  for (int i = 0; i < 10; ++i) pol.penalize(static_cast<ProcessId>(i % 3));
  EXPECT_EQ(pol.backoff(), 3);  // capped, and one counter for all peers
}

TEST(DetectorPolicy, LossyNetworkSitsAtThePaperBound) {
  // Penalties interleaved every few hops: the answered streak never
  // reaches tighten_streak, so the policy keeps the 2D bound instead of
  // suspecting live members at the clean-network rate.
  auto params = fast_params();
  params.tighten_streak = 8;
  AdaptiveDetectorPolicy pol(3, params);
  for (int burst = 0; burst < 16; ++burst) {
    feed(pol, 1, 5000, 4);
    pol.penalize(1);
  }
  EXPECT_EQ(pol.timeout(1, kFloor, kCap), kCap);
}

TEST(DetectorPolicy, IsolatedLateHopIsRememberedByExcessTerm) {
  AdaptiveDetectorPolicy pol(3, fast_params());
  feed(pol, 1, 5000, 16);
  const sim::Duration calm = pol.timeout(1, kFloor, kCap);
  pol.observe(1, 40000);  // one late straggler, nowhere near the cap
  const sim::Duration after = pol.timeout(1, kFloor, kCap);
  // The EWMA deviation alone would forget this within a few samples; the
  // decaying-max excess term keeps the margin above the straggler's error.
  EXPECT_GT(after, calm + 20000);
  EXPECT_LE(after, kCap);
}

TEST(DetectorPolicy, ResetRestoresColdState) {
  AdaptiveDetectorPolicy pol(3, fast_params());
  feed(pol, 1, 5000, 32);
  pol.penalize(1);
  pol.reset();
  EXPECT_EQ(pol.backoff(), 0);
  EXPECT_EQ(pol.estimate(1), -1);
  EXPECT_EQ(pol.timeout(1, kFloor, kCap), kCap);
}

// --- FailureDetector <-> policy plumbing --------------------------------

TEST(DetectorPlumbing, FirstSatisfyingControlMessageClosesOneHop) {
  FailureDetector fd(0, 3, 1000);
  AdaptiveDetectorPolicy pol(3, fast_params());
  fd.set_policy(&pol);
  fd.expect(/*sender=*/1, /*base_ts=*/1000, /*deadline=*/5000);
  // Older-than-base traffic is not a hop.
  fd.note_control(1, 900, 1900);
  EXPECT_EQ(pol.estimate(1), -1);
  // The first satisfying message contributes sync_now - base_ts ...
  fd.note_control(1, 3000, 3500);
  EXPECT_EQ(pol.estimate(1), 3500 - 1000);
  // ... and later ring traffic from the same sender does not re-observe.
  fd.note_control(1, 4000, 4200);
  EXPECT_EQ(pol.estimate(1), 2500);
}

TEST(DetectorPlumbing, SurveillanceTimeoutClampsWhateverThePolicySays) {
  // A policy that ignores the [floor, cap] contract on purpose.
  class Rogue final : public DetectorPolicy {
   public:
    void observe(ProcessId, sim::Duration) override {}
    [[nodiscard]] sim::Duration timeout(ProcessId, sim::Duration,
                                        sim::Duration) const override {
      return value;
    }
    void penalize(ProcessId) override {}
    void reset() override {}
    [[nodiscard]] const char* name() const override { return "rogue"; }
    sim::Duration value = 0;
  };
  FailureDetector fd(0, 3, 1000);
  Rogue rogue;
  fd.set_policy(&rogue);
  rogue.value = 1;  // below the detection floor: would suspect live peers
  EXPECT_EQ(fd.surveillance_timeout(1, kFloor, kCap), kFloor);
  rogue.value = 10 * kCap;  // above 2D: would break the §4.2 argument
  EXPECT_EQ(fd.surveillance_timeout(1, kFloor, kCap), kCap);
  // No policy attached behaves like the paper's fixed bound.
  fd.set_policy(nullptr);
  EXPECT_EQ(fd.surveillance_timeout(1, kFloor, kCap), kCap);
  // A floor misconfigured above the cap never yields a timeout beyond 2D.
  fd.set_policy(&rogue);
  rogue.value = 0;
  EXPECT_EQ(fd.surveillance_timeout(1, /*floor=*/2 * kCap, kCap), kCap);
}

TEST(DetectorPlumbing, ExpiryPenalizesTheExpectedSenderOnly) {
  FailureDetector fd(0, 3, 1000);
  AdaptiveDetectorPolicy pol(3, fast_params());
  fd.set_policy(&pol);
  fd.note_expectation_timeout();  // no expectation armed: no penalty
  EXPECT_EQ(pol.backoff(), 0);
  fd.expect(1, 1000, 5000);
  fd.note_expectation_timeout();
  EXPECT_EQ(pol.backoff(), 1);
}

TEST(DetectorPlumbing, ResetAlsoResetsTheAttachedPolicy) {
  FailureDetector fd(0, 3, 1000);
  AdaptiveDetectorPolicy pol(3, fast_params());
  fd.set_policy(&pol);
  fd.expect(1, 1000, 5000);
  fd.note_expectation_timeout();
  EXPECT_EQ(pol.backoff(), 1);
  fd.reset();
  EXPECT_EQ(pol.backoff(), 0);
  EXPECT_FALSE(fd.expecting());
}

TEST(DetectorPlumbing, NodeOnAdaptiveDetectorTightensThenStillRemovesACrash) {
  // DetectorKind::adaptive inside a team: once every member has answered
  // more than tighten_streak hops, the surveillance timeout a member arms
  // for its expected sender drops below the paper's 2D bound, and a crash
  // is still detected and removed.
  HarnessConfig cfg;
  cfg.n = 5;
  cfg.seed = 31;
  cfg.node.detector = DetectorKind::adaptive;
  SimHarness h(cfg);
  h.start();
  ASSERT_TRUE(h.run_until_group(util::ProcessSet::full(5), sim::sec(15)));
  // A member answers one hop per decision (one every decision delay when
  // idle) and tightens after `warmup` samples from each of its 4 peers and
  // tighten_streak answered hops in a row; run four times that long.
  const AdaptiveDetectorPolicy::Params params;
  h.run_for(4 * cfg.node.effective_decision_delay() *
            (params.tighten_streak + 4 * params.warmup));
  const sim::Duration cap = cfg.node.fd_timeout();
  int watching = 0;
  for (ProcessId p = 0; p < 5; ++p) {
    const FailureDetector& fd = h.node(p).failure_detector();
    if (!fd.expecting()) continue;  // the decider watches nobody
    ++watching;
    const sim::Duration floor =
        cfg.node.fd_floor(h.node(p).clock().epsilon());
    EXPECT_LT(fd.surveillance_timeout(fd.expected_sender(), floor, cap), cap)
        << "p" << p;
    EXPECT_LT(fd.deadline() - fd.base_ts(), cap) << "p" << p;
  }
  EXPECT_GE(watching, 3);

  h.faults().crash_at(h.now() + sim::msec(5), 2);
  util::ProcessSet without2 = util::ProcessSet::full(5);
  without2.erase(2);
  ASSERT_TRUE(h.run_until_group(without2, h.now() + sim::sec(10)));
  EXPECT_TRUE(h.check_all_invariants().empty());
}

// --- FailureDetector boundary edges (the §4.2 comparisons are strict) ---

TEST(DetectorEdges, AliveWindowBoundaryIsInclusive) {
  FailureDetector fd(0, 5, 1000);  // window = N * slot = 5000
  fd.note_control(2, 10, 100);
  // Exactly N slots after the receipt the peer is still alive; one
  // microsecond later it windows out.
  EXPECT_TRUE(fd.alive_list(5100).contains(2));
  EXPECT_FALSE(fd.alive_list(5101).contains(2));
}

TEST(DetectorEdges, ExpectationMetRequiresStrictlyNewerTimestamp) {
  FailureDetector fd(0, 3, 1000);
  fd.expect(1, 100, 300);
  fd.note_control(1, 100, 110);  // == base_ts: the round we already have
  EXPECT_FALSE(fd.expectation_met());
  fd.note_control(1, 101, 120);
  EXPECT_TRUE(fd.expectation_met());
}

TEST(DetectorEdges, ReArmAfterTransientDesyncStartsCold) {
  // A transient desync resets the FD (the node re-enters surveillance
  // from scratch): receipts from before the reset must not satisfy the
  // re-armed expectation, and the policy restarts at the paper's bound.
  FailureDetector fd(0, 3, 1000);
  AdaptiveDetectorPolicy pol(3, fast_params());
  fd.set_policy(&pol);
  for (sim::ClockTime t = 0; t < 32; ++t) {
    fd.expect(1, t * 100, t * 100 + 300);
    fd.note_control(1, t * 100 + 50, t * 100 + 60);
  }
  ASSERT_LT(pol.timeout(1, kFloor, kCap), kCap);
  fd.reset();
  fd.expect(1, 100, 300);
  EXPECT_FALSE(fd.expectation_met());  // pre-desync receipts are gone
  EXPECT_EQ(fd.surveillance_timeout(1, kFloor, kCap), kCap);
  fd.note_control(1, 150, 160);
  EXPECT_TRUE(fd.expectation_met());
}

// --- plan-file keys added by the explore work ---------------------------

TEST(PlanFormat, GuardAndRoundKeysRoundTripOnlyWhenOffDefault) {
  torture::TortureConfig cfg;
  cfg.n = 3;
  torture::FaultPlan plan = torture::generate_plan(cfg, 42);

  // Defaults (guard on, no marks): neither key appears, so historical
  // dumps and their digests are untouched by the new fields.
  std::string text = torture::plan_to_string(plan);
  EXPECT_EQ(text.find("guard"), std::string::npos);
  EXPECT_EQ(text.find("round "), std::string::npos);
  torture::FaultPlan parsed;
  ASSERT_TRUE(torture::plan_from_string(text, parsed));
  EXPECT_TRUE(parsed.cfg.occupancy_guard);
  EXPECT_TRUE(parsed.rounds.empty());

  plan.cfg.occupancy_guard = false;
  plan.rounds.push_back({0, sim::sec(3)});
  plan.rounds.push_back({1, sim::sec(3) + sim::msec(180)});
  text = torture::plan_to_string(plan);
  EXPECT_NE(text.find("guard 0"), std::string::npos);
  ASSERT_TRUE(torture::plan_from_string(text, parsed));
  EXPECT_FALSE(parsed.cfg.occupancy_guard);
  ASSERT_EQ(parsed.rounds.size(), 2u);
  EXPECT_EQ(parsed.rounds[1].index, 1);
  EXPECT_EQ(parsed.rounds[1].at, sim::sec(3) + sim::msec(180));
  EXPECT_EQ(torture::plan_to_string(parsed), text);
}

}  // namespace
}  // namespace tw::gms
