// Overload-protection tests: admission control at try_propose() (refusal
// with a retry hint, never shedding an admitted proposal), the occupancy
// watermark state machine and its hysteresis band, control-over-data
// priority at the per-peer send cap, the bounded re-baseline delivery
// buffer, per-group refusal isolation in GroupRuntime, the UDP
// soft/hard sendto() error split, and the headline property: a merely-slow
// member must never be suspected by a healthy one.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <ctime>
#include <vector>

#include "gms/group_runtime.hpp"
#include "gms/runtime_harness.hpp"
#include "gms/sim_harness.hpp"
#include "net/msg_kind.hpp"
#include "net/sim_transport.hpp"
#include "net/udp_transport.hpp"
#include "util/process_set.hpp"

namespace tw::gms {
namespace {

HarnessConfig small_team(int n, std::uint64_t seed, int max_pending) {
  HarnessConfig cfg;
  cfg.n = n;
  cfg.seed = seed;
  cfg.node.max_pending = max_pending;
  return cfg;
}

// ---------------------------------------------------------------------------
// Admission control (NodeConfig::max_pending)
// ---------------------------------------------------------------------------

TEST(GmsOverload, AdmissionRefusesAtCapWithRetryHint) {
  SimHarness h(small_team(3, 7, /*max_pending=*/8));
  h.start();
  ASSERT_TRUE(h.run_until_group(util::ProcessSet::full(3), sim::sec(20)));
  EXPECT_EQ(h.node(0).overload_state(), OverloadState::normal);
  EXPECT_EQ(h.node(0).occupancy(), 0u);

  // Fill the admission queue without letting the simulator drain it: every
  // accept carries a fresh sequence number; refusal must consume none.
  for (std::uint64_t i = 1; i <= 8; ++i) {
    const ProposeResult r = h.try_propose(0, i);
    EXPECT_TRUE(r.accepted) << "proposal " << i << " refused below the cap";
    EXPECT_EQ(r.retry_after_us, 0u);
  }
  EXPECT_EQ(h.node(0).occupancy(), 8u);
  EXPECT_EQ(h.node(0).overload_state(), OverloadState::shedding);

  const ProposeResult refused = h.try_propose(0, 99);
  EXPECT_FALSE(refused.accepted);
  EXPECT_GT(refused.retry_after_us, 0u);
  EXPECT_LT(refused.retry_after_us, 1'000'000u);  // ~a cycle, not forever
  EXPECT_EQ(h.node(0).stats().proposals_refused, 1u);
  EXPECT_EQ(h.node(0).occupancy(), 8u) << "refusal must not grow the queue";

  // Honor the hint: wait it out, then retry (with a fresh tag) until the
  // pipeline drained. The hint is advisory, so allow a few rounds.
  h.run_for(static_cast<sim::Duration>(refused.retry_after_us));
  ProposeResult retry = h.try_propose(0, 100);
  const sim::SimTime deadline = h.now() + sim::sec(10);
  while (!retry.accepted && h.now() < deadline) {
    h.run_for(sim::msec(50));
    retry = h.try_propose(0, 100);
  }
  ASSERT_TRUE(retry.accepted) << "queue never drained after refusal";

  h.run_for(sim::sec(5));
  EXPECT_EQ(h.node(0).overload_state(), OverloadState::normal);
  EXPECT_EQ(h.node(0).occupancy(), 0u);

  // Everything admitted was delivered everywhere; the refused attempt
  // (tag 99) never existed as far as the protocol is concerned.
  for (ProcessId p = 0; p < 3; ++p) {
    std::vector<std::uint64_t> tags;
    for (const auto& rec : h.delivered(p))
      tags.push_back(SimHarness::payload_tag(rec.payload));
    for (std::uint64_t i = 1; i <= 8; ++i)
      EXPECT_EQ(std::count(tags.begin(), tags.end(), i), 1) << "p" << p;
    EXPECT_EQ(std::count(tags.begin(), tags.end(), 100u), 1) << "p" << p;
    EXPECT_EQ(std::count(tags.begin(), tags.end(), 99u), 0)
        << "p" << p << " delivered a refused proposal";
  }
  EXPECT_TRUE(h.check_all_invariants().empty());

  // Shed again, then crash: the recovered incarnation starts with an empty
  // admission queue, so it reads normal and admits at once.
  for (std::uint64_t tag = 200; tag < 208; ++tag)
    ASSERT_TRUE(h.try_propose(0, tag).accepted);
  ASSERT_EQ(h.node(0).overload_state(), OverloadState::shedding);
  const std::uint64_t incarnation = h.node(0).incarnation();
  h.faults().crash_at(h.now(), 0).recover_at(h.now() + sim::msec(100), 0);
  const sim::SimTime restart_deadline = h.now() + sim::sec(1);
  while (h.node(0).incarnation() == incarnation && h.now() < restart_deadline)
    h.run_for(sim::msec(1));
  ASSERT_NE(h.node(0).incarnation(), incarnation) << "p0 never recovered";
  EXPECT_EQ(h.node(0).overload_state(), OverloadState::normal);
  EXPECT_EQ(h.node(0).occupancy(), 0u);
  EXPECT_TRUE(h.try_propose(0, 300).accepted);

  ASSERT_TRUE(h.run_until_group(util::ProcessSet::full(3),
                                h.now() + sim::sec(20)));
  h.run_for(sim::sec(5));
  for (ProcessId p = 0; p < 3; ++p) {
    std::vector<std::uint64_t> tags;
    for (const auto& rec : h.delivered(p))
      tags.push_back(SimHarness::payload_tag(rec.payload));
    EXPECT_EQ(std::count(tags.begin(), tags.end(), 300u), 1) << "p" << p;
  }
  EXPECT_EQ(h.node(0).overload_state(), OverloadState::normal);
  EXPECT_TRUE(h.check_all_invariants().empty());
}

TEST(GmsOverload, WatermarkLadderHasHysteresisAndTraceEvents) {
  // cap 8, hi mark 6 (75%), lo mark 4 (50%): filling walks
  // normal -> backpressured -> shedding; draining steps back down only at
  // occ < hi and occ <= lo — the hysteresis band.
  SimHarness h(small_team(3, 8, /*max_pending=*/8));
  h.start();
  ASSERT_TRUE(h.run_until_group(util::ProcessSet::full(3), sim::sec(20)));

  for (std::uint64_t i = 1; i <= 5; ++i) (void)h.try_propose(0, i);
  EXPECT_EQ(h.node(0).overload_state(), OverloadState::normal);
  (void)h.try_propose(0, 6);  // occupancy reaches the hi mark
  EXPECT_EQ(h.node(0).overload_state(), OverloadState::backpressured);
  (void)h.try_propose(0, 7);
  EXPECT_EQ(h.node(0).overload_state(), OverloadState::backpressured);
  (void)h.try_propose(0, 8);  // occupancy reaches the cap
  EXPECT_EQ(h.node(0).overload_state(), OverloadState::shedding);
  EXPECT_EQ(h.node(0).stats().overload_enters, 2u);

  h.run_for(sim::sec(5));  // drain
  EXPECT_EQ(h.node(0).overload_state(), OverloadState::normal);
  EXPECT_EQ(h.node(0).stats().overload_enters, 2u);
  EXPECT_EQ(h.node(0).stats().overload_exits, 2u)
      << "drain must step shedding -> backpressured -> normal";

  // The transitions are observable: two enters (marks hi then cap), two
  // exits on the way back (leaving shedding below hi, then normal at lo).
  std::vector<std::uint64_t> enter_marks, exit_marks;
  for (const obs::Event& e : h.merged_trace()) {
    if (e.p != 0) continue;
    if (e.kind == obs::EvKind::overload_enter) enter_marks.push_back(e.b);
    if (e.kind == obs::EvKind::overload_exit) exit_marks.push_back(e.b);
  }
  ASSERT_EQ(enter_marks.size(), 2u);
  EXPECT_EQ(enter_marks[0], 6u);  // hi watermark
  EXPECT_EQ(enter_marks[1], 8u);  // the cap
  ASSERT_EQ(exit_marks.size(), 2u);
  EXPECT_EQ(exit_marks[0], 6u);  // dropped below hi: shedding ends
  EXPECT_EQ(exit_marks[1], 4u);  // reached lo: fully recovered
  EXPECT_EQ(h.node(0).stats().occupancy_peak, 8u);
}

TEST(GmsOverload, UnboundedNodeNeverRefuses) {
  // max_pending == 0 is the legacy contract: try_propose always admits and
  // the overload ladder never leaves normal.
  SimHarness h(small_team(3, 9, /*max_pending=*/0));
  for (std::uint64_t i = 0; i < 100; ++i) {
    const ProposeResult r = h.try_propose(0, i);
    EXPECT_TRUE(r.accepted);
  }
  EXPECT_EQ(h.node(0).overload_state(), OverloadState::normal);
  EXPECT_EQ(h.node(0).occupancy(), 100u);
  EXPECT_EQ(h.node(0).stats().proposals_refused, 0u);
}

// ---------------------------------------------------------------------------
// Per-peer send cap: control beats data
// ---------------------------------------------------------------------------

TEST(GmsOverload, ControlPassesDataShedsAtTheSendCap) {
  struct RxHandler final : net::Handler {
    std::vector<std::vector<std::byte>> rx;
    void on_start() override {}
    void on_datagram(ProcessId, std::span<const std::byte> d) override {
      rx.emplace_back(d.begin(), d.end());
    }
  };
  net::SimClusterConfig cfg;
  cfg.n = 2;
  net::SimCluster cluster(cfg);
  RxHandler h0, h1;
  cluster.bind(0, h0);
  cluster.bind(1, h1);
  cluster.set_send_budget(200, sim::msec(10));
  cluster.start();

  auto frame = [](net::MsgKind kind, std::byte marker) {
    std::vector<std::byte> f(150, marker);
    f[0] = static_cast<std::byte>(net::kind_byte(kind));
    return f;
  };
  // Same budget window for all three: data fits, the second data frame is
  // over the cap and sheds, the decision is over the cap too but control
  // has strict priority (it still charges the window).
  cluster.endpoint(0).send(1, frame(net::MsgKind::proposal, std::byte{1}));
  cluster.endpoint(0).send(1, frame(net::MsgKind::proposal, std::byte{2}));
  cluster.endpoint(0).send(1, frame(net::MsgKind::decision, std::byte{3}));
  cluster.run_until(sim::msec(100));

  // Arrival order of two same-instant datagrams is not deterministic
  // (independent per-datagram delays), so assert on the delivered set.
  ASSERT_EQ(h1.rx.size(), 2u);
  std::vector<std::byte> markers{h1.rx[0][1], h1.rx[1][1]};
  std::sort(markers.begin(), markers.end());
  EXPECT_EQ(markers[0], std::byte{1});
  EXPECT_EQ(markers[1], std::byte{3});

  EXPECT_EQ(cluster.metrics().snapshot().value("net.dropped_backpressure"),
            1u);
  int sheds = 0;
  for (const obs::Event& e : cluster.merged_trace())
    if (e.kind == obs::EvKind::dgram_drop &&
        e.arg == static_cast<std::uint8_t>(obs::DropReason::backpressure))
      ++sheds;
  EXPECT_EQ(sheds, 1);
}

// ---------------------------------------------------------------------------
// The headline property: slow is not dead
// ---------------------------------------------------------------------------

TEST(GmsOverload, SlowReceiverIsNeverSuspected) {
  // p2 drains data at 20% of the normal rate for 1.5s under steady load.
  // Control frames bypass the drain throttle, so its protocol duties stay
  // timely: nobody may suspect it, the group must hold, and every proposal
  // must still reach it once the backlog dissolves.
  HarnessConfig cfg = small_team(5, 33, /*max_pending=*/0);
  SimHarness h(cfg);
  h.start();
  ASSERT_TRUE(h.run_until_group(util::ProcessSet::full(5), sim::sec(20)));

  h.faults().slow_receiver_at(h.now() + sim::msec(100), 2, 20,
                              sim::msec(1500));
  for (std::uint64_t i = 0; i < 30; ++i) {
    h.propose(static_cast<ProcessId>(i % 2), 500 + i, bcast::Order::total);
    h.run_for(sim::msec(60));
  }
  h.run_for(sim::sec(3));

  for (const obs::Event& e : h.merged_trace()) {
    if (e.kind == obs::EvKind::suspect) {
      EXPECT_NE(e.a, 2u) << "p" << int(e.p)
                         << " suspected the merely-slow member";
    }
  }
  for (ProcessId p = 0; p < 5; ++p) {
    EXPECT_TRUE(h.node(p).in_group());
    EXPECT_EQ(h.node(p).group(), util::ProcessSet::full(5));
    EXPECT_EQ(h.delivered(p).size(), 30u) << "p" << int(p);
  }
  EXPECT_TRUE(h.check_all_invariants().empty());
}

// ---------------------------------------------------------------------------
// Bounded re-baseline delivery buffer
// ---------------------------------------------------------------------------

TEST(GmsOverload, RebaselineBufferIsBoundedAndShedsOldestFirst) {
  // A recovered member buffers deliveries while it waits for a state
  // transfer. The crash outlasts the decider role's pass through p3, so
  // the team excludes it and re-integrates it as a joiner; starve it of
  // donors by dropping every state_transfer datagram headed its way: the
  // buffer must stay at its bound with sheds counted — and once donors are
  // reachable again, the baseline supersedes whatever was shed.
  HarnessConfig cfg = small_team(5, 44, /*max_pending=*/0);
  cfg.node.max_buffered_deliveries = 4;
  cfg.node.state_retry_limit = 12;  // keep soliciting through the outage
  SimHarness h(cfg);
  h.start();
  ASSERT_TRUE(h.run_until_group(util::ProcessSet::full(5), sim::sec(20)));
  for (std::uint64_t i = 0; i < 3; ++i) {
    h.propose(0, 100 + i, bcast::Order::total);
    h.run_for(sim::msec(50));
  }
  h.run_for(sim::sec(1));

  const sim::SimTime t = h.now();
  h.faults().crash_at(t + sim::msec(5), 3);
  h.faults().recover_at(t + sim::msec(155), 3);
  const auto st_kind = net::kind_byte(net::MsgKind::state_transfer);
  for (ProcessId donor : {0u, 1u, 2u, 4u})
    h.faults().drop_at(t + sim::msec(6), donor, st_kind,
                       util::ProcessSet{3}, 100000);
  h.run_for(sim::msec(50));

  std::size_t max_buffered = 0;
  bool saw_dirty = false;
  for (std::uint64_t i = 0; i < 20; ++i) {
    h.propose(0, 200 + i, bcast::Order::total);
    h.run_for(sim::msec(30));
    max_buffered = std::max(max_buffered, h.node(3).buffered_delivery_count());
    saw_dirty = saw_dirty || h.node(3).recovered_dirty();
  }
  EXPECT_TRUE(saw_dirty) << "the blink never produced a dirty recovery";
  EXPECT_LE(max_buffered, 4u) << "re-baseline buffer exceeded its bound";
  EXPECT_GE(h.node(3).stats().rebaseline_shed, 1u);
  EXPECT_GE(max_buffered, 1u) << "nothing was ever buffered — dead scenario";

  // Donors reachable again: the solicited transfer re-baselines p3.
  h.faults().clear_rules_at(h.now() + sim::msec(1));
  const sim::SimTime deadline = h.now() + sim::sec(30);
  while ((h.node(3).recovered_dirty() || h.node(3).awaiting_state()) &&
         h.now() < deadline)
    h.run_for(sim::msec(200));
  ASSERT_FALSE(h.node(3).recovered_dirty())
      << "p3 was never rehabilitated: " << h.cluster().trace_log().dump();
  h.run_for(sim::sec(2));
  EXPECT_EQ(h.node(3).buffered_delivery_count(), 0u);
  EXPECT_EQ(h.app_state(3), h.app_state(0));
  EXPECT_TRUE(
      h.check_majority_agreement_invariants(util::ProcessSet::full(5))
          .empty());
}

// ---------------------------------------------------------------------------
// GroupRuntime: a hot group's refusals are isolated
// ---------------------------------------------------------------------------

TEST(GmsOverload, HotGroupRefusalsDoNotTouchSiblings) {
  RuntimeHarnessConfig cfg;
  cfg.n = 3;
  cfg.groups = 2;
  cfg.seed = 5;
  cfg.node.max_pending = 4;
  RuntimeHarness h(cfg);
  h.start();
  ASSERT_TRUE(h.run_until_all_groups(sim::sec(30)));

  // Saturate group 1 at one process without letting the simulator drain.
  for (std::uint64_t i = 0; i < 4; ++i)
    ASSERT_TRUE(h.propose(0, 1, 700 + i)) << "refused below the cap";
  EXPECT_FALSE(h.propose(0, 1, 799)) << "admission cap did not bite";
  EXPECT_EQ(h.runtime(0).group_stats(1).admission_refused, 1u);
  EXPECT_EQ(h.runtime(0).group_stats(1).budget_refused, 0u);
  EXPECT_EQ(h.node(0, 1).overload_state(), OverloadState::shedding);

  // The sibling group on the same endpoint is untouched.
  EXPECT_TRUE(h.propose(0, 0, 900));
  EXPECT_EQ(h.node(0, 0).overload_state(), OverloadState::normal);
  EXPECT_EQ(h.runtime(0).group_stats(0).admission_refused, 0u);

  // Draining the hot group restores admission.
  h.run_for(sim::sec(5));
  EXPECT_TRUE(h.propose(0, 1, 800));
  EXPECT_TRUE(h.check_all_groups().empty());
}

}  // namespace
}  // namespace tw::gms

// ---------------------------------------------------------------------------
// UDP transport: transient vs hard sendto() errors
// ---------------------------------------------------------------------------

namespace tw::net {
namespace {

TEST(GmsOverload, UdpSendSplitsSoftFromHardErrors) {
  // Mock the sendto() seam: ENOBUFS/EAGAIN is a transient kernel-queue
  // refusal — counted as send_eagain and retried once — while a hard errno
  // degrades to an omission immediately, with no retry.
  std::atomic<int> stage{1};
  std::atomic<int> stage_calls{0};
  UdpClusterConfig cfg;
  cfg.n = 2;
  cfg.base_port = 48411;
  cfg.send_fn = [&stage, &stage_calls](ProcessId, const void*,
                                       std::size_t len) -> long {
    const int call = stage_calls.fetch_add(1) + 1;
    switch (stage.load()) {
      case 1:  // transient, clears on retry
        if (call == 1) {
          errno = ENOBUFS;
          return -1;
        }
        return static_cast<long>(len);
      case 2:  // transient that persists: soft error, then omission
        errno = EAGAIN;
        return -1;
      default:  // hard error: no retry
        errno = EPERM;
        return -1;
    }
  };
  UdpCluster cluster(cfg);
  struct NullHandler final : Handler {
    void on_start() override {}
    void on_datagram(ProcessId, std::span<const std::byte>) override {}
  } h0, h1;
  cluster.bind(0, h0);
  cluster.bind(1, h1);
  cluster.start();

  auto send_and_wait = [&](int expected_calls) {
    std::atomic<bool> done{false};
    cluster.post(0, [&] {
      cluster.endpoint(0).send(1, {std::byte{9}, std::byte{1}});
      done = true;
    });
    for (int i = 0; i < 500 && !done.load(); ++i) {
      timespec req{0, 10'000'000};
      nanosleep(&req, nullptr);
    }
    EXPECT_TRUE(done.load());
    EXPECT_EQ(stage_calls.load(), expected_calls);
    stage_calls = 0;
  };

  send_and_wait(2);  // stage 1: fail, retry succeeds
  stage = 2;
  send_and_wait(2);  // stage 2: fail, retry fails -> omission
  stage = 3;
  send_and_wait(1);  // stage 3: hard error, no retry
  cluster.stop();

  const obs::MetricsSnapshot snap = cluster.metrics().snapshot();
  EXPECT_EQ(snap.value("udp.p0.send_eagain"), 2u);   // stages 1 and 2
  EXPECT_EQ(snap.value("udp.p0.send_omitted"), 2u);  // stages 2 and 3
  EXPECT_EQ(snap.value("udp.p0.sent"), 1u);          // only stage 1 made it

  // Both omissions carry their real errno in the trace.
  std::vector<std::uint64_t> errnos;
  for (const obs::Event& e : cluster.merged_trace())
    if (e.kind == obs::EvKind::dgram_drop &&
        e.arg == static_cast<std::uint8_t>(obs::DropReason::send_fail))
      errnos.push_back(e.b);
  ASSERT_EQ(errnos.size(), 2u);
  EXPECT_EQ(errnos[0], static_cast<std::uint64_t>(EAGAIN));
  EXPECT_EQ(errnos[1], static_cast<std::uint64_t>(EPERM));
}

}  // namespace
}  // namespace tw::net
