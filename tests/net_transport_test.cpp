// Transport-layer tests: the simulator-backed endpoint semantics and a
// real-UDP smoke test running the full timewheel stack on sockets.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <memory>

#include "gms/timewheel_node.hpp"
#include "net/sim_transport.hpp"
#include "net/udp_transport.hpp"
#include "util/bytes.hpp"
#include "util/crc32.hpp"

namespace tw::net {
namespace {

// ---------------------------------------------------------------------------
// SimCluster / SimEndpoint
// ---------------------------------------------------------------------------

struct EchoHandler final : Handler {
  Endpoint& ep;
  int started = 0;
  std::vector<std::pair<ProcessId, std::vector<std::byte>>> rx;

  explicit EchoHandler(Endpoint& e) : ep(e) {}
  void on_start() override { ++started; }
  void on_datagram(ProcessId from, std::span<const std::byte> data) override {
    rx.emplace_back(from, std::vector<std::byte>(data.begin(), data.end()));
  }
};

TEST(SimTransport, BroadcastAndUnicast) {
  SimClusterConfig cfg;
  cfg.n = 3;
  SimCluster cluster(cfg);
  std::vector<std::unique_ptr<EchoHandler>> handlers;
  for (ProcessId p = 0; p < 3; ++p) {
    handlers.push_back(std::make_unique<EchoHandler>(cluster.endpoint(p)));
    cluster.bind(p, *handlers.back());
  }
  cluster.start();
  cluster.run_until(sim::msec(10));
  for (auto& h : handlers) EXPECT_EQ(h->started, 1);

  cluster.endpoint(0).broadcast({std::byte{9}, std::byte{1}});
  cluster.endpoint(1).send(2, {std::byte{9}, std::byte{2}});
  cluster.run_until(sim::msec(50));
  EXPECT_EQ(handlers[0]->rx.size(), 0u);  // no self-loopback
  ASSERT_EQ(handlers[1]->rx.size(), 1u);
  EXPECT_EQ(handlers[1]->rx[0].first, 0u);
  ASSERT_EQ(handlers[2]->rx.size(), 2u);
}

TEST(SimTransport, TimersFollowHardwareClock) {
  SimClusterConfig cfg;
  cfg.n = 2;
  cfg.max_clock_offset = sim::sec(2);
  cfg.rho = 1e-4;
  SimCluster cluster(cfg);
  auto& ep = cluster.endpoint(1);
  const sim::ClockTime target = ep.hw_now() + sim::msec(100);
  bool fired = false;
  ep.set_timer_at_hw(target, [&] {
    fired = true;
    EXPECT_GE(ep.hw_now(), target);
  });
  cluster.run_until(sim::msec(300));
  EXPECT_TRUE(fired);
}

TEST(SimTransport, CancelledTimerDoesNotFire) {
  SimClusterConfig cfg;
  cfg.n = 2;
  SimCluster cluster(cfg);
  bool fired = false;
  const TimerId id =
      cluster.endpoint(0).set_timer_after(sim::msec(10), [&] { fired = true; });
  cluster.endpoint(0).cancel_timer(id);
  cluster.run_until(sim::msec(100));
  EXPECT_FALSE(fired);
}

TEST(SimTransport, TraceRoutesToClusterLog) {
  SimClusterConfig cfg;
  cfg.n = 2;
  SimCluster cluster(cfg);
  cluster.endpoint(1).trace(sim::TraceKind::custom, 7, 8, {}, "hello");
  const auto records = cluster.trace_log().of_kind(sim::TraceKind::custom);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].p, 1u);
  EXPECT_EQ(records[0].a, 7u);
  EXPECT_EQ(records[0].note, "hello");
}

// ---------------------------------------------------------------------------
// Real UDP smoke tests (loopback sockets + event-loop threads)
// ---------------------------------------------------------------------------

TEST(UdpTransport, DatagramsFlowBetweenMembers) {
  UdpClusterConfig cfg;
  cfg.n = 2;
  cfg.base_port = 48311;
  UdpCluster cluster(cfg);
  std::atomic<int> received{0};

  struct CountHandler final : Handler {
    std::atomic<int>& counter;
    explicit CountHandler(std::atomic<int>& c) : counter(c) {}
    void on_start() override {}
    void on_datagram(ProcessId, std::span<const std::byte>) override {
      counter.fetch_add(1);
    }
  };
  CountHandler h0(received), h1(received);
  cluster.bind(0, h0);
  cluster.bind(1, h1);
  cluster.start();
  for (int i = 0; i < 5; ++i)
    cluster.post(0, [&cluster] {
      cluster.endpoint(0).send(1, {std::byte{9}, std::byte{42}});
    });
  // Wait up to 2 s of wall time.
  for (int i = 0; i < 200 && received.load() < 5; ++i) {
    timespec req{0, 10'000'000};
    nanosleep(&req, nullptr);
  }
  cluster.stop();
  EXPECT_EQ(received.load(), 5);
}

TEST(UdpTransport, FullStackFormsGroupOverRealSockets) {
  UdpClusterConfig cfg;
  cfg.n = 3;
  cfg.base_port = 48331;
  cfg.clock_offset_step = sim::msec(100);
  UdpCluster cluster(cfg);

  std::vector<std::unique_ptr<gms::TimewheelNode>> nodes;
  std::vector<std::atomic<int>> delivered(3);
  gms::NodeConfig node_cfg;
  node_cfg.delta = sim::msec(8);
  for (ProcessId p = 0; p < 3; ++p) {
    gms::AppCallbacks app;
    app.deliver = [&delivered, p](const bcast::Proposal&, Ordinal) {
      delivered[p].fetch_add(1);
    };
    nodes.push_back(std::make_unique<gms::TimewheelNode>(
        cluster.endpoint(p), node_cfg, app));
    cluster.bind(p, *nodes.back());
  }
  cluster.start();

  auto all_in_group = [&] {
    for (auto& n : nodes)
      if (!n->in_group() || !(n->group() == util::ProcessSet::full(3)))
        return false;
    return true;
  };
  for (int i = 0; i < 800 && !all_in_group(); ++i) {
    timespec req{0, 10'000'000};
    nanosleep(&req, nullptr);
  }
  ASSERT_TRUE(all_in_group()) << "group did not form over UDP";

  cluster.post(0, [&nodes] {
    nodes[0]->try_propose({std::byte{1}, std::byte{2}}, bcast::Order::total);
  });
  for (int i = 0; i < 300; ++i) {
    bool all = true;
    for (auto& d : delivered)
      if (d.load() < 1) all = false;
    if (all) break;
    timespec req{0, 10'000'000};
    nanosleep(&req, nullptr);
  }
  cluster.stop();
  for (auto& d : delivered) EXPECT_GE(d.load(), 1);
}

TEST(UdpTransport, CrcRejectsCorruptDatagrams) {
  // Send garbage straight at a member's socket: the CRC check must drop it
  // without reaching the handler.
  UdpClusterConfig cfg;
  cfg.n = 2;
  cfg.base_port = 48351;
  UdpCluster cluster(cfg);
  std::atomic<int> received{0};
  struct CountHandler final : Handler {
    std::atomic<int>& counter;
    explicit CountHandler(std::atomic<int>& c) : counter(c) {}
    void on_start() override {}
    void on_datagram(ProcessId, std::span<const std::byte>) override {
      counter.fetch_add(1);
    }
  };
  CountHandler h0(received), h1(received);
  cluster.bind(0, h0);
  cluster.bind(1, h1);
  cluster.start();

  // Raw garbage from an out-of-band socket.
  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(cfg.base_port + 1));
  const char junk[] = "definitely not a valid frame";
  ::sendto(fd, junk, sizeof(junk), 0,
           reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  ::close(fd);
  timespec req{0, 300'000'000};
  nanosleep(&req, nullptr);
  cluster.stop();
  EXPECT_EQ(received.load(), 0);
  // The rejection is accounted: exactly one datagram failed its CRC.
  EXPECT_EQ(cluster.crc_dropped(1), 1u);
  EXPECT_EQ(cluster.crc_dropped(0), 0u);
}

TEST(UdpTransport, FrameWithoutPayloadIsARunt) {
  // An 8-byte frame has a valid CRC and a valid sender id but no payload,
  // not even the kind byte. It must be dropped and counted as a runt; the
  // handler never sees an empty datagram.
  UdpClusterConfig cfg;
  cfg.n = 2;
  cfg.base_port = 48431;
  UdpCluster cluster(cfg);
  std::atomic<int> received{0};
  struct CountHandler final : Handler {
    std::atomic<int>& counter;
    explicit CountHandler(std::atomic<int>& c) : counter(c) {}
    void on_start() override {}
    void on_datagram(ProcessId, std::span<const std::byte>) override {
      counter.fetch_add(1);
    }
  };
  CountHandler h0(received), h1(received);
  cluster.bind(0, h0);
  cluster.bind(1, h1);
  cluster.start();

  util::ByteWriter w;
  w.u32(0);  // CRC placeholder
  w.u32(0);  // sender: member 0
  w.patch_u32(0, util::crc32c(w.view().subspan(4)));
  const std::vector<std::byte> frame = std::move(w).take();
  ASSERT_EQ(frame.size(), 8u);
  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(cfg.base_port + 1));
  ::sendto(fd, frame.data(), frame.size(), 0,
           reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  ::close(fd);
  for (int i = 0; i < 200 && cluster.crc_dropped(1) == 0 &&
                  received.load() == 0;
       ++i) {
    timespec req{0, 10'000'000};
    nanosleep(&req, nullptr);
  }
  cluster.stop();
  EXPECT_EQ(received.load(), 0);
  EXPECT_EQ(cluster.metrics().snapshot().value("udp.p1.received"), 0u);
  EXPECT_EQ(cluster.crc_dropped(1), 1u);
}

TEST(UdpTransport, FailedSendCountsAsOmissionNotSuccess) {
  // Regression: send_raw() ignored the sendto() return value, silently
  // losing local send failures. An oversized datagram (> the 64KiB UDP
  // limit) fails deterministically with EMSGSIZE and must be accounted as
  // an omission in the metrics registry and the trace ring — and must not
  // be reported as sent.
  UdpClusterConfig cfg;
  cfg.n = 2;
  cfg.base_port = 48371;
  UdpCluster cluster(cfg);
  std::atomic<int> received{0};
  struct CountHandler final : Handler {
    std::atomic<int>& counter;
    explicit CountHandler(std::atomic<int>& c) : counter(c) {}
    void on_start() override {}
    void on_datagram(ProcessId, std::span<const std::byte>) override {
      counter.fetch_add(1);
    }
  };
  CountHandler h0(received), h1(received);
  cluster.bind(0, h0);
  cluster.bind(1, h1);
  cluster.start();

  std::atomic<bool> sent{false};
  cluster.post(0, [&] {
    std::vector<std::byte> huge(70'000, std::byte{9});
    cluster.endpoint(0).send(1, std::move(huge));
    // A normal-sized datagram afterwards still goes through.
    cluster.endpoint(0).send(1, {std::byte{9}, std::byte{1}});
    sent = true;
  });
  for (int i = 0; i < 200 && (!sent.load() || received.load() < 1); ++i) {
    timespec req{0, 10'000'000};
    nanosleep(&req, nullptr);
  }
  cluster.stop();

  EXPECT_EQ(received.load(), 1);
  const obs::MetricsSnapshot snap = cluster.metrics().snapshot();
  EXPECT_EQ(snap.value("udp.p0.send_omitted"), 1u);
  EXPECT_EQ(snap.value("udp.p0.sent"), 1u);  // only the small one counts
  EXPECT_EQ(snap.value("udp.p1.received"), 1u);

  // The omission is visible in the merged trace with its errno recorded.
  int omissions = 0;
  for (const obs::Event& e : cluster.merged_trace())
    if (e.kind == obs::EvKind::dgram_drop &&
        e.arg == static_cast<std::uint8_t>(obs::DropReason::send_fail)) {
      ++omissions;
      EXPECT_EQ(e.p, 0u);
      EXPECT_EQ(e.a, 1u);          // intended destination
      // The real errno, not a would-block.
      EXPECT_EQ(e.b, static_cast<std::uint64_t>(EMSGSIZE));
    }
  EXPECT_EQ(omissions, 1);
}

TEST(UdpTransport, MergedTraceOrdersSendBeforeReceive) {
  // End-to-end observability over real sockets: the per-member trace rings
  // merge into one timeline where (after clock-offset correction) each
  // datagram's send precedes its receive.
  UdpClusterConfig cfg;
  cfg.n = 2;
  cfg.base_port = 48391;
  // No synthetic skew: no clock-sync service runs in this test, so recorder
  // corrections stay 0 and timestamps are only comparable on one clock.
  cfg.clock_offset_step = 0;
  UdpCluster cluster(cfg);
  std::atomic<int> received{0};
  struct CountHandler final : Handler {
    std::atomic<int>& counter;
    explicit CountHandler(std::atomic<int>& c) : counter(c) {}
    void on_start() override {}
    void on_datagram(ProcessId, std::span<const std::byte>) override {
      counter.fetch_add(1);
    }
  };
  CountHandler h0(received), h1(received);
  cluster.bind(0, h0);
  cluster.bind(1, h1);
  cluster.start();
  cluster.post(1, [&cluster] {
    cluster.endpoint(1).send(0, {std::byte{9}, std::byte{5}});
  });
  for (int i = 0; i < 200 && received.load() < 1; ++i) {
    timespec req{0, 10'000'000};
    nanosleep(&req, nullptr);
  }
  cluster.stop();
  ASSERT_EQ(received.load(), 1);

  const auto trace = cluster.merged_trace();
  std::int64_t send_at = -1, recv_at = -1;
  for (const obs::Event& e : trace) {
    if (e.kind == obs::EvKind::dgram_send && e.p == 1) send_at = e.t_sync();
    if (e.kind == obs::EvKind::dgram_recv && e.p == 0) recv_at = e.t_sync();
  }
  ASSERT_GE(send_at, 0);
  ASSERT_GE(recv_at, 0);
  // Both members read the same monotonic clock, so the merged timeline puts
  // send and receive within a whisker of each other. Exact ordering is not
  // guaranteed: the send event is stamped after sendto() returns, and over
  // loopback the receiver thread can stamp its receive a few µs earlier.
  EXPECT_LE(send_at, recv_at + 50'000);
  EXPECT_LE(recv_at, send_at + 2'000'000);
}

}  // namespace
}  // namespace tw::net
