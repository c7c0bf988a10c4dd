// Real-network transport: every team member owns a UDP socket bound to
// 127.0.0.1:<base_port + id> and an event-based demultiplexer (paper §5)
// running on its own OS thread. Protocol stacks run unmodified on top.
//
// Wire format per datagram: [u32 crc32c of rest][u32 sender id][payload],
// payload being exactly what the stack handed to broadcast()/send() (first
// payload byte = MsgKind). Datagrams failing the CRC are dropped, preserving
// the datagram service's omission-failure semantics.
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "evl/event_loop.hpp"
#include "net/transport.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"

namespace tw::net {

struct UdpClusterConfig {
  int n = 3;
  std::uint16_t base_port = 47000;
  /// Synthetic per-member hardware-clock offset spread (µs); members get
  /// offset i * clock_offset_step so the clock-sync service has real skew
  /// to correct even on one host.
  sim::ClockTime clock_offset_step = sim::msec(200);
  /// When >= 0, this OS process hosts ONLY that member: one socket, one
  /// loop thread. The other n-1 members are expected to be other OS
  /// processes on the same port plan — which is what makes a REAL kill -9
  /// / restart of a single member possible (see examples/udp_cluster).
  int only = -1;
  /// Test seam: replaces ::sendto for every endpoint of this cluster
  /// (unit tests mock kernel send errors with it). Receives (destination
  /// member, frame bytes, frame size); returns the sendto()-style byte
  /// count, or -1 with errno set. Null = the real ::sendto.
  std::function<long(ProcessId, const void*, std::size_t)> send_fn;
};

class UdpCluster;

class UdpEndpoint final : public Endpoint {
 public:
  UdpEndpoint(UdpCluster& cluster, ProcessId id);
  ~UdpEndpoint() override;
  UdpEndpoint(const UdpEndpoint&) = delete;
  UdpEndpoint& operator=(const UdpEndpoint&) = delete;

  [[nodiscard]] ProcessId self() const override { return id_; }
  [[nodiscard]] int team_size() const override;
  [[nodiscard]] sim::ClockTime hw_now() const override;
  void broadcast(std::vector<std::byte> data) override;
  void send(ProcessId to, std::vector<std::byte> data) override;
  TimerId set_timer_at_hw(sim::ClockTime target,
                          std::function<void()> fn) override;
  TimerId set_timer_after(sim::Duration d, std::function<void()> fn) override;
  void cancel_timer(TimerId id) override;
  [[nodiscard]] obs::Recorder* obs() override { return &recorder_; }

  /// Datagrams rejected by the CRC-32C integrity check (or too short to
  /// carry it) since start. Backed by the cluster metrics registry.
  [[nodiscard]] std::uint64_t crc_dropped() const {
    return crc_dropped_->get();
  }
  /// sendto() failures surfaced as omission failures since start.
  [[nodiscard]] std::uint64_t send_omitted() const {
    return send_omitted_->get();
  }
  /// Transient sendto() refusals (ENOBUFS/EAGAIN/EWOULDBLOCK): the kernel
  /// send queue was momentarily full. Counted separately from hard errors
  /// and retried once before degrading to an omission.
  [[nodiscard]] std::uint64_t send_soft_errors() const {
    return send_soft_err_->get();
  }

  evl::EventLoop& loop() { return loop_; }

 private:
  friend class UdpCluster;

  void open_socket();
  void on_readable();
  void send_raw(ProcessId to, const std::vector<std::byte>& frame);
  [[nodiscard]] std::vector<std::byte> frame(
      std::span<const std::byte> payload) const;

  UdpCluster& cluster_;
  ProcessId id_;
  int fd_ = -1;
  evl::EventLoop loop_;
  sim::ClockTime clock_offset_ = 0;
  Handler* handler_ = nullptr;
  obs::Recorder recorder_;
  // Registry-backed counters (stable references into cluster metrics).
  obs::Counter* sent_;
  obs::Counter* received_;
  obs::Counter* crc_dropped_;
  obs::Counter* send_omitted_;
  obs::Counter* send_soft_err_;
  obs::Counter* recv_err_;
};

class UdpCluster {
 public:
  explicit UdpCluster(const UdpClusterConfig& cfg);
  ~UdpCluster();
  UdpCluster(const UdpCluster&) = delete;
  UdpCluster& operator=(const UdpCluster&) = delete;

  [[nodiscard]] int size() const { return cfg_.n; }
  [[nodiscard]] const UdpClusterConfig& config() const { return cfg_; }

  /// Cluster-wide metrics registry (per-endpoint counters live here).
  [[nodiscard]] obs::Registry& metrics() { return registry_; }
  /// Merge every member's trace ring into one synchronized-time timeline.
  [[nodiscard]] std::vector<obs::Event> merged_trace() const;

  Endpoint& endpoint(ProcessId p) { return local(p); }
  /// Per-member CRC rejection count (see UdpEndpoint::crc_dropped).
  [[nodiscard]] std::uint64_t crc_dropped(ProcessId p) const {
    return local(p).crc_dropped();
  }
  void bind(ProcessId p, Handler& handler);

  /// Spawn one event-loop thread per member and call on_start on-loop.
  void start();
  /// Stop all loops and join the threads.
  void stop();

  /// Run `fn` on member p's loop thread (as a timer at "now"). The cluster
  /// must be running.
  void post(ProcessId p, std::function<void()> fn);

  /// Simulated crash: the member stops reacting (loop keeps running but
  /// drops everything) until recover() re-calls on_start().
  void crash(ProcessId p);
  void recover(ProcessId p);

 private:
  friend class UdpEndpoint;

  /// Locally hosted endpoint for member p — with `only` set, endpoints_
  /// holds a single entry whose id need not equal its index.
  [[nodiscard]] UdpEndpoint& local(ProcessId p) const;

  UdpClusterConfig cfg_;
  obs::Registry registry_;  // must outlive endpoints_
  obs::Registry::SourceId pool_stats_source_ = 0;
  std::vector<std::unique_ptr<UdpEndpoint>> endpoints_;
  std::vector<std::thread> threads_;
  std::vector<std::atomic<bool>> crashed_;
  std::atomic<bool> running_{false};
};

}  // namespace tw::net
