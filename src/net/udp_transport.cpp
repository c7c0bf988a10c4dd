#include "net/udp_transport.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <string>

#include "obs/timeline.hpp"
#include "util/assert.hpp"
#include "util/buffer_pool.hpp"
#include "util/bytes.hpp"
#include "util/crc32.hpp"
#include "util/logging.hpp"

namespace tw::net {

UdpEndpoint::UdpEndpoint(UdpCluster& cluster, ProcessId id)
    : cluster_(cluster),
      id_(id),
      clock_offset_(static_cast<sim::ClockTime>(id) *
                    cluster.cfg_.clock_offset_step),
      recorder_(id, [this] { return hw_now(); }, &cluster.registry_) {
  const std::string prefix = "udp.p" + std::to_string(id) + '.';
  sent_ = &cluster.registry_.counter(prefix + "sent");
  received_ = &cluster.registry_.counter(prefix + "received");
  crc_dropped_ = &cluster.registry_.counter(prefix + "crc_dropped");
  send_omitted_ = &cluster.registry_.counter(prefix + "send_omitted");
  send_soft_err_ = &cluster.registry_.counter(prefix + "send_eagain");
  recv_err_ = &cluster.registry_.counter(prefix + "recv_err");
  loop_.set_recorder(&recorder_);
  open_socket();
}

UdpEndpoint::~UdpEndpoint() {
  if (fd_ >= 0) ::close(fd_);
}

void UdpEndpoint::open_socket() {
  fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
  TW_ASSERT_MSG(fd_ >= 0, "socket() failed");
  const int one = 1;
  ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port =
      htons(static_cast<std::uint16_t>(cluster_.cfg_.base_port + id_));
  const int rc =
      ::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  TW_ASSERT_MSG(rc == 0, "bind() failed for member " << id_);
  const int flags = ::fcntl(fd_, F_GETFL, 0);
  ::fcntl(fd_, F_SETFL, flags | O_NONBLOCK);
  loop_.watch_fd(fd_, [this] { on_readable(); });
}

int UdpEndpoint::team_size() const { return cluster_.size(); }

sim::ClockTime UdpEndpoint::hw_now() const {
  return evl::EventLoop::mono_now_us() + clock_offset_;
}

std::vector<std::byte> UdpEndpoint::frame(
    std::span<const std::byte> payload) const {
  // Single pooled buffer, CRC patched in place: a warmed-up endpoint
  // frames without any heap allocation or intermediate copy.
  util::ByteWriter w(util::BufferPool::local());
  w.reserve(8 + payload.size());
  w.u32(0);  // CRC placeholder
  w.u32(id_);
  w.raw(payload);
  w.patch_u32(0, util::crc32c(w.view().subspan(4)));
  return std::move(w).take();
}

void UdpEndpoint::send_raw(ProcessId to, const std::vector<std::byte>& f) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port =
      htons(static_cast<std::uint16_t>(cluster_.cfg_.base_port + to));
  // Wire kind tag = first payload byte (frame is [crc][sender][payload]).
  const std::uint8_t kind =
      f.size() > 8 ? static_cast<std::uint8_t>(f[8]) : 0;

  const auto do_send = [&]() -> ssize_t {
    if (cluster_.cfg_.send_fn)
      return cluster_.cfg_.send_fn(to, f.data(), f.size());
    return ::sendto(fd_, f.data(), f.size(), 0,
                    reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  };
  ssize_t n = do_send();
  if (n < 0 &&
      (errno == ENOBUFS || errno == EAGAIN || errno == EWOULDBLOCK)) {
    // Transient kernel-queue exhaustion, the send-side mirror of the
    // recv-side EAGAIN split: count it distinctly and retry once — a full
    // queue often drains within the syscall turnaround — before letting
    // it degrade to an omission below.
    send_soft_err_->inc();
    n = do_send();
  }
  if (n < 0 || static_cast<std::size_t>(n) != f.size()) {
    // The datagram model already allows omission failures; a failed or
    // truncated sendto IS one, but it must be counted, not ignored.
    const int err = n < 0 ? errno : EMSGSIZE;
    send_omitted_->inc();
    recorder_.emit(obs::EvKind::dgram_drop,
                   static_cast<std::uint8_t>(obs::DropReason::send_fail), to,
                   static_cast<std::uint64_t>(err));
    TW_WARN("udp member " << id_ << ": sendto to " << to
                          << " failed: " << std::strerror(err));
    return;
  }
  sent_->inc();
  recorder_.emit(obs::EvKind::dgram_send, kind, to, f.size());
}

void UdpEndpoint::broadcast(std::vector<std::byte> data) {
  auto f = frame(data);
  for (ProcessId to = 0; to < static_cast<ProcessId>(team_size()); ++to)
    if (to != id_) send_raw(to, f);
  // Both the frame and the caller's encode buffer go back to this loop
  // thread's pool for the next message.
  util::BufferPool::local().release(std::move(f));
  util::BufferPool::local().release(std::move(data));
}

void UdpEndpoint::send(ProcessId to, std::vector<std::byte> data) {
  auto f = frame(data);
  send_raw(to, f);
  util::BufferPool::local().release(std::move(f));
  util::BufferPool::local().release(std::move(data));
}

TimerId UdpEndpoint::set_timer_at_hw(sim::ClockTime target,
                                     std::function<void()> fn) {
  // hw clock = mono + offset, so the mono deadline is target - offset.
  return loop_.add_timer_at(target - clock_offset_, std::move(fn));
}

TimerId UdpEndpoint::set_timer_after(sim::Duration d,
                                     std::function<void()> fn) {
  return loop_.add_timer_after(d, std::move(fn));
}

void UdpEndpoint::cancel_timer(TimerId id) { loop_.cancel_timer(id); }

void UdpEndpoint::on_readable() {
  std::byte buf[65536];
  for (;;) {
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n < 0) {
      // Only would-block means the socket is drained. Everything else is a
      // real receive failure and must not be silently conflated with it.
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      recv_err_->inc();
      recorder_.emit(obs::EvKind::dgram_drop,
                     static_cast<std::uint8_t>(obs::DropReason::recv_err), 0,
                     static_cast<std::uint64_t>(errno));
      TW_WARN("udp member " << id_
                            << ": recv failed: " << std::strerror(errno));
      return;
    }
    if (cluster_.crashed_[id_].load(std::memory_order_relaxed)) {
      recorder_.emit(obs::EvKind::dgram_drop,
                     static_cast<std::uint8_t>(obs::DropReason::crashed));
      continue;
    }
    if (n <= 8) {  // runt: no payload after the integrity header
      crc_dropped_->inc();
      recorder_.emit(obs::EvKind::dgram_drop,
                     static_cast<std::uint8_t>(obs::DropReason::runt), 0,
                     static_cast<std::uint64_t>(n));
      continue;
    }
    const std::span<const std::byte> frame_bytes(buf, static_cast<size_t>(n));
    util::ByteReader header(frame_bytes.subspan(0, 4));
    const std::uint32_t crc = header.u32();
    if (crc != util::crc32c(frame_bytes.subspan(4))) {
      crc_dropped_->inc();
      recorder_.emit(obs::EvKind::dgram_drop,
                     static_cast<std::uint8_t>(obs::DropReason::crc));
      TW_WARN("udp member " << id_ << ": CRC mismatch, dropping datagram");
      continue;
    }
    util::ByteReader sender_reader(frame_bytes.subspan(4, 4));
    const ProcessId from = sender_reader.u32();
    if (from >= static_cast<ProcessId>(team_size()) || from == id_) continue;
    received_->inc();
    recorder_.emit(obs::EvKind::dgram_recv,
                   static_cast<std::uint8_t>(frame_bytes[8]), from,
                   static_cast<std::uint64_t>(n));
    if (handler_ != nullptr) handler_->on_datagram(from, frame_bytes.subspan(8));
  }
}

UdpCluster::UdpCluster(const UdpClusterConfig& cfg)
    : cfg_(cfg), crashed_(static_cast<std::size_t>(cfg.n)) {
  TW_ASSERT(cfg.n > 0 && cfg.n <= 64);
  TW_ASSERT(cfg.only < cfg.n);
  for (auto& c : crashed_) c.store(false);
  for (ProcessId p = 0; p < static_cast<ProcessId>(cfg.n); ++p) {
    if (cfg.only >= 0 && p != static_cast<ProcessId>(cfg.only)) continue;
    endpoints_.push_back(std::make_unique<UdpEndpoint>(*this, p));
  }
  // Pools are thread-local: a snapshot sees the SNAPSHOTTING thread's
  // pool, so meter a loop thread by posting the snapshot onto it.
  pool_stats_source_ =
      registry_.register_source(util::BufferPool::export_local_stats);
}

UdpCluster::~UdpCluster() {
  stop();
  registry_.unregister_source(pool_stats_source_);
}

std::vector<obs::Event> UdpCluster::merged_trace() const {
  // Rings are written by the loop threads without locks; callers must
  // stop() first so the threads are joined.
  std::vector<obs::Event> all;
  for (const auto& ep : endpoints_) {
    const auto part = ep->recorder_.ring().snapshot();
    all.insert(all.end(), part.begin(), part.end());
  }
  return obs::merge_timeline(std::move(all));
}

UdpEndpoint& UdpCluster::local(ProcessId p) const {
  for (const auto& ep : endpoints_)
    if (ep->id_ == p) return *ep;
  TW_ASSERT_MSG(false, "member " << p << " is not hosted by this process");
  return *endpoints_.front();  // unreachable
}

void UdpCluster::bind(ProcessId p, Handler& handler) {
  local(p).handler_ = &handler;
}

void UdpCluster::start() {
  TW_ASSERT(!running_.load());
  running_.store(true);
  for (const auto& ep_ptr : endpoints_) {
    threads_.emplace_back([this, ep = ep_ptr.get()] {
      if (ep->handler_ != nullptr) ep->handler_->on_start();
      while (running_.load(std::memory_order_relaxed))
        ep->loop_.poll_once(sim::msec(50));
    });
  }
}

void UdpCluster::stop() {
  if (!running_.exchange(false)) return;
  for (auto& t : threads_)
    if (t.joinable()) t.join();
  threads_.clear();
}

void UdpCluster::post(ProcessId p, std::function<void()> fn) {
  local(p).loop_.post(std::move(fn));
}

void UdpCluster::crash(ProcessId p) {
  crashed_.at(p).store(true, std::memory_order_relaxed);
}

void UdpCluster::recover(ProcessId p) {
  crashed_.at(p).store(false, std::memory_order_relaxed);
  auto& ep = local(p);
  if (ep.handler_ != nullptr)
    ep.loop_.post([&ep] { ep.handler_->on_start(); });
}

}  // namespace tw::net
