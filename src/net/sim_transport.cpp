#include "net/sim_transport.hpp"

#include <string>

#include "net/msg_kind.hpp"
#include "obs/timeline.hpp"
#include "util/buffer_pool.hpp"

namespace tw::net {

namespace {

std::uint8_t kind_byte(std::span<const std::byte> data) {
  return data.empty() ? 0xff : static_cast<std::uint8_t>(data[0]);
}

obs::DropReason to_drop_reason(sim::DropCause cause) {
  switch (cause) {
    case sim::DropCause::crashed:
      return obs::DropReason::crashed;
    case sim::DropCause::link:
      return obs::DropReason::link;
    case sim::DropCause::rule:
      return obs::DropReason::rule;
    case sim::DropCause::loss:
      return obs::DropReason::loss;
    case sim::DropCause::corrupt:
      return obs::DropReason::crc;
    case sim::DropCause::backpressure:
      return obs::DropReason::backpressure;
  }
  return obs::DropReason::loss;
}

/// Export one MessageStats counter block under `prefix` (only fields that
/// can be nonzero for it are interesting, but emitting all keeps names
/// stable for dashboards/tests).
void export_counter_block(std::map<std::string, std::uint64_t>& out,
                          const std::string& prefix,
                          const sim::MessageStats::Counter& c) {
  out[prefix + "sent"] = c.sent;
  out[prefix + "delivered"] = c.delivered;
  out[prefix + "dropped_loss"] = c.dropped_loss;
  out[prefix + "dropped_link"] = c.dropped_link;
  out[prefix + "dropped_crashed"] = c.dropped_crashed;
  out[prefix + "dropped_rule"] = c.dropped_rule;
  out[prefix + "dropped_corrupt"] = c.dropped_corrupt;
  out[prefix + "dropped_backpressure"] = c.dropped_backpressure;
  out[prefix + "late"] = c.late;
  out[prefix + "duplicated"] = c.duplicated;
  out[prefix + "reordered"] = c.reordered;
  out[prefix + "corrupted"] = c.corrupted;
  out[prefix + "bytes_sent"] = c.bytes_sent;
}

}  // namespace

int SimEndpoint::team_size() const { return cluster_.size(); }

sim::ClockTime SimEndpoint::hw_now() const {
  return cluster_.procs_.hw_now(id_);
}

void SimEndpoint::broadcast(std::vector<std::byte> data) {
  obs::Recorder& rec = cluster_.recorder(id_);
  const std::uint8_t kind = kind_byte(data);
  for (ProcessId to = 0; to < static_cast<ProcessId>(team_size()); ++to)
    if (to != id_)
      rec.emit(obs::EvKind::dgram_send, kind, to, data.size());
  cluster_.net_.broadcast(id_, std::move(data));
}

void SimEndpoint::send(ProcessId to, std::vector<std::byte> data) {
  cluster_.recorder(id_).emit(obs::EvKind::dgram_send, kind_byte(data), to,
                              data.size());
  cluster_.net_.send(id_, to, std::move(data));
}

TimerId SimEndpoint::set_timer_at_hw(sim::ClockTime target,
                                     std::function<void()> fn) {
  return cluster_.procs_.set_timer_at_hw(id_, target, std::move(fn));
}

TimerId SimEndpoint::set_timer_after(sim::Duration d,
                                     std::function<void()> fn) {
  return cluster_.procs_.set_timer_after(id_, d, std::move(fn));
}

void SimEndpoint::cancel_timer(TimerId id) {
  cluster_.procs_.cancel_timer(id);
}

obs::Recorder* SimEndpoint::obs() { return &cluster_.recorder(id_); }

void SimEndpoint::trace(sim::TraceKind kind, std::uint64_t a, std::uint64_t b,
                        util::ProcessSet set, std::string note) {
  cluster_.trace_.add(sim::TraceRecord{cluster_.sim_.now(), id_, kind, a, b,
                                       set, std::move(note)});
}

SimCluster::SimCluster(const SimClusterConfig& cfg)
    : sim_(cfg.seed),
      procs_(sim_, cfg.n, cfg.sched, cfg.rho, cfg.max_clock_offset),
      net_(sim_, procs_, cfg.delays),
      faults_(sim_, procs_, net_) {
  recorders_.reserve(static_cast<std::size_t>(cfg.n));
  endpoints_.reserve(static_cast<std::size_t>(cfg.n));
  for (ProcessId p = 0; p < static_cast<ProcessId>(cfg.n); ++p) {
    recorders_.push_back(std::make_unique<obs::Recorder>(
        p, [this, p] { return procs_.hw_now(p); }, &registry_));
    endpoints_.push_back(std::make_unique<SimEndpoint>(*this, p));
  }
  // Receive-side control priority: the slow-receiver fault throttles only
  // the data plane — a backlogged member still services (tiny) control
  // frames first, so overload degrades goodput, not membership.
  procs_.set_drain_classifier([](std::span<const std::byte> payload) {
    return is_data_kind(classify_kind(payload));
  });
  net_.set_drop_hook([this](ProcessId from, ProcessId to, std::uint8_t kind,
                            sim::DropCause cause, std::size_t bytes) {
    (void)kind;
    // Attribute the drop to the would-be receiver: that is the process
    // whose omission failure it becomes.
    recorders_[to]->emit(
        obs::EvKind::dgram_drop,
        static_cast<std::uint8_t>(to_drop_reason(cause)), from, bytes);
  });
  net_stats_source_ =
      registry_.register_source([this](std::map<std::string,
                                                std::uint64_t>& out) {
        const sim::MessageStats& s = net_.stats();
        export_counter_block(out, "net.", s.total);
        for (std::size_t k = 0; k < s.by_kind.size(); ++k) {
          const auto& c = s.by_kind[k];
          if (c.sent == 0 && c.delivered == 0) continue;
          std::string kn = msg_kind_name(static_cast<MsgKind>(k));
          if (kn == "?") kn = "k" + std::to_string(k);
          export_counter_block(out, "net.kind." + kn + '.', c);
        }
        for (std::size_t p = 0; p < s.sent_by_process.size(); ++p)
          out["net.p" + std::to_string(p) + ".sent"] = s.sent_by_process[p];
      });
  pool_stats_source_ =
      registry_.register_source(util::BufferPool::export_local_stats);
}

void SimCluster::set_send_budget(std::size_t bytes_per_window,
                                 sim::Duration window) {
  net_.set_send_budget(bytes_per_window, window,
                       [](std::span<const std::byte> payload) {
                         return is_data_kind(classify_kind(payload));
                       });
}

SimCluster::~SimCluster() {
  registry_.unregister_source(net_stats_source_);
  registry_.unregister_source(pool_stats_source_);
}

std::vector<obs::Event> SimCluster::merged_trace() const {
  std::vector<obs::Event> all;
  for (const auto& rec : recorders_) {
    const auto part = rec->ring().snapshot();
    all.insert(all.end(), part.begin(), part.end());
  }
  return obs::merge_timeline(std::move(all));
}

void SimCluster::bind(ProcessId p, Handler& handler) {
  obs::Recorder& rec = *recorders_.at(p);
  procs_.install(
      p, sim::ProcessService::Callbacks{
             [&handler] { handler.on_start(); },
             [&handler, &rec](ProcessId from,
                              std::span<const std::byte> payload) {
               rec.emit(obs::EvKind::dgram_recv, kind_byte(payload), from,
                        payload.size());
               handler.on_datagram(from, payload);
             }});
}

void SimCluster::start() { procs_.start_all(); }

}  // namespace tw::net
