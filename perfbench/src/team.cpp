#include "team.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <chrono>
#include <future>
#include <stdexcept>
#include <thread>

#include "net/sim_transport.hpp"
#include "net/udp_transport.hpp"

namespace pb {

using tw::ProcessId;

tw::gms::NodeConfig workload_node_config() {
  tw::gms::NodeConfig cfg;
  cfg.max_batch = 8;
  cfg.max_pending = 256;
  return cfg;
}

Team::Team(int n, std::uint64_t seed, bool wrapped)
    : n_(n),
      seed_(seed),
      wrapped_(wrapped),
      delivered_(static_cast<std::size_t>(n)),
      view_bits_(static_cast<std::size_t>(n)),
      view_gid_(static_cast<std::size_t>(n)) {}

void Team::build(
    const tw::gms::NodeConfig& cfg,
    const std::function<tw::net::Endpoint&(ProcessId)>& raw,
    const std::function<void(ProcessId, tw::net::Handler&)>& bind,
    const std::function<Micros()>& stamp) {
  for (ProcessId p = 0; p < static_cast<ProcessId>(n_); ++p) {
    meters_.push_back(std::make_unique<Meter>(p, n_, stamp, tracing_));
    Meter& m = *meters_.back();
    tw::gms::AppCallbacks app;
    app.deliver = [this, p, &m](const tw::bcast::Proposal& prop,
                                tw::Ordinal o) {
      ScopedSpan span(m, SpanName::deliver, pid_key(prop.id));
      Delivery d;
      d.g = payload_index(prop.payload);
      d.ordinal = o;
      d.pid = prop.id;
      d.at = m.stamp();
      d.intact = payload_intact(seed_, prop.payload);
      m.data.deliveries.push_back(d);
      delivered_[p].fetch_add(1, std::memory_order_relaxed);
    };
    app.view_change = [this, p, &m](tw::GroupId gid,
                                    tw::util::ProcessSet members) {
      ScopedSpan span(m, SpanName::view);
      view_gid_[p].store(gid);
      view_changes_.fetch_add(1);
      view_bits_[p].store(members.bits());
    };
    tw::net::Endpoint* ep = &raw(p);
    if (wrapped_) {
      endpoints_.push_back(std::make_unique<MeteredEndpoint>(*ep, m));
      ep = endpoints_.back().get();
    }
    nodes_.push_back(
        std::make_unique<tw::gms::TimewheelNode>(*ep, cfg, app, nullptr));
    tw::net::Handler* h = nodes_.back().get();
    if (wrapped_) {
      handlers_.push_back(std::make_unique<MeteredHandler>(*h, m));
      h = handlers_.back().get();
    }
    bind(p, *h);
  }
}

void Team::destroy_nodes() {
  handlers_.clear();
  nodes_.clear();
  endpoints_.clear();
}

bool Team::formed() const {
  const std::uint64_t full =
      tw::util::ProcessSet::full(static_cast<ProcessId>(n_)).bits();
  const std::uint64_t gid = view_gid_[0].load();
  for (int p = 0; p < n_; ++p) {
    const auto i = static_cast<std::size_t>(p);
    if (view_bits_[i].load() != full || view_gid_[i].load() != gid)
      return false;
  }
  return gid != 0;
}

std::uint64_t Team::min_delivered() const {
  std::uint64_t lo = UINT64_MAX;
  for (const auto& d : delivered_) lo = std::min(lo, d.load());
  return lo;
}

void Team::set_load(Micros start, double rate, std::uint64_t count,
                    std::uint64_t g0) {
  load_start_ = start;
  load_rate_ = rate;
  load_count_ = count;
  load_g0_ = g0;
  load_next_ = 0;
}

Micros Team::due(std::uint64_t i) const {
  return load_start_ +
         static_cast<Micros>(std::llround(static_cast<double>(i) * 1e6 /
                                          load_rate_));
}

void Team::offer(ProcessId m, std::uint64_t g, Micros due_at, Micros posted) {
  Meter& meter = *meters_[m];
  Offer o;
  o.g = g;
  o.member = m;
  o.due = due_at;
  o.posted = posted;
  auto payload = make_payload(seed_, g);
  o.at = meter.stamp();
  const Micros w0 = wall_us();
  tw::gms::ProposeResult r;
  {
    ScopedSpan span(meter, SpanName::propose);
    r = nodes_[m]->try_propose(std::move(payload), tw::bcast::Order::total,
                               tw::bcast::Atomicity::weak);
    if (r.accepted) meter.tag(pid_key(tw::bcast::ProposalId{m, r.seq}));
  }
  o.propose_us = static_cast<double>(wall_us() - w0);
  o.accepted = r.accepted;
  if (r.accepted) {
    o.pid = tw::bcast::ProposalId{m, r.seq};
    accepted_.fetch_add(1);
  }
  meter.data.offers.push_back(o);
  proposed_.fetch_add(1);
}

namespace {

// --- UDP -----------------------------------------------------------------

Micros thread_cpu_us() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<Micros>(ts.tv_sec) * kSec + ts.tv_nsec / 1000;
}

std::int64_t thread_voluntary_switches() {
  rusage ru{};
  getrusage(RUSAGE_THREAD, &ru);
  return ru.ru_nvcsw;
}

/// Binds n consecutive loopback UDP ports without SO_REUSEADDR, so a port
/// another process holds (with or without the flag) is seen as taken.
/// Returns the sockets, or an empty vector when the block is not free.
std::vector<int> hold_ports(std::uint16_t base, int n) {
  std::vector<int> fds;
  for (int i = 0; i < n; ++i) {
    const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(base + i));
    if (fd < 0 || ::bind(fd, reinterpret_cast<const sockaddr*>(&addr),
                         sizeof addr) != 0) {
      if (fd >= 0) ::close(fd);
      for (int f : fds) ::close(f);
      return {};
    }
    fds.push_back(fd);
  }
  return fds;
}

class UdpTeam final : public Team {
 public:
  static constexpr int kMembers = 3;

  UdpTeam(std::uint64_t seed, bool wrapped, std::uint16_t base_port)
      : Team(kMembers, seed, wrapped), cluster_(cluster_config(base_port)) {
    auto cfg = workload_node_config();
    cfg.delta = tw::sim::msec(8);  // loopback, as in examples/udp_cluster
    build(
        cfg, [this](ProcessId p) -> tw::net::Endpoint& {
          return cluster_.endpoint(p);
        },
        [this](ProcessId p, tw::net::Handler& h) { cluster_.bind(p, h); },
        [] { return wall_us(); });
    cluster_.start();
  }

  ~UdpTeam() override {
    halt();
    destroy_nodes();
  }

  Micros now() override { return wall_us(); }

  bool advance(Micros until, Micros wall_deadline,
               const std::function<bool()>& stop) override {
    std::vector<std::vector<std::pair<std::uint64_t, Micros>>> batch(
        static_cast<std::size_t>(n_));
    for (;;) {
      // Hand over what fell due before looking at the exit conditions, so
      // an oversleep past `until` cannot strand the last update.
      const Micros t = wall_us();
      while (load_next_ < load_count_ && due(load_next_) <= t) {
        const std::uint64_t g = load_g0_ + load_next_;
        batch[g % static_cast<std::uint64_t>(n_)].emplace_back(
            g, due(load_next_));
        ++load_next_;
        ++issued_;
      }
      for (int p = 0; p < n_; ++p) {
        auto& b = batch[static_cast<std::size_t>(p)];
        if (b.empty()) continue;
        const auto m = static_cast<ProcessId>(p);
        cluster_.post(m, [this, m, items = std::move(b), t] {
          Meter& meter = *meters_[m];
          if (meter.on())
            meter.data.post_delay_us.push_back(
                static_cast<double>(wall_us() - t));
          ScopedSpan span(meter, SpanName::post);
          for (const auto& [g, d] : items) offer(m, g, d, t);
        });
        b.clear();
      }
      if (t >= until) return true;
      if (t > wall_deadline) return false;
      if (stop && stop()) return true;
      Micros wake = std::min(until, t + 2 * kMs);
      if (load_next_ < load_count_) wake = std::min(wake, due(load_next_));
      sleep_until(wake);
    }
  }

  std::vector<MeterData> collect() override {
    std::vector<MeterData> out;
    for (int p = 0; p < n_; ++p) {
      const auto m = static_cast<ProcessId>(p);
      auto promise = std::make_shared<std::promise<MeterData>>();
      auto future = promise->get_future();
      cluster_.post(m, [this, m, promise] {
        MeterData d = meters_[m]->take();
        d.thread_cpu_us = thread_cpu_us();
        d.voluntary_switches = thread_voluntary_switches();
        promise->set_value(std::move(d));
      });
      if (future.wait_for(std::chrono::seconds(10)) !=
          std::future_status::ready)
        throw std::runtime_error("member loop did not answer a collection");
      out.push_back(future.get());
    }
    return out;
  }

  std::array<std::uint64_t, 3> net_errors() override {
    std::array<std::uint64_t, 3> e{0, 0, 0};
    for (int p = 0; p < n_; ++p) {
      auto& ep = dynamic_cast<tw::net::UdpEndpoint&>(
          cluster_.endpoint(static_cast<ProcessId>(p)));
      e[0] += ep.send_omitted();
      e[1] += ep.send_soft_errors();
      e[2] += ep.crc_dropped();
    }
    return e;
  }

 protected:
  void halt() override { cluster_.stop(); }

 private:
  static tw::net::UdpClusterConfig cluster_config(std::uint16_t base) {
    tw::net::UdpClusterConfig c;
    c.n = kMembers;
    c.base_port = base;
    return c;
  }

  static void sleep_until(Micros wall) {
    const Micros d = wall - wall_us();
    if (d > 0) std::this_thread::sleep_for(std::chrono::microseconds(d));
  }

  tw::net::UdpCluster cluster_;
};

// --- simulator -----------------------------------------------------------

class SimTeam final : public Team {
 public:
  static constexpr int kMembers = 5;

  SimTeam(std::uint64_t seed, bool wrapped)
      : Team(kMembers, seed, wrapped), cluster_(cluster_config(seed)) {
    // Mirror gms::SimHarness: the node's timing model follows the
    // simulated network and process service.
    auto cfg = workload_node_config();
    const tw::net::SimClusterConfig cc = cluster_config(seed);
    cfg.delta = cc.delays.delta;
    cfg.sigma = cc.sched.sigma;
    cfg.clock.rho = cc.rho;
    cfg.clock.min_delay = cc.delays.min_delay;
    build(
        cfg, [this](ProcessId p) -> tw::net::Endpoint& {
          return cluster_.endpoint(p);
        },
        [this](ProcessId p, tw::net::Handler& h) { cluster_.bind(p, h); },
        [this] { return cluster_.now(); });
    cluster_.start();
  }

  ~SimTeam() override { destroy_nodes(); }

  Micros now() override { return cluster_.now(); }

  bool advance(Micros until, Micros wall_deadline,
               const std::function<bool()>& stop) override {
    if (load_next_ < load_count_ && !scheduled_) schedule_next();
    while (cluster_.now() < until) {
      if (wall_us() > wall_deadline) return false;
      if (stop && stop()) return true;
      cluster_.run_until(std::min(until, cluster_.now() + kSlice));
      // The steady workloads read nothing from the simulator's trace log,
      // which would otherwise grow by several records per update.
      cluster_.trace_log().clear();
    }
    return true;
  }

  std::vector<MeterData> collect() override {
    std::vector<MeterData> out;
    for (auto& m : meters_) out.push_back(m->take());
    return out;
  }

 private:
  static constexpr Micros kSlice = 5 * kMs;

  static tw::net::SimClusterConfig cluster_config(std::uint64_t seed) {
    tw::net::SimClusterConfig c;
    c.n = kMembers;
    c.seed = seed;
    c.max_clock_offset = tw::sim::msec(500);
    return c;
  }

  /// The open loop as a chain of simulator events, one per update.
  void schedule_next() {
    scheduled_ = load_next_ < load_count_;
    if (!scheduled_) return;
    const Micros at = std::max(due(load_next_), cluster_.now());
    cluster_.simulator().at(at, [this, at] {
      const std::uint64_t g = load_g0_ + load_next_;
      ++load_next_;
      ++issued_;
      offer(static_cast<ProcessId>(g % static_cast<std::uint64_t>(n_)), g,
            at, at);
      schedule_next();
    });
  }

  tw::net::SimCluster cluster_;
  bool scheduled_ = false;
};

}  // namespace

std::unique_ptr<Team> make_udp_team(std::uint64_t seed, bool wrapped,
                                    std::string& error) {
  // Pick the block from the process id and the clock, so concurrent runs
  // start their search in different places, then probe it.
  std::uint64_t state = static_cast<std::uint64_t>(::getpid()) ^
                        static_cast<std::uint64_t>(wall_us());
  for (int attempt = 0; attempt < 64; ++attempt) {
    const auto base = static_cast<std::uint16_t>(
        20000 + splitmix64(state) % 40000);
    std::vector<int> held = hold_ports(base, UdpTeam::kMembers);
    if (held.empty()) continue;
    for (int fd : held) ::close(fd);
    try {
      return std::make_unique<UdpTeam>(seed, wrapped, base);
    } catch (const std::exception& e) {
      // Another process took the block between the probe and the bind.
      error = e.what();
    }
  }
  error = "no free block of " + std::to_string(UdpTeam::kMembers) +
          " loopback UDP ports found (last error: " + error + ")";
  return nullptr;
}

std::unique_ptr<Team> make_sim_team(std::uint64_t seed, bool wrapped) {
  return std::make_unique<SimTeam>(seed, wrapped);
}

}  // namespace pb
