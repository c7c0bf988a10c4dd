// A team of TimewheelNodes driven by the open-loop generator, on either
// transport. The benchmark only uses the stack's public API: nodes are
// built over (optionally wrapped) endpoints, updates go in through
// try_propose on the member's own thread, and deliveries come back
// through gms::AppCallbacks.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <vector>

#include "gms/timewheel_node.hpp"
#include "meter.hpp"

namespace pb {

/// Node settings shared by every workload.
tw::gms::NodeConfig workload_node_config();

class Team {
 public:
  Team(int n, std::uint64_t seed, bool wrapped);
  virtual ~Team() = default;
  Team(const Team&) = delete;
  Team& operator=(const Team&) = delete;

  [[nodiscard]] int n() const { return n_; }

  /// The team's time base in µs: wall time on UDP, simulated time in the
  /// simulator. Every latency is a difference of two such stamps.
  virtual Micros now() = 0;
  /// Advance to `until` (generating the load that falls due), stopping
  /// early once `stop` holds. Returns false when the wall deadline passed
  /// first.
  virtual bool advance(Micros until, Micros wall_deadline,
                       const std::function<bool()>& stop) = 0;
  /// Move every member's measurements out (on the member's own thread).
  virtual std::vector<MeterData> collect() = 0;
  /// Transport-level error counters summed over members:
  /// {send omissions, transient send refusals, CRC drops}.
  virtual std::array<std::uint64_t, 3> net_errors() { return {0, 0, 0}; }

  /// Every member has installed the same full-team view.
  [[nodiscard]] bool formed() const;

  /// Offer `count` updates at `rate` per second from `start`, round-robin
  /// over the members, with update indices from `g0`.
  void set_load(Micros start, double rate, std::uint64_t count,
                std::uint64_t g0);
  [[nodiscard]] Micros due(std::uint64_t i) const;

  void set_tracing(bool on) { tracing_.store(on); }
  [[nodiscard]] std::uint64_t accepted() const { return accepted_.load(); }
  /// Views installed so far, summed over members.
  [[nodiscard]] std::uint64_t view_changes() const {
    return view_changes_.load();
  }
  [[nodiscard]] std::uint64_t min_delivered() const;
  /// The generator has handed over every update of the current load, each
  /// has been through try_propose, and every accepted one is delivered
  /// everywhere.
  [[nodiscard]] bool drained() const {
    return load_next_ >= load_count_ && proposed_.load() == issued_ &&
           min_delivered() >= accepted();
  }

 protected:
  /// Build the nodes over `raw(p)`, wrapped when the team is traced, and
  /// hand each handler to `bind`.
  void build(const tw::gms::NodeConfig& cfg,
             const std::function<tw::net::Endpoint&(tw::ProcessId)>& raw,
             const std::function<void(tw::ProcessId, tw::net::Handler&)>&
                 bind,
             const std::function<Micros()>& stamp);
  /// Propose update g at member m; runs on m's thread.
  void offer(tw::ProcessId m, std::uint64_t g, Micros due, Micros posted);
  /// Stop the members before the nodes go away (UDP loop threads).
  virtual void halt() {}
  void destroy_nodes();

  int n_;
  std::uint64_t seed_;
  bool wrapped_;
  std::atomic<bool> tracing_{false};
  std::vector<std::unique_ptr<Meter>> meters_;
  std::vector<std::unique_ptr<MeteredEndpoint>> endpoints_;
  std::vector<std::unique_ptr<tw::gms::TimewheelNode>> nodes_;
  std::vector<std::unique_ptr<MeteredHandler>> handlers_;
  std::vector<std::atomic<std::uint64_t>> delivered_;
  std::vector<std::atomic<std::uint64_t>> view_bits_;
  std::vector<std::atomic<std::uint64_t>> view_gid_;
  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> view_changes_{0};
  std::atomic<std::uint64_t> proposed_{0};  ///< try_propose calls made
  std::uint64_t issued_ = 0;  ///< updates the generator handed over

  // Open-loop schedule.
  Micros load_start_ = 0;
  double load_rate_ = 0;
  std::uint64_t load_count_ = 0;
  std::uint64_t load_g0_ = 0;
  std::uint64_t load_next_ = 0;
};

std::unique_ptr<Team> make_udp_team(std::uint64_t seed, bool wrapped,
                                    std::string& error);
std::unique_ptr<Team> make_sim_team(std::uint64_t seed, bool wrapped);

}  // namespace pb
