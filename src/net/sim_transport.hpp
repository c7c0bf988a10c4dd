// Simulator-backed transport: one SimCluster hosts a whole team inside a
// deterministic discrete-event simulation.
#pragma once

#include <memory>
#include <vector>

#include "net/transport.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "sim/fault.hpp"
#include "sim/network.hpp"
#include "sim/process_service.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"

namespace tw::net {

struct SimClusterConfig {
  int n = 3;                       ///< team size N
  std::uint64_t seed = 1;
  sim::DelayModel delays;          ///< datagram service (δ etc.)
  sim::SchedModel sched;           ///< process service (σ etc.)
  double rho = 1e-5;               ///< max hardware clock drift rate
  sim::ClockTime max_clock_offset = sim::sec(1);  ///< initial clock skew
};

class SimCluster;

/// One team member's view of the SimCluster.
class SimEndpoint final : public Endpoint {
 public:
  SimEndpoint(SimCluster& cluster, ProcessId id)
      : cluster_(cluster), id_(id) {}

  [[nodiscard]] ProcessId self() const override { return id_; }
  [[nodiscard]] int team_size() const override;
  [[nodiscard]] sim::ClockTime hw_now() const override;
  void broadcast(std::vector<std::byte> data) override;
  void send(ProcessId to, std::vector<std::byte> data) override;
  TimerId set_timer_at_hw(sim::ClockTime target,
                          std::function<void()> fn) override;
  TimerId set_timer_after(sim::Duration d, std::function<void()> fn) override;
  void cancel_timer(TimerId id) override;
  [[nodiscard]] obs::Recorder* obs() override;
  void trace(sim::TraceKind kind, std::uint64_t a, std::uint64_t b,
             util::ProcessSet set, std::string note) override;

 private:
  SimCluster& cluster_;
  ProcessId id_;
};

class SimCluster {
 public:
  explicit SimCluster(const SimClusterConfig& cfg);
  ~SimCluster();
  SimCluster(const SimCluster&) = delete;
  SimCluster& operator=(const SimCluster&) = delete;

  [[nodiscard]] int size() const { return procs_.size(); }
  sim::Simulator& simulator() { return sim_; }
  sim::ProcessService& processes() { return procs_; }
  sim::DatagramNetwork& network() { return net_; }
  sim::TraceLog& trace_log() { return trace_; }
  [[nodiscard]] const sim::TraceLog& trace_log() const { return trace_; }
  sim::FaultScript& faults() { return faults_; }
  Endpoint& endpoint(ProcessId p) { return *endpoints_.at(p); }

  /// Cluster-wide metrics registry. DatagramNetwork message accounting is
  /// exported into snapshots as "net.*" via a pull source.
  [[nodiscard]] obs::Registry& metrics() { return registry_; }
  [[nodiscard]] const obs::Registry& metrics() const { return registry_; }
  obs::Recorder& recorder(ProcessId p) { return *recorders_.at(p); }
  /// Merge every member's trace ring into one synchronized-time timeline.
  [[nodiscard]] std::vector<obs::Event> merged_trace() const;

  /// Attach a stack to process p. The handler must outlive the cluster run.
  void bind(ProcessId p, Handler& handler);

  /// Start every bound stack (on_start behind scheduling delays).
  void start();

  /// Per-peer outbound cap on the simulated network, classifying frames
  /// with the real wire rules (control passes, data sheds; group-tag
  /// wrappers are transparent). 0 = off. See DatagramNetwork.
  void set_send_budget(std::size_t bytes_per_window, sim::Duration window);

  void run_until(sim::SimTime t) { sim_.run_until(t); }

  [[nodiscard]] sim::SimTime now() const { return sim_.now(); }

 private:
  friend class SimEndpoint;

  sim::Simulator sim_;
  sim::ProcessService procs_;
  sim::DatagramNetwork net_;
  sim::TraceLog trace_;
  sim::FaultScript faults_;
  obs::Registry registry_;  // must outlive recorders_ and the stacks
  std::vector<std::unique_ptr<obs::Recorder>> recorders_;
  obs::Registry::SourceId net_stats_source_ = 0;
  obs::Registry::SourceId pool_stats_source_ = 0;
  std::vector<std::unique_ptr<SimEndpoint>> endpoints_;
};

}  // namespace tw::net
