// SimHarness — a whole timewheel team inside the discrete-event simulator,
// with application-level recording and checkers for the paper's §3
// membership properties. Used by the integration tests and by every
// benchmark scenario.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "gms/timewheel_node.hpp"
#include "net/sim_transport.hpp"
#include "store/stable_store.hpp"
#include "store/storage.hpp"

namespace tw::gms {

/// Bound on the processes' initial hardware-clock skew in both harnesses
/// (0 with perfect clocks).
inline constexpr sim::ClockTime kHarnessClockOffset = sim::msec(500);

struct HarnessConfig {
  int n = 5;
  std::uint64_t seed = 1;
  NodeConfig node;
  sim::DelayModel delays;
  sim::SchedModel sched;
  double rho = 1e-5;
  /// Use the perfect clock-sync mode: identical hardware clocks (no skew,
  /// no drift) and a clock-sync service that sends nothing.
  bool perfect_clocks = false;
  /// Give every node a StableStore over an in-memory write-back storage
  /// whose unsynced tail is rolled back on crash (power-loss semantics).
  /// Stores survive crash/recover cycles, so a recovered node replays its
  /// durable kernel exactly like a real process reopening its disk.
  bool durable_store = true;
};

struct DeliveryRecord {
  bcast::ProposalId pid;
  Ordinal ordinal = kNoOrdinal;
  std::vector<std::byte> payload;
  bcast::Order order = bcast::Order::unordered;
  bcast::Atomicity atomicity = bcast::Atomicity::weak;
  sim::SimTime at = 0;
};

struct ViewRecord {
  GroupId gid = 0;
  util::ProcessSet members;
  sim::SimTime at = 0;
};

/// One entry of a node's application lineage: the delivery history that
/// makes up its current replica state. Unlike the raw delivery log, the
/// lineage is REPLACED by a state transfer — mirroring what happens to the
/// real application state (paper §3 majority agreement: only histories of
/// completed majority groups must agree; a divergent branch dies when its
/// member is re-integrated with a state transfer).
struct LineageEntry {
  bcast::ProposalId pid;
  Ordinal ordinal = kNoOrdinal;
  bcast::Order order = bcast::Order::unordered;
};

/// The delivery-safety checks every harness checker runs over (pid,
/// ordinal, order) records, fed one member at a time: one proposal per
/// ordinal across all members, no proposal twice within a member, and FIFO
/// per proposer among a member's total-ordered deliveries. Every message
/// starts with `prefix` (an ordinal conflict reads "<prefix>ordinal
/// conflict at <ordinal> ...").
class DeliverySafety {
 public:
  explicit DeliverySafety(std::string prefix = {})
      : prefix_(std::move(prefix)) {}
  /// Start member p's records.
  void member(ProcessId p);
  void record(const bcast::ProposalId& pid, Ordinal ordinal,
              bcast::Order order);
  [[nodiscard]] std::vector<std::string> errors() const { return errors_; }

 private:
  std::string prefix_;
  ProcessId p_ = kNoProcess;
  std::map<Ordinal, bcast::ProposalId> by_ordinal_;
  std::map<bcast::ProposalId, int> times_;
  std::map<ProcessId, ProposalSeq> last_total_seq_;
  std::vector<std::string> errors_;
};

class SimHarness {
 public:
  explicit SimHarness(HarnessConfig cfg);
  ~SimHarness();
  SimHarness(const SimHarness&) = delete;
  SimHarness& operator=(const SimHarness&) = delete;

  [[nodiscard]] int n() const { return cfg_.n; }
  net::SimCluster& cluster() { return cluster_; }
  TimewheelNode& node(ProcessId p) { return *nodes_.at(p); }
  sim::FaultScript& faults() { return cluster_.faults(); }
  /// p's in-memory storage backend (for fault injection / inspection).
  /// Only valid when cfg.durable_store is on.
  store::MemStorage& mem_storage(ProcessId p) { return *mem_.at(p); }
  store::StableStore& stable_store(ProcessId p) { return *stores_.at(p); }
  [[nodiscard]] bool durable() const { return cfg_.durable_store; }
  [[nodiscard]] sim::SimTime now() const { return cluster_.now(); }
  [[nodiscard]] const HarnessConfig& config() const { return cfg_; }

  void start() { cluster_.start(); }
  void run_until(sim::SimTime t) { cluster_.run_until(t); }
  void run_for(sim::Duration d) { cluster_.run_until(now() + d); }

  // --- observability ----------------------------------------------------
  /// One snapshot covering network accounting ("net.*") and every node's
  /// NodeStats ("gms.p<i>.*").
  [[nodiscard]] obs::MetricsSnapshot metrics() const {
    return cluster_.metrics().snapshot();
  }
  /// All processes' trace rings merged into synchronized-time order.
  [[nodiscard]] std::vector<obs::Event> merged_trace() const {
    return cluster_.merged_trace();
  }
  /// The merged trace as a JSONL document (twtrace-compatible).
  [[nodiscard]] std::string trace_jsonl() const {
    return obs::to_jsonl(merged_trace());
  }

  // --- app recording ----------------------------------------------------
  [[nodiscard]] const std::vector<DeliveryRecord>& delivered(
      ProcessId p) const {
    return delivered_.at(p);
  }
  [[nodiscard]] const std::vector<ViewRecord>& views(ProcessId p) const {
    return views_.at(p);
  }
  /// The transferable application state: an order-insensitive accumulator
  /// over the node's current lineage (count, sum-of-hashes).
  [[nodiscard]] std::pair<std::uint64_t, std::uint64_t> app_state(
      ProcessId p) const;
  [[nodiscard]] const std::vector<LineageEntry>& lineage(ProcessId p) const {
    return lineage_.at(p);
  }

  // --- convenience drivers ----------------------------------------------
  /// Run until every process in `members` is in a group containing exactly
  /// `members` with a common group id, or until the deadline. Returns true
  /// on success.
  bool run_until_group(util::ProcessSet members, sim::SimTime deadline);

  /// Propose from p with the given semantics; payload is a small tagged
  /// blob (tag echoed back in DeliveryRecord::payload[0..7]).
  void propose(ProcessId p, std::uint64_t tag,
               bcast::Order order = bcast::Order::total,
               bcast::Atomicity atomicity = bcast::Atomicity::weak);

  /// Like propose() but surfaces the node's admission verdict (refusal
  /// with retry hint when NodeConfig::max_pending saturates).
  ProposeResult try_propose(ProcessId p, std::uint64_t tag,
                            bcast::Order order = bcast::Order::total,
                            bcast::Atomicity atomicity =
                                bcast::Atomicity::weak);

  static std::uint64_t payload_tag(const std::vector<std::byte>& payload);

  // --- invariant checkers (return error strings; empty = OK) ------------
  /// §3 property (2): identical up-to-date groups — every view_installed
  /// trace record with the same gid names the same member set.
  [[nodiscard]] std::vector<std::string> check_view_agreement() const;
  /// At most one decider: no two processes create the same group id, and no
  /// (gid, decision_no) pair is sent by two different processes.
  [[nodiscard]] std::vector<std::string> check_single_decider() const;
  /// §3 property (5): every installed group is a majority of the team.
  [[nodiscard]] std::vector<std::string> check_majority() const;
  /// Broadcast safety over raw delivery logs: same ordinal → same proposal
  /// everywhere; per-node no duplicate delivery; FIFO per proposer among
  /// total-ordered deliveries. STRICTER than the paper's §3 majority
  /// agreement — use only in scenarios without history-resetting rejoins.
  [[nodiscard]] std::vector<std::string> check_delivery_safety() const;
  /// The paper's actual guarantee, on application lineages: among `members`
  /// (typically the final converged group), pairwise ordinal→proposal
  /// agreement, FIFO per proposer, and no duplicate within a lineage.
  [[nodiscard]] std::vector<std::string> check_lineage_agreement(
      util::ProcessSet members) const;
  /// view agreement + single decider + majority + raw delivery safety.
  [[nodiscard]] std::vector<std::string> check_all_invariants() const;
  /// view agreement + single decider + majority + lineage agreement.
  [[nodiscard]] std::vector<std::string> check_majority_agreement_invariants(
      util::ProcessSet final_members) const;

 private:
  HarnessConfig cfg_;
  net::SimCluster cluster_;
  // Stores are owned here, NOT by the nodes: they model the disk, which
  // survives the process crash/recover cycle.
  std::vector<std::unique_ptr<store::MemStorage>> mem_;
  std::vector<std::unique_ptr<store::StableStore>> stores_;
  std::vector<std::unique_ptr<TimewheelNode>> nodes_;
  std::vector<std::vector<DeliveryRecord>> delivered_;
  std::vector<std::vector<ViewRecord>> views_;
  std::vector<std::vector<LineageEntry>> lineage_;
  /// Per process: lineage length at its most recent crash. Entries below
  /// this floor belong to earlier incarnations; the application dedups
  /// redeliveries against them (at-least-once across a recovery — the
  /// store loses its unsynced watermark tail — must be absorbed by an
  /// idempotent apply, while a double delivery WITHIN one incarnation is
  /// an engine bug the lineage checks must keep seeing).
  std::vector<std::size_t> lineage_floor_;
};

}  // namespace tw::gms
