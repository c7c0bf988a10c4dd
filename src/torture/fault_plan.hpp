// Deterministic randomized fault schedules for the torture engine.
//
// A FaultPlan is plain data: a list of timed fault operations plus a timed
// proposal workload, generated from (TortureConfig, seed) by a dedicated
// RNG stream. The same (config, seed) always yields the same plan, and a
// plan can be serialized, parsed back, pruned by the minimizer, and applied
// to a fresh SimHarness — so every torture failure is a replayable artifact.
//
// Generation respects the paper's failure assumption (§3): a crash is only
// injected while a majority of "veteran" knowledge-holders stays up, and
// partitions always keep a majority side, so the §3 guarantees (and hence
// the oracle) are in force for every generated schedule.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bcast/types.hpp"
#include "gms/sim_harness.hpp"
#include "sim/network.hpp"
#include "sim/time.hpp"
#include "util/process_set.hpp"
#include "util/types.hpp"

namespace tw::torture {

enum class FaultType : std::uint8_t {
  crash,
  recover,
  stall,
  partition,   ///< targets = the majority side; everyone else is cut off
  heal,
  drop_rule,
  delay_rule,
  duplicate_rule,
  corrupt_rule,
  clock_step,
  clock_drift,
  set_model,   ///< switch the ambient NetFaultModel
  clear_rules,
  // Stable-storage faults (apply to p's MemStorage backend; no-ops when the
  // harness runs without durable stores).
  store_torn,   ///< arm `count` torn appends keeping `kind` percent
  store_flip,   ///< flip media bit `step` of the log (kind=0) / snap (kind=1)
  store_fsync,  ///< arm `count` failing sync barriers
  // Heal-focused primitives (append-only: plan files name ops by string,
  // but the parser bound below must track the last enumerator).
  flap,    ///< targets flaps vs the rest: `count` cuts, one per `dur`
  oneway,  ///< p loses its inbound (kind=1) / outbound (kind=0) links to targets
  /// Overload primitive: p stays alive but drains incoming datagrams at
  /// `kind` percent of the normal service rate for `dur`. The oracle holds
  /// a merely-slow member to the full safety bar AND (for pure
  /// slow-receiver plans) checks nobody falsely suspected it.
  slow_receiver,
  /// Message-level drop: like drop_rule, but each dropped datagram takes
  /// every same-instant copy of itself along (a decision's broadcast and
  /// its handoff copy to the successor are one message).
  drop_message,
};

[[nodiscard]] const char* fault_type_name(FaultType t);

struct FaultOp {
  sim::SimTime at = 0;
  FaultType type = FaultType::crash;
  ProcessId p = kNoProcess;     ///< subject / rule sender
  std::uint8_t kind = 0;        ///< rule message-kind byte
  util::ProcessSet targets;     ///< rule destinations / partition side
  int count = 0;                ///< rule datagram count
  sim::Duration dur = 0;        ///< stall length / delay-rule extra
  sim::ClockTime step = 0;      ///< clock_step delta
  double drift = 0.0;           ///< clock_drift rate
  sim::NetFaultModel model;     ///< set_model payload
  /// Structural ops (epilogue heal/recover/restore, model switches) are
  /// never removed by the minimizer: they keep the run well-formed.
  bool structural = false;

  [[nodiscard]] std::string to_string() const;
};

struct WorkloadOp {
  sim::SimTime at = 0;
  ProcessId proposer = kNoProcess;
  std::uint64_t tag = 0;
  bcast::Order order = bcast::Order::total;
  bcast::Atomicity atomicity = bcast::Atomicity::weak;
};

struct TortureConfig {
  int n = 5;
  /// Ambient datagram-service model while faults are active.
  double loss_prob = 0.01;
  double late_prob = 0.005;
  sim::NetFaultModel model{/*dup*/ 0.02, /*reorder*/ 0.05, /*corrupt*/ 0.01};

  sim::SimTime fault_start = sim::sec(3);   ///< let the first group form
  sim::SimTime fault_end = sim::sec(18);
  sim::Duration settle = sim::sec(30);      ///< convergence budget after end
  sim::Duration quiet_tail = sim::sec(2);   ///< drain deliveries before check

  // Fault families (all on by default).
  bool crashes = true;
  bool stalls = true;
  bool partitions = true;
  bool drops = true;
  bool duplication = true;
  bool reordering = true;
  bool corruption = true;
  bool clock_faults = true;
  bool store_faults = true;
  bool slow_receivers = true;

  double workload_rate_hz = 15.0;           ///< proposal rate during faults

  /// NodeConfig::max_batch for every node in the run — sweeping with
  /// max_batch > 1 torture-verifies that proposal batching preserves the
  /// §3 invariants under every fault family.
  int max_batch = 1;

  /// NodeConfig::occupancy_guard for every node: false disables the
  /// delivery engine's ordinal-occupancy conflict repair (the explore
  /// mutation test). Serialized only when off, so existing plan dumps are
  /// unchanged and old dumps parse as guarded.
  bool occupancy_guard = true;

  [[nodiscard]] sim::SimTime deadline() const { return fault_end + settle; }
};

/// Round boundary of a communication-closed-rounds window (explore mode):
/// purely descriptive — apply_plan ignores marks, so a marked plan runs
/// byte-for-byte like its unmarked twin — but a violation dump keeps them
/// so the repro names the round whose perturbation tripped the oracle.
struct RoundMark {
  int index = 0;        ///< 0-based round within the explored window
  sim::SimTime at = 0;  ///< when the round opens
};

struct FaultPlan {
  TortureConfig cfg;
  std::uint64_t seed = 0;
  /// In generation order, not execution order (a partition's heal is
  /// emitted ahead of later ops); apply_plan schedules each by `op.at`.
  std::vector<FaultOp> ops;
  std::vector<WorkloadOp> workload;    ///< time-ordered
  std::vector<RoundMark> rounds;       ///< optional (explore-generated plans)
};

/// Deterministically generate a randomized plan for (cfg, seed).
[[nodiscard]] FaultPlan generate_plan(const TortureConfig& cfg,
                                      std::uint64_t seed);

/// Schedule every fault and workload op of the plan onto the harness.
/// Call before harness.start(); the harness must outlive the run.
void apply_plan(const FaultPlan& plan, gms::SimHarness& harness);

/// Harness configuration matching the plan (n, seed, ambient loss model).
[[nodiscard]] gms::HarnessConfig harness_config(const FaultPlan& plan);

/// Human-readable, machine-parsable dump (one op per line).
[[nodiscard]] std::string plan_to_string(const FaultPlan& plan);

/// Parse a dump produced by plan_to_string. Returns false on syntax errors.
bool plan_from_string(const std::string& text, FaultPlan& out);

}  // namespace tw::torture
