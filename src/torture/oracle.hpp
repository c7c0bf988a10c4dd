// The consolidated membership invariant oracle.
//
// After a torture run the oracle replays the harness's TraceLog and
// application lineages through every safety property we claim (paper §3
// properties (1)-(5) as implemented by SimHarness, at-most-one-decider,
// majority group-history agreement) plus the fault-specific guarantees the
// new fault primitives introduce: corrupted datagrams are never delivered,
// duplication never double-delivers, and the ordinal stream every final
// member holds is prefix-consistent across the group. It also computes a
// stable 64-bit digest of the run so bit-for-bit reproducibility is a
// one-line comparison.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "gms/sim_harness.hpp"
#include "torture/fault_plan.hpp"

namespace tw::torture {

/// What a violation broke. The minimizer keeps a removal only while the
/// run still fails with the same kinds, so it cannot drift to another bug.
enum class ViolationKind : std::uint8_t {
  liveness,         ///< the team did not re-form after the faults stopped
  view,             ///< view agreement or majority (§3 properties 2, 5)
  decider,          ///< two creators of a gid or two senders of a decision
  duplicate,        ///< a lineage holds one proposal twice
  fifo,             ///< a lineage breaks one proposer's FIFO order
  rebind,           ///< ordinal conflict at a cross-epoch rebind
  occupancy,        ///< ordinal conflict where a window displaced a binding
  fork,             ///< ordinal conflict with neither recorded
  rehabilitation,   ///< a member still dirty, awaiting or buffering
  out_of_order,     ///< total deliveries out of ordinal order
  false_suspicion,  ///< a healthy member suspected a merely-slow one
  corruption,       ///< a corrupted datagram or payload got through
};

struct Violation {
  ViolationKind kind;
  std::string what;

  bool operator==(const Violation&) const = default;
};

struct OracleReport {
  bool converged = false;
  util::ProcessSet final_group;
  std::vector<Violation> violations;
  std::uint64_t trace_digest = 0;

  // Fault-model accounting (from the simulated datagram service).
  std::uint64_t corrupted = 0;
  std::uint64_t dropped_corrupt = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t reordered = 0;
  std::uint64_t delivered = 0;

  [[nodiscard]] bool passed() const { return violations.empty(); }
  /// The kinds among `violations`, one bit per ViolationKind.
  [[nodiscard]] std::uint32_t kinds() const;
  [[nodiscard]] std::string to_string() const;
};

/// Drive the (already started and fault-scheduled) harness to the end of
/// the plan, wait for re-convergence, then check every invariant.
[[nodiscard]] OracleReport run_oracle(gms::SimHarness& harness,
                                      const FaultPlan& plan);

/// Stable FNV-1a digest over the protocol-visible trace and every node's
/// application lineage. Identical seeds must produce identical digests.
[[nodiscard]] std::uint64_t run_digest(gms::SimHarness& harness);

/// Strict per-member gapless-ordinal check: among `members`, every lineage's
/// ordinals must be consecutive (no gaps). Only sound when the run had no
/// membership changes after formation (membership changes legitimately
/// consume ordinals); the dup/reorder property test qualifies, arbitrary
/// torture runs do not — they use the prefix-agreement check instead.
[[nodiscard]] std::vector<std::string> check_gapless_ordinals(
    const gms::SimHarness& harness, util::ProcessSet members);

}  // namespace tw::torture
