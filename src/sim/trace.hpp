// Structured trace of protocol-visible events.
//
// Protocol stacks emit typed records; tests and benchmark harnesses scan the
// trace to check the paper's invariants (§3 properties (1)-(5), at-most-one-
// decider, agreement on group histories) and to measure recovery latencies.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/time.hpp"
#include "util/process_set.hpp"
#include "util/types.hpp"

namespace tw::sim {

enum class TraceKind : std::uint8_t {
  node_started,        ///< a = incarnation
  group_created,       ///< a = group id; set = members (emitted by creator)
  view_installed,      ///< a = group id; set = members (every member)
  decider_assumed,     ///< a = group id, b = decision number
  decision_sent,       ///< a = group id, b = decision number
  suspicion,           ///< a = suspected process
  state_changed,       ///< a = new GroupCreator state, b = old state
  delivered,           ///< a = ordinal, b = proposer; note carries payload tag
  joined,              ///< a = group id (this node integrated into the group)
  excluded,            ///< a = group id this node learned it is not part of
  clock_sync_lost,     ///< synchronized clock became out-of-date
  clock_sync_regained,
  proposal_sent,       ///< a = seq
  custom,              ///< free-form, see note
};

[[nodiscard]] const char* trace_kind_name(TraceKind k);

struct TraceRecord {
  SimTime t = 0;
  ProcessId p = kNoProcess;
  TraceKind kind = TraceKind::custom;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  util::ProcessSet set;
  std::string note;
};

class TraceLog {
 public:
  void add(TraceRecord r) { records_.push_back(std::move(r)); }

  [[nodiscard]] const std::vector<TraceRecord>& records() const {
    return records_;
  }
  void clear() { records_.clear(); }

  /// All records of one kind, in time order (records are appended in
  /// simulation order, so no sort is needed).
  [[nodiscard]] std::vector<TraceRecord> of_kind(TraceKind k) const;

  /// All records of one kind emitted by one process.
  [[nodiscard]] std::vector<TraceRecord> of_kind(TraceKind k,
                                                 ProcessId p) const;

  /// Time of the first record of `k` with t >= after; kNever if none.
  [[nodiscard]] SimTime first_after(TraceKind k, SimTime after) const;

  [[nodiscard]] std::string dump() const;

 private:
  std::vector<TraceRecord> records_;
};

}  // namespace tw::sim
