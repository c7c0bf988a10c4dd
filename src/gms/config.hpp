// Timing parameters of the timewheel protocol stack.
#pragma once

#include <cstddef>
#include <cstdint>

#include "clocksync/clock_sync.hpp"
#include "sim/time.hpp"

namespace tw::gms {

/// Which surveillance-timeout policy the failure detector runs
/// (failure_detector.hpp). `fixed` is the paper's 2D bound; `adaptive`
/// tracks the observed ring-hop latency (EWMA + variance margin) and
/// clamps the result to [fd_floor, 2D], so the paper's bound is the worst
/// case, never exceeded.
enum class DetectorKind : std::uint8_t { fixed = 0, adaptive = 1 };

struct NodeConfig {
  /// One-way timeout delay δ of the datagram service (paper §2).
  sim::Duration delta = sim::msec(10);
  /// Maximum scheduling delay σ of the process service (paper §2).
  sim::Duration sigma = sim::msec(5);
  /// D: a decider sends a decision message at most D after assuming the
  /// role (paper §2); also drives the FD timeout (2D) and slot length
  /// (S ≥ D + δ).
  sim::Duration big_d = sim::msec(50);
  /// When an idle decider actually sends its decision. Must be ≤ D; we
  /// default to D/2 to leave the FD the transmission/scheduling/clock-skew
  /// margin the paper's 2D bound assumes (see DESIGN.md §3). 0 = D/2.
  sim::Duration decision_delay = 0;
  /// Proposer-side batching: while a member, up to this many own proposals
  /// are coalesced into one proposal_batch datagram, amortizing the
  /// header/CRC/per-datagram cost under load. 1 = off (every proposal is
  /// its own datagram — the classic wire behavior). The decision's oal
  /// acknowledges all of a batch's proposals collectively, so FIFO and
  /// fifo_floor semantics are unchanged.
  int max_batch = 1;
  /// Release delay Δ for time-ordered delivery: a time-ordered update is
  /// delivered at send_ts + deliver_delay on the synchronized clock.
  /// Should exceed δ + ε so every member has the update by release time.
  sim::Duration deliver_delay = sim::msec(60);
  /// Clock-synchronization service parameters.
  csync::Config clock;
  /// How many state-transfer solicitations a joiner / re-baselining member
  /// sends (exponential backoff + jitter between them, walking the ring
  /// for a fresh donor each time) before giving up and flushing buffered
  /// deliveries as-is.
  int state_retry_limit = 6;
  /// Failure-detector surveillance-timeout policy (see DetectorKind).
  DetectorKind detector = DetectorKind::fixed;
  /// Admission control: maximum own proposals in flight (queued while not
  /// a member + admitted-but-undelivered while a member). 0 = unbounded
  /// (the legacy behavior). When bounded, try_propose() REFUSES — never
  /// sheds — excess proposals: an admitted proposal has a sequence number
  /// other members use for FIFO/fifo_floor gap detection, so dropping one
  /// after admission would wedge every successor behind a hole. Refusal
  /// before a sequence number is assigned is invisible to the protocol.
  int max_pending = 0;
  /// Bound on deliveries buffered while awaiting a state-transfer baseline
  /// (recovered_dirty / re-baseline). Oldest-first shedding is safe HERE —
  /// unlike pending proposals — because the incoming baseline supersedes
  /// old deliveries wholesale; sheds are counted in gms.rebaseline_shed.
  /// 0 = unbounded.
  std::size_t max_buffered_deliveries = 4096;
  /// Mutation switch for model checking (torture --explore): false disables
  /// the delivery engine's ordinal-occupancy conflict repair, reintroducing
  /// the within-epoch lineage fork the guard exists to catch. Production
  /// and every test except the explore mutation suite leave this true.
  bool occupancy_guard = true;

  [[nodiscard]] sim::Duration effective_decision_delay() const {
    return decision_delay > 0 ? decision_delay : big_d / 2;
  }
  /// Slot length S = D + δ (paper §4.2's minimum).
  [[nodiscard]] sim::Duration slot_len() const { return big_d + delta; }
  [[nodiscard]] sim::Duration cycle_len(int n) const {
    return slot_len() * n;
  }
  /// Failure-detector deadline: a control message from the expected sender
  /// is due within 2D of the previous one (paper §4.2).
  [[nodiscard]] sim::Duration fd_timeout() const { return 2 * big_d; }
  /// Tightest surveillance timeout an adaptive policy may use: a live
  /// expected sender's next control message trails the expectation base by
  /// at most its decision delay + transit δ + scheduling σ + clock
  /// deviation on both ends (the same envelope the round gate's lateness
  /// check uses), so no timeout at or above this can suspect a Δ-stable
  /// process.
  [[nodiscard]] sim::Duration fd_floor(sim::Duration epsilon) const {
    return delta + 2 * (epsilon + sigma) + effective_decision_delay();
  }
  /// Control messages older than this are rejected as late (fail-aware
  /// rejection of messages from non-Δ-stable senders; also bounds how long
  /// election messages stay usable — about one cycle, paper §4.2).
  [[nodiscard]] sim::Duration staleness_bound(int n) const {
    return cycle_len(n);
  }

  /// Fill the clock-sync config's network parameters from ours.
  void propagate_clock_params() {
    clock.delta = delta;
    if (clock.min_delay > delta) clock.min_delay = 0;
  }
};

}  // namespace tw::gms
