// The simulated asynchronous datagram service (paper §2).
//
// Omission/performance failure semantics: a datagram may be lost, may be
// delivered late (transmission delay > δ), or delivered timely. On top of
// that the model can inject the fault classes a real 1998 Ethernet produced
// only probabilistically: duplication, bounded (still timely) reordering and
// payload corruption. Corrupted datagrams carry their original CRC-32C and
// are verified at receive time, mirroring the UDP transport's framing: a
// mismatch is counted and dropped, so corruption degrades to omission —
// exactly the paper's failure semantics. Supports partitions, per-link
// up/down control and targeted one-shot drop/delay/duplicate/corrupt rules
// for scripted failure scenarios.
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "sim/message_stats.hpp"
#include "sim/process_service.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "util/process_set.hpp"
#include "util/types.hpp"

namespace tw::sim {

/// Ambient (probabilistic, per-datagram) fault model beyond loss/lateness.
struct NetFaultModel {
  double dup_prob = 0.0;          ///< chance of one extra in-flight copy
  double reorder_prob = 0.0;      ///< chance of a bounded reorder push-back
  double corrupt_prob = 0.0;      ///< chance of a single-byte payload flip

  [[nodiscard]] bool active() const {
    return dup_prob > 0.0 || reorder_prob > 0.0 || corrupt_prob > 0.0;
  }
};

/// Why the network discarded an in-flight datagram (observability hook).
enum class DropCause : std::uint8_t {
  crashed,
  link,
  rule,
  loss,
  corrupt,
  backpressure,  ///< sender's per-peer outbound cap shed a data frame
};

class DatagramNetwork {
 public:
  DatagramNetwork(Simulator& simulator, ProcessService& procs,
                  DelayModel delays);

  /// One payload buffer is shared (refcounted) across every receiver of a
  /// broadcast and every duplicated in-flight copy — the network never
  /// copies bytes except to corrupt them. The deleter returns the buffer
  /// to the thread's codec BufferPool once the last delivery consumed it.
  using Payload = std::shared_ptr<const std::vector<std::byte>>;

  /// Called once per discarded datagram with (from, to, kind tag, cause,
  /// payload bytes); lets the transport layer trace drops without the
  /// network knowing about trace rings.
  using DropHook = std::function<void(ProcessId, ProcessId, std::uint8_t,
                                      DropCause, std::size_t)>;
  void set_drop_hook(DropHook hook) { drop_hook_ = std::move(hook); }

  /// Send to every other team member (UDP-broadcast style; the sender does
  /// not receive its own datagram).
  void broadcast(ProcessId from, std::vector<std::byte> payload);

  /// Point-to-point datagram.
  void send(ProcessId from, ProcessId to, std::vector<std::byte> payload);

  [[nodiscard]] const DelayModel& delays() const { return delays_; }

  [[nodiscard]] MessageStats& stats() { return stats_; }

  // --- fault injection -----------------------------------------------
  /// Directional link control; a down link silently drops datagrams.
  void set_link(ProcessId from, ProcessId to, bool up);

  /// Partition the team: links within each group stay up, all links that
  /// cross group boundaries go down (both directions).
  void set_partition(const std::vector<util::ProcessSet>& groups);

  /// All links up again.
  void heal();

  /// One-shot drop rule: the next `count` datagrams from `from` whose
  /// kind tag equals `kind` are dropped for the destinations in `to`
  /// (broadcasts count once per matching destination).
  void arm_drop(ProcessId from, std::uint8_t kind, util::ProcessSet to,
                int count);

  /// Message-level drop: like arm_drop, but every copy of a dropped
  /// datagram (identical bytes from the same sender in the same instant —
  /// the rest of a broadcast, or a unicast copy sent alongside it) is
  /// dropped too for the destinations in `to`, without consuming `count`.
  void arm_drop_message(ProcessId from, std::uint8_t kind,
                        util::ProcessSet to, int count);

  /// Make the next `count` matching datagrams late instead of dropped.
  void arm_delay(ProcessId from, std::uint8_t kind, util::ProcessSet to,
                 int count, Duration extra);

  /// Deliver the next `count` matching datagrams twice (the copy takes an
  /// independently sampled delay, so it may also arrive out of order).
  void arm_duplicate(ProcessId from, std::uint8_t kind, util::ProcessSet to,
                     int count);

  /// Corrupt the next `count` matching datagrams in flight (single random
  /// byte flip; the receive-side CRC check rejects and counts them).
  void arm_corrupt(ProcessId from, std::uint8_t kind, util::ProcessSet to,
                   int count);

  /// Disarm every one-shot rule.
  void clear_rules() { rules_.clear(); }

  /// Ambient duplication/reordering/corruption probabilities.
  void set_fault_model(const NetFaultModel& m) { faults_ = m; }

  /// Decides whether a payload is sheddable data (true) or must-pass
  /// control (false) under the outbound budget. Injected by the transport
  /// layer so the simulator stays ignorant of message formats.
  using ShedClassifier = std::function<bool(std::span<const std::byte>)>;

  /// Per-peer outbound occupancy cap, modeling a bounded device send
  /// queue: each (from, to) pair may put at most `bytes_per_window` on
  /// the wire per `window`. Data frames over the cap are shed (counted as
  /// dropped_backpressure, DropCause::backpressure); control frames pass
  /// regardless — strict priority — but still charge the window, so
  /// control load shrinks what data may use. 0 bytes = unlimited (off).
  void set_send_budget(std::size_t bytes_per_window, Duration window,
                       ShedClassifier is_sheddable);

 private:
  enum class RuleAction : std::uint8_t {
    drop,
    delay,
    duplicate,
    corrupt,
    drop_message,
  };

  struct Rule {
    ProcessId from;
    std::uint8_t kind;
    util::ProcessSet to;
    int remaining;
    RuleAction action;
    Duration extra_delay;  ///< delay action: deliver at δ + extra
    /// drop_message: the last datagram dropped and when, so its copies
    /// are recognised.
    Payload dropped = nullptr;
    SimTime dropped_at = -1;
  };

  void transmit(ProcessId from, ProcessId to, const Payload& payload);
  /// Schedule one in-flight copy; corrupts it first when asked to.
  void schedule_delivery(ProcessId from, ProcessId to, Payload payload,
                         Duration delay, bool corrupt);
  [[nodiscard]] bool link_up(ProcessId from, ProcessId to) const;
  /// Returns pointer to a matching armed rule, consuming one count (a copy
  /// of a message a drop_message rule already dropped consumes none).
  Rule* match_rule(ProcessId from, ProcessId to, const Payload& payload);
  [[nodiscard]] bool copy_of_dropped(const Rule& r,
                                     const Payload& payload) const;

  Simulator& sim_;
  ProcessService& procs_;
  DelayModel delays_;
  NetFaultModel faults_;
  MessageStats stats_;
  DropHook drop_hook_;
  std::vector<std::vector<bool>> link_up_;  // [from][to]
  std::deque<Rule> rules_;

  // Outbound budget (set_send_budget; off when budget_bytes_ == 0).
  struct BudgetWindow {
    SimTime start = 0;
    std::size_t used = 0;
  };
  std::size_t budget_bytes_ = 0;
  Duration budget_window_ = 0;
  ShedClassifier is_sheddable_;
  std::vector<std::vector<BudgetWindow>> budget_;  // [from][to]
};

}  // namespace tw::sim
