// Rebaseline — everything that decides when this member's application
// state must be replaced by a state transfer, and who may supply one.
//
// Paper §4.2 re-baselines a joiner with one state transfer from the
// integrating decider. This stack also replaces a member's application
// state
//   - after a crash recovery: the durable application state may reflect
//     deliveries the volatile broadcast engine no longer remembers
//     (recovered_dirty);
//   - for a zombie, a recovered process the group never excluded: still
//     listed in the view, so nobody sends it a joiner's transfer and it
//     solicits one itself (rejoin_request);
//   - for a forked delivered history: adopt_oal reported deliveries that a
//     later authoritative window superseded (lineage_forked).
// While a re-baseline is pending, application deliveries are buffered, a
// solicitation ladder walks the ring for a donor, and this member donates
// to nobody. Like RoundGate it reads the node's position directly (it is a
// friend of TimewheelNode); the node asks the predicates below instead of
// reading the flags.
#pragma once

#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

#include "bcast/delivery.hpp"
#include "gms/messages.hpp"
#include "net/transport.hpp"

namespace tw::gms {

class TimewheelNode;

class Rebaseline {
 public:
  explicit Rebaseline(TimewheelNode& node) : node_(node) {}
  // The state-wait timer's callback holds `this`.
  Rebaseline(const Rebaseline&) = delete;
  Rebaseline& operator=(const Rebaseline&) = delete;

  // --- what the node asks --------------------------------------------
  /// TimewheelNode::recovered_dirty(), lineage_forked(), awaiting_state()
  /// and buffered_delivery_count().
  [[nodiscard]] bool dirty() const { return dirty_; }
  [[nodiscard]] bool forked() const { return forked_; }
  [[nodiscard]] bool awaiting() const { return awaiting_; }
  [[nodiscard]] std::size_t buffered_count() const { return buffered_.size(); }
  /// Application deliveries are held back until a state transfer lands.
  [[nodiscard]] bool holds_deliveries() const { return awaiting_ || dirty_; }
  /// The application state may hold a branch the group does not share.
  [[nodiscard]] bool app_state_suspect() const { return dirty_ || forked_; }

  // --- driven by the node --------------------------------------------
  /// Start of an incarnation: drop every pending re-baseline. A
  /// `recovered` incarnation keeps its durable application state but lost
  /// the engine's delivery/ordering marks, so it holds deliveries until a
  /// state transfer re-baselines both.
  void reset(bool recovered);
  /// Buffer a delivery while holds_deliveries(); false when it is not
  /// held and belongs to the application now.
  bool hold(const bcast::Proposal& p, Ordinal ordinal);
  /// adopt_oal reported `outcome.divergent` delivered bindings that the
  /// adopted window superseded: our delivered history is a forked branch.
  /// When we `joined` the group whose window it is, buffer further
  /// deliveries and solicit a baseline now, from `donor` first. Otherwise
  /// no donor can be asked yet: remember the fork so that re-integration
  /// re-baselines us. Group creation also calls this, joined and without
  /// divergence, while app_state_suspect().
  void diverged(const bcast::DeliveryEngine::AdoptOutcome& outcome,
                sim::ClockTime now, ProcessId donor, bool joined);
  /// A view naming us was installed and we were not a member before.
  /// `transfer_coming`: the decision integrates us as a joiner (a transfer
  /// for this view that landed first counts as received); `joining`: we
  /// are in the join state.
  void admitted(sim::ClockTime now, bool transfer_coming, bool joining);
  /// Zombie rehabilitation, called every housekeeping tick in the join
  /// state: ask a rotating member for a state transfer while we are
  /// recovered-dirty but still listed in the view we know.
  void solicit_rejoin(sim::ClockTime now);

  // --- donor side ------------------------------------------------------
  /// Send a state transfer to each process in `to`, unless we are not in
  /// the group or a re-baseline of our own is pending (we may donate only
  /// while none of the three flags is set).
  void donate(util::ProcessSet to, sim::ClockTime send_ts);
  /// A state_request (no timestamp) or a rejoin_request sent at
  /// `rejoin_ts`.
  void handle_request(ProcessId from, std::optional<sim::ClockTime> rejoin_ts);
  /// Apply a received StateTransfer: replace the application state and
  /// delivery marks, then flush what the transfer does not already cover.
  void handle_transfer(ProcessId from, StateTransfer st);

 private:
  /// The next rung of the state-request ladder, or giving up after
  /// state_retry_limit of them.
  void retry();
  /// Ask `to` for a state transfer (`attempt` is traced).
  void request(ProcessId to, int attempt);
  void arm_wait(sim::ClockTime now, int attempt);
  /// Wait before solicitation `attempt`: one, two, then four cycles, plus
  /// the node's per-process jitter.
  [[nodiscard]] sim::Duration backoff(int attempt) const;
  void flush();

  TimewheelNode& node_;
  /// A state transfer is expected (joiner, re-admitted fork, re-baseline).
  bool awaiting_ = false;
  /// Recovered-dirty: from a crash recovery until a state transfer (or
  /// giving up) re-baselines this incarnation.
  bool dirty_ = false;
  /// Lineage forked: divergent delivered history detected while no
  /// re-baseline could run (outside the group). Sticky until a state
  /// transfer replaces the application state or the request ladder gives
  /// up.
  bool forked_ = false;
  /// Deliveries held back, oldest first (capped at
  /// NodeConfig::max_buffered_deliveries).
  std::vector<std::pair<bcast::Proposal, Ordinal>> buffered_;
  net::TimerId wait_timer_ = net::kNoTimer;
  int request_attempts_ = 0;
  /// Group of the freshest state transfer applied this incarnation (0:
  /// none).
  GroupId transferred_gid_ = 0;
  /// Zombie solicitations: last send time, target, and how many went
  /// unanswered in a row (drives the backoff).
  sim::ClockTime last_rejoin_ts_ = -1;
  ProcessId rejoin_target_ = kNoProcess;
  int rejoin_attempts_ = 0;
};

}  // namespace tw::gms
