// Fail-aware clock synchronization (paper §2, after Fetzer & Cristian [15]).
//
// The timewheel membership protocol needs exactly two guarantees from this
// service:
//  (1) while a process's synchronized clock is *up-to-date*, its deviation
//      from any other up-to-date synchronized clock is bounded by ε, and
//  (2) every process KNOWS at any moment whether its clock is up-to-date
//      (fail-awareness) — a process that cannot keep its clock synchronized
//      is removed from the group and rejoins later.
//
// Mechanism: every round (250 ms) each process broadcasts a timestamped
// request; peers reply with their hardware clock reading. A reply whose
// round trip exceeded 2δ may have been late in either direction, so it is
// REJECTED — this is the fail-aware filter that makes remote clock reading
// safe in a timed asynchronous system. Accepted readings give remote-clock
// offsets with error ≤ rtt/2 − min_delay (+ drift slop). A process holding
// fresh (unexpired) readings from a majority of the team is up to date;
// otherwise the clock is out-of-date and now() returns nullopt.
//
// An up-to-date clock reads hardware clock + the median offset over its own
// clock and every peer read this incarnation whose reading is still
// bounded: fresh, or expired with its recorded error plus the drift since,
// 2ρ·age, within ε/2 = (δ − min_delay) + ρ·lease. A typical reading
// (error well under δ) stays bounded for minutes. So when a crashed member's
// reading expires, at a different instant on each survivor, every survivor
// keeps its offset in the median instead of jumping to the next clock up
// and back when it returns: the survivors take the median of the same
// clocks through the outage and the return. Freshness alone still decides
// fail-awareness; a restart begins with no readings.
//
// The median makes any two up-to-date clocks agree within
// ε = 2·(max reading error) + 2ρ·lease: both medians are sandwiched between
// correct remote clocks read with error at most ε/2.
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "net/msg_kind.hpp"
#include "net/transport.hpp"
#include "util/bytes.hpp"

namespace tw::csync {

struct Config {
  sim::Duration min_delay = sim::usec(200);  ///< network min one-way delay
  sim::Duration delta = sim::msec(10);       ///< one-way timeout delay δ
  sim::Duration lease = sim::msec(1500);     ///< reading freshness window
  double rho = 1e-5;                         ///< max hardware drift rate
  /// If true, the service reports the raw hardware clock as synchronized —
  /// usable when the harness gives all processes identical clocks, to study
  /// membership behaviour with clock-sync noise removed.
  bool perfect = false;

  /// Deviation bound ε between any two up-to-date synchronized clocks.
  [[nodiscard]] sim::Duration epsilon() const;
};

class ClockSync {
 public:
  /// `on_sync_change(bool now_synchronized)` fires on every up-to-date /
  /// out-of-date edge.
  ClockSync(net::Endpoint& endpoint, Config cfg,
            std::function<void(bool)> on_sync_change = {});

  /// (Re)start periodic rounds; resets all readings (used at process start
  /// and after crash recovery).
  void start();
  void stop();

  [[nodiscard]] static bool handles(net::MsgKind k) {
    return k == net::MsgKind::clocksync_request ||
           k == net::MsgKind::clocksync_reply;
  }
  void on_datagram(ProcessId from, net::MsgKind kind, util::ByteReader& body);

  /// Synchronized clock reading; nullopt while out-of-date. Monotone
  /// non-decreasing across calls while continuously synchronized.
  [[nodiscard]] std::optional<sim::ClockTime> now();

  [[nodiscard]] bool synchronized();
  [[nodiscard]] sim::Duration epsilon() const { return cfg_.epsilon(); }
  [[nodiscard]] const Config& config() const { return cfg_; }

  /// Current offset applied to the hardware clock (0 until synchronized).
  [[nodiscard]] sim::Duration current_offset();

  /// Number of peers with fresh readings (excluding self). Test hook.
  [[nodiscard]] int fresh_readings();

 private:
  struct Reading {
    sim::Duration offset = 0;        ///< remote − local, estimated
    sim::Duration error = 0;         ///< reading error bound when taken
    sim::ClockTime taken_hw = -1;    ///< hw time taken; -1: none yet
    bool fresh = false;              ///< cleared for good once a lease old
  };

  /// Fresh, or its error plus the drift since still within ε/2: its offset
  /// counts towards the clock's value.
  [[nodiscard]] bool bounded(const Reading& r, sim::ClockTime hw) const;
  void run_round();
  void refresh(sim::ClockTime hw);
  void send_request();

  net::Endpoint& ep_;
  Config cfg_;
  std::function<void(bool)> on_sync_change_;

  std::vector<Reading> readings_;
  std::uint32_t round_ = 0;
  net::TimerId round_timer_ = net::kNoTimer;
  bool running_ = false;
  bool synchronized_ = false;
  sim::Duration median_offset_ = 0;
  sim::ClockTime last_returned_ = INT64_MIN;
};

}  // namespace tw::csync
