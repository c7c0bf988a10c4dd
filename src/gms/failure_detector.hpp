// The failure detector half of the timewheel membership protocol
// (paper §4.1-§4.2).
//
// "Each failure detector maintains an alive-list of team members that are
//  currently functioning correctly. A failure detector is unreliable [...]
//  A failure detector keeps all group members under surveillance by
//  checking that they send control messages periodically."
//
// The FD is pure bookkeeping: it records control-message receipts and the
// single current expectation ("a control message from sender e with a send
// timestamp greater than base_ts must arrive before deadline"); the node
// owns the timer and asks the FD whether the expectation was met. The
// alive-list is every process heard from within the last N slots, plus
// self (paper §4.2: "The alive-list of FD_p contains p and each process q,
// such that p has received at least one control message from q in the last
// N slots").
// The surveillance *timeout* is a pluggable per-round policy
// (DetectorPolicy): the paper's fixed 2D bound, or an adaptive estimator
// in the De Florio & Blondia design-tool style — an EWMA of the observed
// ring-hop latency (expected sender's send_ts minus the expectation's
// base_ts) plus a variance-scaled safety margin, clamped between a
// detection floor (no live peer inside the δ/σ/ε envelope may be
// suspected) and the 2D cap (the paper's bound is never exceeded, so the
// §4.2 safety argument is untouched; only detection latency changes).
#pragma once

#include <memory>
#include <vector>

#include "sim/time.hpp"
#include "util/process_set.hpp"
#include "util/types.hpp"

namespace tw::gms {

/// Per-round surveillance-timeout policy (see file comment). Stateless
/// about WHO is watched — the FailureDetector feeds it hop observations
/// and asks it for the next deadline; clamping keeps any policy inside
/// the paper's envelope.
class DetectorPolicy {
 public:
  virtual ~DetectorPolicy() = default;
  /// One observed ring hop: a control message from `from` satisfied the
  /// current expectation `gap` after its base timestamp.
  virtual void observe(ProcessId from, sim::Duration gap) = 0;
  /// Surveillance timeout for the next expectation on `peer`, clamped to
  /// [floor, cap]. `cap` is the paper's 2D bound; no policy may exceed it.
  [[nodiscard]] virtual sim::Duration timeout(ProcessId peer,
                                              sim::Duration floor,
                                              sim::Duration cap) const = 0;
  /// An expectation on `peer` expired unanswered. Timed-out hops never
  /// reach observe() (survivorship bias), so this is the policy's only
  /// signal that its timeout is too tight for the current network.
  virtual void penalize(ProcessId peer) = 0;
  virtual void reset() = 0;
  [[nodiscard]] virtual const char* name() const = 0;
};

/// The paper's fixed bound: always `cap` (2D). The default.
class FixedDetectorPolicy final : public DetectorPolicy {
 public:
  void observe(ProcessId, sim::Duration) override {}
  [[nodiscard]] sim::Duration timeout(ProcessId, sim::Duration,
                                      sim::Duration cap) const override {
    return cap;
  }
  void penalize(ProcessId) override {}
  void reset() override {}
  [[nodiscard]] const char* name() const override { return "fixed"; }
};

/// Adaptive EWMA-of-hop-latency + variance margin (Jacobson-style gains),
/// per peer. Until `warmup` samples from a peer have been seen its timeout
/// stays at the cap, so a fresh group inherits the paper's bound and only
/// tightens once the ring's real cadence is known.
///
/// Timeouts feed back as exponential backoff (RTO-style): each expired
/// expectation doubles every timeout (shared across peers — an expiry is
/// evidence about the NETWORK, and a tight timeout would misfire on
/// whichever peer is watched next), and the backoff decays one notch per
/// `decay_streak` consecutive answered hops. A lossy network therefore
/// drives the policy back to the paper's 2D bound instead of suspecting
/// live members at the clean-network rate.
class AdaptiveDetectorPolicy final : public DetectorPolicy {
 public:
  struct Params {
    double alpha = 0.125;  ///< EWMA gain for the hop estimate
    double beta = 0.25;    ///< EWMA gain for the mean deviation
    double margin_k = 4.0; ///< deviation multiplier in the safety margin
    int warmup = 8;        ///< samples per peer before tightening below cap
    int backoff_max = 6;   ///< cap on timeout-doubling notches
    int decay_streak = 64;  ///< answered hops per backoff notch decayed
    /// Hysteresis: tightened timeouts require this many consecutive
    /// answered hops since the last expiry. A lossy network penalizes
    /// often enough that the streak rarely reaches it, so the policy sits
    /// at the paper's cap there and only tightens in a genuinely clean
    /// regime — the false-suspicion-rate targeting of the De Florio &
    /// Blondia design approach.
    int tighten_streak = 64;
    /// Per-sample multiplicative decay of the max-excess term (half-life
    /// ~140 hops at 0.995). The EWMA deviation forgets an isolated late
    /// hop within a handful of samples; the late tail of a lossy network
    /// is not Gaussian, so the margin also remembers the largest excess
    /// over the smoothed hop seen recently.
    double excess_decay = 0.995;
  };

  AdaptiveDetectorPolicy(int team_size, Params params);

  void observe(ProcessId from, sim::Duration gap) override;
  [[nodiscard]] sim::Duration timeout(ProcessId peer, sim::Duration floor,
                                      sim::Duration cap) const override;
  void penalize(ProcessId peer) override;
  void reset() override;
  [[nodiscard]] const char* name() const override { return "adaptive"; }

  /// Observed-hop estimate for tests/metrics (-1 before any sample).
  [[nodiscard]] sim::Duration estimate(ProcessId peer) const;
  [[nodiscard]] int backoff() const { return backoff_; }

 private:
  struct PerPeer {
    double srtt = 0.0;   ///< smoothed hop latency (µs)
    double var = 0.0;    ///< smoothed mean deviation (µs)
    int samples = 0;
  };
  Params params_;
  std::vector<PerPeer> peers_;
  int backoff_ = 0;  ///< shared timeout-doubling notches
  int streak_ = 0;   ///< consecutive answered hops since the last expiry
  double excess_ = 0.0;   ///< decaying max of (sample - srtt), shared
};

class FailureDetector {
 public:
  FailureDetector(ProcessId self, int team_size, sim::Duration slot_len);

  void reset();

  /// Record receipt of a control message (decision, no-decision, join or
  /// reconfiguration) from `from`, carrying send timestamp `send_ts`,
  /// received at local synchronized time `sync_now`.
  void note_control(ProcessId from, sim::ClockTime send_ts,
                    sim::ClockTime sync_now);

  /// Duplicate / old-message filter (paper §4.2: "processes reject
  /// duplicate or old control messages"): true iff send_ts is strictly
  /// newer than every control message seen from `from`.
  [[nodiscard]] bool newer_than_seen(ProcessId from,
                                     sim::ClockTime send_ts) const;

  /// {self} ∪ {q : control message received within the last N slots}.
  [[nodiscard]] util::ProcessSet alive_list(sim::ClockTime sync_now) const;

  /// Piggybacked alive-list most recently received from q (what q claims
  /// to see) — used by the decider to integrate joiners ("if all group
  /// members have included p in their alive-list").
  void note_peer_alive_list(ProcessId from, util::ProcessSet alive,
                            sim::ClockTime sync_now);
  [[nodiscard]] util::ProcessSet peer_alive_list(ProcessId from) const;
  [[nodiscard]] sim::ClockTime peer_alive_age(ProcessId from,
                                              sim::ClockTime sync_now) const;

  // --- the single surveillance expectation -----------------------------
  /// Expect a control message from `sender` with send_ts > base_ts, due by
  /// `deadline` (synchronized clock). Replaces any previous expectation.
  void expect(ProcessId sender, sim::ClockTime base_ts,
              sim::ClockTime deadline);
  void clear_expectation();

  [[nodiscard]] bool expecting() const { return expected_ != kNoProcess; }
  [[nodiscard]] ProcessId expected_sender() const { return expected_; }
  [[nodiscard]] sim::ClockTime deadline() const { return deadline_; }
  [[nodiscard]] sim::ClockTime base_ts() const { return base_ts_; }

  /// True iff the expectation is armed and already satisfied by a recorded
  /// control message (send_ts > base_ts from the expected sender).
  [[nodiscard]] bool expectation_met() const;

  /// Latest control-message send timestamp seen from q (-1 if none).
  [[nodiscard]] sim::ClockTime last_ts_from(ProcessId q) const;

  /// Attach the surveillance-timeout policy (non-owning — the node owns
  /// it). nullptr restores the default FixedDetectorPolicy. Hop
  /// observations are fed from note_control: the first message that
  /// satisfies the current expectation contributes send_ts - base_ts as one
  /// ring-hop sample.
  void set_policy(DetectorPolicy* policy);
  /// Timeout for the next expectation on `sender` under the attached
  /// policy, clamped to [floor, cap] regardless of what the policy says.
  [[nodiscard]] sim::Duration surveillance_timeout(ProcessId sender,
                                                   sim::Duration floor,
                                                   sim::Duration cap) const;
  /// The current expectation expired unanswered (the node is about to
  /// raise a suspicion): let the policy back off.
  void note_expectation_timeout();

 private:
  ProcessId self_;
  int n_;
  sim::Duration slot_len_;

  struct PerPeer {
    sim::ClockTime last_send_ts = -1;
    sim::ClockTime last_recv_time = -1;
    util::ProcessSet alive;
    sim::ClockTime alive_recv_time = -1;
  };
  std::vector<PerPeer> peers_;

  ProcessId expected_ = kNoProcess;
  sim::ClockTime base_ts_ = -1;
  sim::ClockTime deadline_ = -1;
  DetectorPolicy* policy_;
};

}  // namespace tw::gms
