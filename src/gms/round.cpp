#include "gms/round.hpp"

#include "gms/timewheel_node.hpp"
#include "util/logging.hpp"

namespace tw::gms {

const char* round_msg_name(RoundMsg m) {
  switch (m) {
    case RoundMsg::decision: return "decision";
    case RoundMsg::no_decision: return "no_decision";
    case RoundMsg::reconfiguration: return "reconfiguration";
    case RoundMsg::join: return "join";
    case RoundMsg::state_transfer: return "state_transfer";
    case RoundMsg::rejoin_request: return "rejoin_request";
  }
  return "?";
}

const char* round_drop_name(RoundDrop d) {
  switch (d) {
    case RoundDrop::accepted: return "accepted";
    case RoundDrop::stale: return "stale";
    case RoundDrop::future: return "future";
    case RoundDrop::duplicate: return "duplicate";
    case RoundDrop::old_round: return "old_round";
    case RoundDrop::old_epoch: return "old_epoch";
    case RoundDrop::durable_floor: return "durable_floor";
    case RoundDrop::late: return "late";
  }
  return "?";
}

bool RoundGate::fresh(sim::ClockTime ts, sim::ClockTime now) const {
  return ts >= 0 && now - ts <= node_.cfg_.staleness_bound(node_.n_);
}

RoundDrop RoundGate::drop(const Inbound& m, RoundDrop why) {
  ++node_.stats_.stale_dropped;
  if (auto* rec = node_.ep_.obs()) {
    const auto arg = static_cast<std::uint8_t>(
        (static_cast<std::uint8_t>(m.kind) << 4) |
        static_cast<std::uint8_t>(why));
    rec->emit(obs::EvKind::round_drop, arg, m.epoch,
              static_cast<std::uint64_t>(m.send_ts));
  }
  TW_DEBUG("p" << node_.self() << ": round gate drops "
               << round_msg_name(m.kind) << " from p" << m.from << " ("
               << round_drop_name(why) << ", epoch " << m.epoch << ", round "
               << m.send_ts << ")");
  return why;
}

RoundDrop RoundGate::admit(const Inbound& m, sim::ClockTime now) {
  const NodeConfig& cfg = node_.cfg_;

  // State transfers are fenced by epoch only: they carry no fresh liveness
  // claim (no staleness/duplicate filtering, no FD bookkeeping) but
  // re-baseline history, so the epoch checks are the ones that matter.
  if (m.kind == RoundMsg::state_transfer) {
    // Stale-donor validation: the durable kernel remembers the last view
    // this process installed before crashing. A transfer from an older
    // group (a partitioned straggler, a delayed datagram from before the
    // crash) would re-baseline us onto state the group has since
    // superseded.
    if (node_.recovered_dirty() && node_.store_ != nullptr &&
        m.epoch < durable_floor_) {
      TW_WARN("p" << node_.self() << ": ignoring stale state transfer (gid "
                  << m.epoch << " < durable floor " << durable_floor_
                  << ")");
      return drop(m, RoundDrop::durable_floor);
    }
    // Epoch fence: a transfer built in an older epoch than the view we
    // have installed describes a superseded branch — adopting it would
    // rewind our delivery marks onto the losing side of a heal. (The
    // durable floor above only protects a recovering process; this
    // protects every member.)
    if (node_.installed_ && m.epoch < node_.gid_) {
      if (auto* rec = node_.ep_.obs())
        rec->emit(obs::EvKind::epoch_fence, 1, m.epoch, node_.gid_);
      TW_WARN("p" << node_.self()
                  << ": refusing state transfer from stale epoch " << m.epoch
                  << " (installed " << node_.gid_ << ")");
      return drop(m, RoundDrop::old_epoch);
    }
    return RoundDrop::accepted;
  }

  // Fail-aware rejection of late messages ("p can detect all messages from
  // non-Δ-stable processes as being late and can reject them", §3): a
  // control message older than about a cycle is useless and dangerous.
  if (now - m.send_ts > cfg.staleness_bound(node_.n_))
    return drop(m, RoundDrop::stale);

  // A rejoin solicitation passes the staleness check only: recording its
  // sender in the failure detector would refresh a zombie's standing as a
  // live member, and the message carries no round/epoch claim to fence.
  if (m.kind == RoundMsg::rejoin_request) return RoundDrop::accepted;

  // From the future: the sender's clock is broken.
  if (m.send_ts - now > node_.clock_.epsilon() + cfg.sigma + cfg.delta)
    return drop(m, RoundDrop::future);
  // Duplicate / old-message filter (§4.2).
  if (!node_.fd_.newer_than_seen(m.from, m.send_ts))
    return drop(m, RoundDrop::duplicate);
  // The message is live and fresh from its sender's point of view: the FD's
  // receive bookkeeping happens HERE, before the round/epoch fences below —
  // a message from a closed round still proves its sender is alive.
  node_.fd_.note_control(m.from, m.send_ts, now);
  if (m.alive != nullptr)
    node_.fd_.note_peer_alive_list(m.from, *m.alive, now);

  // Round fence: a decision at or before the freshest round we adopted
  // teaches us nothing; a no-decision from such a round belongs to an
  // episode a decision already resolved and must not feed a new election.
  if ((m.kind == RoundMsg::decision || m.kind == RoundMsg::no_decision) &&
      m.send_ts <= last_round_)
    return drop(m, RoundDrop::old_round);

  if (m.kind == RoundMsg::decision) {
    // Epoch fence: the round check above is a heuristic, not an order —
    // across a partition heal (or a clock-step fault) a decision from a
    // superseded group can carry a FRESHER send_ts than the epoch we
    // installed. Group ids are monotone along every chain of majority
    // groups, so a decision whose gid regresses below ours is from a stale
    // epoch: acting on it would rebind ordinals of the installed history.
    if (node_.installed_ && m.epoch < node_.gid_) {
      if (auto* rec = node_.ep_.obs())
        rec->emit(obs::EvKind::epoch_fence, 1, m.epoch, node_.gid_);
      TW_DEBUG("p" << node_.self() << ": refusing stale-epoch decision (gid "
                   << m.epoch << " < installed " << node_.gid_ << ")");
      return drop(m, RoundDrop::old_epoch);
    }
    // Fail-aware lateness rejection (§3): a decision older than δ + ε + σ
    // was sent by a process that is not Δ-stable towards us; acting on it
    // (in particular assuming the decider role from it) could create a
    // second decider. The one exception is the wrong-suspicion masking
    // path: the CURRENT suspect resending its last decision must be heard.
    // Bound: transit δ + scheduling σ + twice the clock deviation ε (the
    // receiver may sit at +ε and the sender at -ε of real time, and a
    // freshly resynchronized clock can be at the envelope's edge), doubled
    // for σ as well. Must stay below the 2D wrong-suspicion resend window
    // it exists to discriminate against (2D = 2·big_d; defaults:
    // 59ms < 100ms).
    const bool from_suspect =
        node_.suspect_ != kNoProcess && m.from == node_.suspect_;
    const bool late =
        now - m.send_ts > cfg.delta + 2 * (node_.clock_.epsilon() + cfg.sigma);
    if (late && !from_suspect) return drop(m, RoundDrop::late);
  }

  return RoundDrop::accepted;
}

}  // namespace tw::gms
