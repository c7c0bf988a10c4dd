#include "baseline/heartbeat.hpp"

namespace tw::baseline {

namespace {
/// Interval between a member's heartbeats.
constexpr sim::Duration kHeartbeatPeriod = sim::msec(30);
/// Heartbeat periods of silence after which a member is suspected.
constexpr int kTimeoutPeriods = 3;
/// A proposed view is aborted if not committed within this.
constexpr sim::Duration kProposalTimeout = sim::msec(200);
}  // namespace

HeartbeatMembership::HeartbeatMembership(net::Endpoint& endpoint,
                                         ViewCallback on_view)
    : ep_(endpoint),
      on_view_(std::move(on_view)),
      n_(endpoint.team_size()) {
  last_heard_.resize(static_cast<std::size_t>(n_), -1);
}

void HeartbeatMembership::on_start() {
  view_id_ = 0;
  members_.clear();
  proposal_ = ViewProposal{};
  for (auto& t : last_heard_) t = -1;
  if (tick_timer_ != net::kNoTimer) ep_.cancel_timer(tick_timer_);
  tick();
}

ProcessId HeartbeatMembership::coordinator() const {
  const sim::ClockTime now = ep_.hw_now();
  util::ProcessSet candidates = alive(now);
  if (view_id_ > 0) candidates = candidates.intersect(members_);
  candidates.insert(ep_.self());
  return candidates.min();
}

util::ProcessSet HeartbeatMembership::alive(sim::ClockTime now) const {
  util::ProcessSet set;
  set.insert(ep_.self());
  const sim::Duration window = kHeartbeatPeriod * kTimeoutPeriods;
  for (ProcessId q = 0; q < static_cast<ProcessId>(n_); ++q)
    if (q != ep_.self() && last_heard_[q] >= 0 &&
        now - last_heard_[q] <= window)
      set.insert(q);
  return set;
}

void HeartbeatMembership::send_heartbeat() {
  util::ByteWriter w;
  w.u8(net::kind_byte(net::MsgKind::heartbeat));
  w.var_u64(view_id_);
  w.var_i64(ep_.hw_now());
  ep_.broadcast(std::move(w).take());
}

void HeartbeatMembership::tick() {
  tick_timer_ = ep_.set_timer_after(kHeartbeatPeriod, [this] { tick(); });
  send_heartbeat();
  maybe_change_view(ep_.hw_now());
}

void HeartbeatMembership::maybe_change_view(sim::ClockTime now) {
  // Abort a stuck proposal.
  if (proposal_.active && now - proposal_.proposed_at > kProposalTimeout)
    proposal_ = ViewProposal{};
  if (coordinator() != ep_.self() || proposal_.active) return;

  const util::ProcessSet target = alive(now);
  if (view_id_ > 0 && target == members_) return;  // nothing to change
  if (!target.is_majority_of(n_)) return;          // cannot form a view

  proposal_.view_id = view_id_ + 1;
  proposal_.members = target;
  proposal_.acks = util::ProcessSet({ep_.self()});
  proposal_.proposed_at = now;
  proposal_.active = true;

  util::ByteWriter w;
  w.u8(net::kind_byte(net::MsgKind::view_proposal));
  w.var_u64(proposal_.view_id);
  w.u64(proposal_.members.bits());
  w.var_i64(now);
  ep_.broadcast(std::move(w).take());
}

void HeartbeatMembership::install(std::uint64_t view_id,
                                  util::ProcessSet members) {
  if (view_id <= view_id_) return;
  view_id_ = view_id;
  members_ = members;
  proposal_ = ViewProposal{};
  ep_.trace(sim::TraceKind::view_installed, view_id, 0, members);
  if (on_view_) on_view_(view_id, members);
}

void HeartbeatMembership::handle_heartbeat(ProcessId from,
                                           util::ByteReader& r) {
  (void)r.var_u64();  // peer view id
  (void)r.var_i64();  // peer clock
  last_heard_[from] = ep_.hw_now();
}

void HeartbeatMembership::handle_proposal(ProcessId from,
                                          util::ByteReader& r) {
  last_heard_[from] = ep_.hw_now();
  const std::uint64_t view_id = r.var_u64();
  const util::ProcessSet members(r.u64());
  (void)r.var_i64();
  if (view_id <= view_id_) return;
  if (!members.contains(ep_.self())) return;  // not our view
  util::ByteWriter w;
  w.u8(net::kind_byte(net::MsgKind::view_ack));
  w.var_u64(view_id);
  ep_.send(from, std::move(w).take());
}

void HeartbeatMembership::handle_ack(ProcessId from, util::ByteReader& r) {
  last_heard_[from] = ep_.hw_now();
  const std::uint64_t view_id = r.var_u64();
  if (!proposal_.active || view_id != proposal_.view_id) return;
  proposal_.acks.insert(from);
  if (!proposal_.acks.is_majority_of(n_)) return;
  // Commit.
  util::ByteWriter w;
  w.u8(net::kind_byte(net::MsgKind::view_commit));
  w.var_u64(proposal_.view_id);
  w.u64(proposal_.members.bits());
  ep_.broadcast(std::move(w).take());
  install(proposal_.view_id, proposal_.members);
}

void HeartbeatMembership::handle_commit(ProcessId from,
                                        util::ByteReader& r) {
  last_heard_[from] = ep_.hw_now();
  const std::uint64_t view_id = r.var_u64();
  const util::ProcessSet members(r.u64());
  if (members.contains(ep_.self())) install(view_id, members);
}

void HeartbeatMembership::on_datagram(ProcessId from,
                                      std::span<const std::byte> data) {
  if (data.empty()) return;
  util::ByteReader r(data);
  try {
    switch (static_cast<net::MsgKind>(r.u8())) {
      case net::MsgKind::heartbeat: handle_heartbeat(from, r); break;
      case net::MsgKind::view_proposal: handle_proposal(from, r); break;
      case net::MsgKind::view_ack: handle_ack(from, r); break;
      case net::MsgKind::view_commit: handle_commit(from, r); break;
      default: break;
    }
  } catch (const util::DecodeError&) {
    // Malformed datagram: drop.
  }
}

}  // namespace tw::baseline
