#include "baseline/attendance_ring.hpp"

namespace tw::baseline {

namespace {
// Wire: [kind][tag u8] where tag 0 = announcement, 1 = token, 2 = commit.
constexpr std::uint8_t kAnnounce = 0;
constexpr std::uint8_t kToken = 1;
constexpr std::uint8_t kCommit = 2;

/// A member must forward the token within this after receiving it.
constexpr sim::Duration kHoldTime = sim::msec(25);
/// Token considered lost if silent for this long.
constexpr sim::Duration kTokenTimeout = sim::msec(150);
/// Announcement period during re-formation.
constexpr sim::Duration kAnnouncePeriod = sim::msec(30);
/// Announcements stay fresh for this long.
constexpr sim::Duration kAnnounceWindow = sim::msec(120);
}  // namespace

AttendanceRing::AttendanceRing(net::Endpoint& endpoint, ViewCallback on_view)
    : ep_(endpoint),
      on_view_(std::move(on_view)),
      n_(endpoint.team_size()) {
  announced_.resize(static_cast<std::size_t>(n_), -1);
}

void AttendanceRing::on_start() {
  view_id_ = 0;
  members_.clear();
  reforming_ = true;
  reformations_ = 0;
  last_token_seq_ = 0;
  last_token_time_ = -1;
  for (auto& t : announced_) t = -1;
  if (timer_ != net::kNoTimer) ep_.cancel_timer(timer_);
  if (hold_timer_ != net::kNoTimer) ep_.cancel_timer(hold_timer_);
  announce();
  watchdog();
}

void AttendanceRing::install(std::uint64_t view_id,
                             util::ProcessSet members) {
  if (view_id <= view_id_) return;
  view_id_ = view_id;
  members_ = members;
  reforming_ = false;
  last_token_time_ = ep_.hw_now();
  ep_.trace(sim::TraceKind::view_installed, view_id, 0, members);
  if (on_view_) on_view_(view_id, members);
  // The lowest-id member injects the first token.
  if (members_.min() == ep_.self()) forward_token_later(last_token_seq_ + 1);
}

void AttendanceRing::enter_reformation() {
  if (reforming_) return;
  reforming_ = true;
  ++reformations_;
  ep_.trace(sim::TraceKind::suspicion, kNoProcess);
  for (auto& t : announced_) t = -1;
  if (hold_timer_ != net::kNoTimer) {
    ep_.cancel_timer(hold_timer_);
    hold_timer_ = net::kNoTimer;
  }
  announce();
}

void AttendanceRing::announce() {
  util::ByteWriter w;
  w.u8(net::kind_byte(net::MsgKind::attendance_token));
  w.u8(kAnnounce);
  w.var_u64(view_id_);
  w.var_i64(ep_.hw_now());
  ep_.broadcast(std::move(w).take());
}

void AttendanceRing::watchdog() {
  timer_ = ep_.set_timer_after(kAnnouncePeriod, [this] { watchdog(); });
  const sim::ClockTime now = ep_.hw_now();
  if (!reforming_) {
    if (last_token_time_ >= 0 &&
        now - last_token_time_ > kTokenTimeout) {
      // Token lost: no diagnosis, no masking — full re-formation. This is
      // exactly the cost the timewheel's single-failure fast path avoids.
      enter_reformation();
    }
    return;
  }
  announce();
  // The lowest announced id commits once a majority has announced.
  util::ProcessSet present;
  present.insert(ep_.self());
  for (ProcessId q = 0; q < static_cast<ProcessId>(n_); ++q)
    if (q != ep_.self() && announced_[q] >= 0 &&
        now - announced_[q] <= kAnnounceWindow)
      present.insert(q);
  if (present.is_majority_of(n_) && present.min() == ep_.self()) {
    util::ByteWriter w;
    w.u8(net::kind_byte(net::MsgKind::attendance_token));
    w.u8(kCommit);
    w.var_u64(view_id_ + 1);
    w.u64(present.bits());
    ep_.broadcast(std::move(w).take());
    install(view_id_ + 1, present);
  }
}

void AttendanceRing::forward_token_later(std::uint64_t token_seq) {
  if (hold_timer_ != net::kNoTimer) ep_.cancel_timer(hold_timer_);
  hold_timer_ = ep_.set_timer_after(kHoldTime, [this, token_seq] {
    hold_timer_ = net::kNoTimer;
    if (reforming_ || !in_group()) return;
    util::ByteWriter w;
    w.u8(net::kind_byte(net::MsgKind::attendance_token));
    w.u8(kToken);
    w.var_u64(view_id_);
    w.var_u64(token_seq);
    // The token is logically addressed to the successor; we broadcast it
    // (UDP-broadcast medium) so every member can refresh its token timer.
    ep_.broadcast(std::move(w).take());
    last_token_seq_ = token_seq;
    last_token_time_ = ep_.hw_now();
  });
}

void AttendanceRing::on_datagram(ProcessId from,
                                 std::span<const std::byte> data) {
  if (data.size() < 2) return;
  util::ByteReader r(data);
  try {
    if (static_cast<net::MsgKind>(r.u8()) != net::MsgKind::attendance_token)
      return;
    const std::uint8_t tag = r.u8();
    switch (tag) {
      case kAnnounce: {
        const std::uint64_t peer_view = r.var_u64();
        (void)r.var_i64();
        announced_[from] = ep_.hw_now();
        // A member still announcing with a stale view id missed our commit;
        // resend it so it can catch up.
        if (!reforming_ && in_group() && members_.contains(from) &&
            peer_view < view_id_) {
          util::ByteWriter w;
          w.u8(net::kind_byte(net::MsgKind::attendance_token));
          w.u8(kCommit);
          w.var_u64(view_id_);
          w.u64(members_.bits());
          ep_.send(from, std::move(w).take());
        }
        break;
      }
      case kToken: {
        const std::uint64_t view_id = r.var_u64();
        const std::uint64_t seq = r.var_u64();
        if (view_id != view_id_ || reforming_) break;
        if (seq <= last_token_seq_) break;  // stale token
        last_token_seq_ = seq;
        last_token_time_ = ep_.hw_now();
        if (members_.successor_of(from) == ep_.self())
          forward_token_later(seq + 1);
        break;
      }
      case kCommit: {
        const std::uint64_t view_id = r.var_u64();
        const util::ProcessSet members(r.u64());
        if (members.contains(ep_.self())) install(view_id, members);
        break;
      }
      default:
        break;
    }
  } catch (const util::DecodeError&) {
  }
}

}  // namespace tw::baseline
