#include "clocksync/clock_sync.hpp"

#include <algorithm>
#include <cmath>

#include "obs/recorder.hpp"
#include "util/assert.hpp"
#include "util/buffer_pool.hpp"
#include "util/logging.hpp"

namespace tw::csync {

namespace {
/// Interval between a process's clock-reading rounds.
constexpr sim::Duration kRoundPeriod = sim::msec(250);
}  // namespace

sim::Duration Config::epsilon() const {
  // Max accepted reading error: rtt/2 − min_delay with rtt ≤ 2δ, i.e.
  // δ − min_delay; plus drift accumulated over a full lease on both sides.
  const auto drift_slop = static_cast<sim::Duration>(
      std::ceil(2.0 * rho * static_cast<double>(lease)));
  return 2 * (delta - min_delay) + drift_slop;
}

ClockSync::ClockSync(net::Endpoint& endpoint, Config cfg,
                     std::function<void(bool)> on_sync_change)
    : ep_(endpoint), cfg_(cfg), on_sync_change_(std::move(on_sync_change)) {
  readings_.resize(static_cast<std::size_t>(ep_.team_size()));
}

void ClockSync::start() {
  stop();
  running_ = true;
  for (auto& r : readings_) r = Reading{};
  synchronized_ = cfg_.perfect;
  median_offset_ = 0;
  last_returned_ = INT64_MIN;
  if (!cfg_.perfect) run_round();
}

void ClockSync::stop() {
  if (round_timer_ != net::kNoTimer) {
    ep_.cancel_timer(round_timer_);
    round_timer_ = net::kNoTimer;
  }
  running_ = false;
}

void ClockSync::send_request() {
  util::ByteWriter w(util::BufferPool::local());
  w.u8(net::kind_byte(net::MsgKind::clocksync_request));
  w.u32(++round_);
  w.var_i64(ep_.hw_now());
  ep_.broadcast(std::move(w).take());
}

void ClockSync::run_round() {
  if (!running_) return;
  // Record the outcome of the window that just elapsed before starting the
  // next one: synchronized?, fresh remote readings, current median offset.
  refresh(ep_.hw_now());
  if (auto* rec = ep_.obs()) {
    int fresh = 0;
    for (ProcessId q = 0; q < readings_.size(); ++q)
      if (q != ep_.self() && readings_[q].fresh) ++fresh;
    rec->emit(obs::EvKind::clock_round, synchronized_ ? 1 : 0,
              static_cast<std::uint64_t>(fresh),
              static_cast<std::uint64_t>(median_offset_));
  }
  send_request();
  round_timer_ = ep_.set_timer_after(kRoundPeriod, [this] { run_round(); });
}

void ClockSync::on_datagram(ProcessId from, net::MsgKind kind,
                            util::ByteReader& body) {
  if (!running_ || cfg_.perfect) return;
  switch (kind) {
    case net::MsgKind::clocksync_request: {
      const std::uint32_t round = body.u32();
      const sim::ClockTime t1 = body.var_i64();
      util::ByteWriter w(util::BufferPool::local());
      w.u8(net::kind_byte(net::MsgKind::clocksync_reply));
      w.u32(round);
      w.var_i64(t1);
      w.var_i64(ep_.hw_now());
      ep_.send(from, std::move(w).take());
      break;
    }
    case net::MsgKind::clocksync_reply: {
      const std::uint32_t round = body.u32();
      const sim::ClockTime t1 = body.var_i64();
      const sim::ClockTime t2 = body.var_i64();
      if (round != round_) return;  // stale round
      const sim::ClockTime t3 = ep_.hw_now();
      const sim::Duration rtt = t3 - t1;
      if (rtt < 0 || rtt > 2 * cfg_.delta) {
        // Fail-aware rejection: the round trip was not timely, so the
        // reading error is unbounded. Discard.
        return;
      }
      readings_.at(from) = Reading{t2 + rtt / 2 - t3,
                                   rtt / 2 - cfg_.min_delay, t3, true};
      refresh(t3);
      break;
    }
    default:
      break;
  }
}

bool ClockSync::bounded(const Reading& r, sim::ClockTime hw) const {
  if (r.fresh) return true;
  if (r.taken_hw < 0) return false;
  // The two hardware clocks drift apart by at most 2ρ per unit of time
  // since the reading was taken.
  const auto drift = static_cast<sim::Duration>(std::ceil(
      2.0 * cfg_.rho * static_cast<double>(hw - r.taken_hw)));
  return r.error + drift <= cfg_.epsilon() / 2;
}

void ClockSync::refresh(sim::ClockTime hw) {
  // Fail-awareness counts unexpired readings only; the clock's value is the
  // median over every reading whose error is still bounded, so a member
  // whose reading expires keeps its place in every survivor's median.
  int fresh = 1;  // own clock, error 0
  std::vector<sim::Duration> offsets;
  offsets.push_back(0);
  for (ProcessId q = 0; q < readings_.size(); ++q) {
    if (q == ep_.self()) continue;
    Reading& r = readings_[q];
    if (r.fresh && hw - r.taken_hw > cfg_.lease) r.fresh = false;
    if (r.fresh) ++fresh;
    if (bounded(r, hw)) offsets.push_back(r.offset);
  }

  const bool have_majority = 2 * fresh > ep_.team_size();
  const bool was = synchronized_;
  synchronized_ = have_majority;
  if (synchronized_) {
    std::nth_element(offsets.begin(),
                     offsets.begin() + static_cast<std::ptrdiff_t>(
                                           offsets.size() / 2),
                     offsets.end());
    median_offset_ = offsets[offsets.size() / 2];
  }
  if (auto* rec = ep_.obs()) {
    // Subsequent trace records carry this correction, so cross-process
    // timeline merges order by the synchronized-clock estimate.
    if (synchronized_) rec->set_clock_correction(median_offset_);
    if (was != synchronized_)
      rec->emit(synchronized_ ? obs::EvKind::clock_sync_gained
                              : obs::EvKind::clock_sync_lost);
  }
  if (was != synchronized_) {
    ep_.trace(synchronized_ ? sim::TraceKind::clock_sync_regained
                            : sim::TraceKind::clock_sync_lost);
    if (on_sync_change_) on_sync_change_(synchronized_);
  }
}

std::optional<sim::ClockTime> ClockSync::now() {
  const sim::ClockTime hw = ep_.hw_now();
  if (cfg_.perfect) return hw;
  refresh(hw);
  if (!synchronized_) return std::nullopt;
  // Monotonic clamp: resynchronization may nudge the offset backwards; the
  // slot bookkeeping above us assumes clock readings never run backwards.
  const sim::ClockTime value = std::max(hw + median_offset_, last_returned_);
  last_returned_ = value;
  return value;
}

bool ClockSync::synchronized() {
  if (cfg_.perfect) return true;
  refresh(ep_.hw_now());
  return synchronized_;
}

sim::Duration ClockSync::current_offset() {
  return cfg_.perfect ? 0 : median_offset_;
}

int ClockSync::fresh_readings() {
  refresh(ep_.hw_now());
  int n = 0;
  for (ProcessId q = 0; q < readings_.size(); ++q)
    if (q != ep_.self() && readings_[q].fresh) ++n;
  return n;
}

}  // namespace tw::csync
