#include "gms/failure_detector.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"

namespace tw::gms {

AdaptiveDetectorPolicy::AdaptiveDetectorPolicy(int team_size, Params params)
    : params_(params) {
  peers_.resize(static_cast<std::size_t>(team_size));
}

void AdaptiveDetectorPolicy::observe(ProcessId from, sim::Duration gap) {
  ++streak_;
  if (backoff_ > 0 && streak_ % params_.decay_streak == 0) --backoff_;
  auto& p = peers_.at(from);
  const double sample = static_cast<double>(gap);
  if (p.samples == 0) {
    // Jacobson initialization: first sample seeds the estimate, half of it
    // seeds the deviation.
    p.srtt = sample;
    p.var = sample / 2.0;
  } else {
    const double err = sample - p.srtt;
    excess_ = std::max(excess_ * params_.excess_decay, err);
    p.srtt += params_.alpha * err;
    p.var += params_.beta * (std::abs(err) - p.var);
  }
  ++p.samples;
}

sim::Duration AdaptiveDetectorPolicy::timeout(ProcessId peer,
                                              sim::Duration floor,
                                              sim::Duration cap) const {
  const auto& p = peers_.at(peer);
  if (p.samples < params_.warmup || streak_ < params_.tighten_streak)
    return cap;
  const double margin = std::max(params_.margin_k * p.var, excess_);
  const double scaled =
      (p.srtt + margin) * static_cast<double>(1u << backoff_);
  if (scaled >= static_cast<double>(cap)) return cap;
  auto t = static_cast<sim::Duration>(scaled + 0.5);
  if (t < floor) t = floor;
  return t;
}

void AdaptiveDetectorPolicy::penalize(ProcessId) {
  streak_ = 0;
  if (backoff_ < params_.backoff_max) ++backoff_;
}

void AdaptiveDetectorPolicy::reset() {
  for (auto& p : peers_) p = PerPeer{};
  backoff_ = 0;
  streak_ = 0;
  excess_ = 0.0;
}

sim::Duration AdaptiveDetectorPolicy::estimate(ProcessId peer) const {
  const auto& p = peers_.at(peer);
  return p.samples == 0 ? -1 : static_cast<sim::Duration>(p.srtt);
}

namespace {
/// The default policy. It keeps no state, so every detector shares it.
FixedDetectorPolicy g_fixed_policy;
}  // namespace

FailureDetector::FailureDetector(ProcessId self, int team_size,
                                 sim::Duration slot_len)
    : self_(self), n_(team_size), slot_len_(slot_len),
      policy_(&g_fixed_policy) {
  peers_.resize(static_cast<std::size_t>(team_size));
}

void FailureDetector::set_policy(DetectorPolicy* policy) {
  policy_ = policy != nullptr ? policy : &g_fixed_policy;
}

void FailureDetector::reset() {
  for (auto& p : peers_) p = PerPeer{};
  clear_expectation();
  policy_->reset();
}

void FailureDetector::note_control(ProcessId from, sim::ClockTime send_ts,
                                   sim::ClockTime sync_now) {
  auto& p = peers_.at(from);
  // Ring-hop sample for the adaptive policy: the FIRST control message
  // satisfying the current expectation closes one surveillance hop. The
  // sample is sync_now - base_ts — arrival-side, exactly the quantity the
  // deadline bounds (deadline = base_ts + timeout, checked at receipt), so
  // the estimator sees transit delay and lateness, not just the sender's
  // cadence. Later messages from the same sender are ring traffic, not
  // hops.
  if (from == expected_ && send_ts > base_ts_ &&
      p.last_send_ts <= base_ts_ && sync_now > base_ts_)
    policy_->observe(from, sync_now - base_ts_);
  if (send_ts > p.last_send_ts) p.last_send_ts = send_ts;
  if (sync_now > p.last_recv_time) p.last_recv_time = sync_now;
}

bool FailureDetector::newer_than_seen(ProcessId from,
                                      sim::ClockTime send_ts) const {
  return send_ts > peers_.at(from).last_send_ts;
}

util::ProcessSet FailureDetector::alive_list(sim::ClockTime sync_now) const {
  util::ProcessSet alive;
  alive.insert(self_);
  const sim::Duration window = slot_len_ * n_;
  for (ProcessId q = 0; q < static_cast<ProcessId>(n_); ++q) {
    if (q == self_) continue;
    const auto& p = peers_[q];
    if (p.last_recv_time >= 0 && sync_now - p.last_recv_time <= window)
      alive.insert(q);
  }
  return alive;
}

void FailureDetector::note_peer_alive_list(ProcessId from,
                                           util::ProcessSet alive,
                                           sim::ClockTime sync_now) {
  auto& p = peers_.at(from);
  p.alive = alive;
  p.alive_recv_time = sync_now;
}

util::ProcessSet FailureDetector::peer_alive_list(ProcessId from) const {
  return peers_.at(from).alive;
}

sim::ClockTime FailureDetector::peer_alive_age(ProcessId from,
                                               sim::ClockTime sync_now) const {
  const auto& p = peers_.at(from);
  return p.alive_recv_time < 0 ? sim::kNever : sync_now - p.alive_recv_time;
}

void FailureDetector::expect(ProcessId sender, sim::ClockTime base_ts,
                             sim::ClockTime deadline) {
  TW_ASSERT(sender < static_cast<ProcessId>(n_));
  expected_ = sender;
  base_ts_ = base_ts;
  deadline_ = deadline;
}

void FailureDetector::clear_expectation() {
  expected_ = kNoProcess;
  base_ts_ = -1;
  deadline_ = -1;
}

bool FailureDetector::expectation_met() const {
  if (expected_ == kNoProcess) return false;
  return peers_[expected_].last_send_ts > base_ts_;
}

sim::ClockTime FailureDetector::last_ts_from(ProcessId q) const {
  return peers_.at(q).last_send_ts;
}

sim::Duration FailureDetector::surveillance_timeout(ProcessId sender,
                                                    sim::Duration floor,
                                                    sim::Duration cap) const {
  if (floor > cap) floor = cap;
  return std::clamp(policy_->timeout(sender, floor, cap), floor, cap);
}

void FailureDetector::note_expectation_timeout() {
  if (expected_ != kNoProcess) policy_->penalize(expected_);
}

}  // namespace tw::gms
