#include "sim/network.hpp"

#include <algorithm>
#include <utility>

#include "util/buffer_pool.hpp"
#include "util/crc32.hpp"

namespace tw::sim {

namespace {
std::uint8_t kind_of(const std::vector<std::byte>& payload) {
  return payload.empty() ? 0xff : static_cast<std::uint8_t>(payload[0]);
}

/// Wrap a sender's buffer for sharing across receivers; when the last
/// in-flight reference dies the buffer's capacity goes back to the codec
/// pool (the simulator is single-threaded, so the deleter runs on the
/// thread that owns the pool).
DatagramNetwork::Payload make_payload(std::vector<std::byte>&& bytes) {
  auto* raw = new std::vector<std::byte>(std::move(bytes));
  return DatagramNetwork::Payload(raw, [](const std::vector<std::byte>* p) {
    auto* owned = const_cast<std::vector<std::byte>*>(p);
    util::BufferPool::local().release(std::move(*owned));
    delete owned;
  });
}
}  // namespace

DatagramNetwork::DatagramNetwork(Simulator& simulator, ProcessService& procs,
                                 DelayModel delays)
    : sim_(simulator), procs_(procs), delays_(delays) {
  const auto n = static_cast<std::size_t>(procs.size());
  link_up_.assign(n, std::vector<bool>(n, true));
  stats_.sent_by_process.assign(n, 0);
}

bool DatagramNetwork::link_up(ProcessId from, ProcessId to) const {
  return link_up_[from][to];
}

void DatagramNetwork::set_link(ProcessId from, ProcessId to, bool up) {
  link_up_.at(from).at(to) = up;
}

void DatagramNetwork::set_partition(
    const std::vector<util::ProcessSet>& groups) {
  const auto n = static_cast<ProcessId>(procs_.size());
  auto group_of = [&](ProcessId p) -> int {
    for (std::size_t g = 0; g < groups.size(); ++g)
      if (groups[g].contains(p)) return static_cast<int>(g);
    return -1;  // not in any group: isolated
  };
  for (ProcessId a = 0; a < n; ++a)
    for (ProcessId b = 0; b < n; ++b) {
      const int ga = group_of(a), gb = group_of(b);
      link_up_[a][b] = (a == b) || (ga >= 0 && ga == gb);
    }
}

void DatagramNetwork::heal() {
  for (auto& row : link_up_) std::fill(row.begin(), row.end(), true);
}

void DatagramNetwork::arm_drop(ProcessId from, std::uint8_t kind,
                               util::ProcessSet to, int count) {
  rules_.push_back(Rule{from, kind, to, count, RuleAction::drop, 0});
}

void DatagramNetwork::arm_drop_message(ProcessId from, std::uint8_t kind,
                                       util::ProcessSet to, int count) {
  rules_.push_back(Rule{from, kind, to, count, RuleAction::drop_message, 0});
}

void DatagramNetwork::arm_delay(ProcessId from, std::uint8_t kind,
                                util::ProcessSet to, int count,
                                Duration extra) {
  TW_ASSERT(extra > 0);
  rules_.push_back(Rule{from, kind, to, count, RuleAction::delay, extra});
}

void DatagramNetwork::arm_duplicate(ProcessId from, std::uint8_t kind,
                                    util::ProcessSet to, int count) {
  rules_.push_back(Rule{from, kind, to, count, RuleAction::duplicate, 0});
}

void DatagramNetwork::arm_corrupt(ProcessId from, std::uint8_t kind,
                                  util::ProcessSet to, int count) {
  rules_.push_back(Rule{from, kind, to, count, RuleAction::corrupt, 0});
}

bool DatagramNetwork::copy_of_dropped(const Rule& r,
                                      const Payload& payload) const {
  return r.dropped != nullptr && r.dropped_at == sim_.now() &&
         *r.dropped == *payload;
}

DatagramNetwork::Rule* DatagramNetwork::match_rule(ProcessId from,
                                                   ProcessId to,
                                                   const Payload& payload) {
  const std::uint8_t kind = kind_of(*payload);
  for (auto& r : rules_) {
    if (r.from != from || r.kind != kind || !r.to.contains(to)) continue;
    if (copy_of_dropped(r, payload)) return &r;
    if (r.remaining > 0) {
      --r.remaining;
      if (r.action == RuleAction::drop_message) {
        r.dropped = payload;
        r.dropped_at = sim_.now();
      }
      return &r;
    }
  }
  // Garbage-collect exhausted rules occasionally (a message rule stays
  // while copies of its last drop may still be sent).
  while (!rules_.empty() && rules_.front().remaining <= 0 &&
         rules_.front().dropped_at != sim_.now())
    rules_.pop_front();
  return nullptr;
}

void DatagramNetwork::schedule_delivery(ProcessId from, ProcessId to,
                                        Payload payload, Duration delay,
                                        bool corrupt) {
  const std::uint8_t kind = kind_of(*payload);
  auto& kc = stats_.by_kind[kind];
  if (delay > delays_.delta) {
    ++stats_.total.late;
    ++kc.late;
  }
  if (corrupt && !payload->empty()) {
    // Corruption is the one case that must copy: the other in-flight
    // references to this buffer deliver intact bytes. Flip one byte with a
    // nonzero XOR: an error burst of < 32 bits, which CRC-32C is
    // guaranteed to detect — corruption degrades to omission.
    const std::uint32_t expected = util::crc32c(*payload);
    auto damaged = std::make_shared<std::vector<std::byte>>(*payload);
    const auto pos = static_cast<std::size_t>(sim_.rng().uniform_int(
        0, static_cast<std::int64_t>(damaged->size()) - 1));
    (*damaged)[pos] ^= static_cast<std::byte>(sim_.rng().uniform_int(1, 255));
    ++stats_.total.corrupted;
    ++kc.corrupted;
    sim_.at(sim_.now() + delay, [this, from, to, expected,
                                 damaged = std::move(damaged)] {
      auto& c = stats_.by_kind[kind_of(*damaged)];
      if (util::crc32c(*damaged) != expected) {
        ++stats_.total.dropped_corrupt;
        ++c.dropped_corrupt;
        if (drop_hook_)
          drop_hook_(from, to, kind_of(*damaged), DropCause::corrupt,
                     damaged->size());
        return;  // CRC rejection: never reaches the stack
      }
      ++stats_.total.delivered;
      ++c.delivered;
      procs_.deliver_datagram(to, from, std::move(damaged));
    });
    return;
  }
  sim_.at(sim_.now() + delay, [this, from, to, payload = std::move(payload)] {
    ++stats_.total.delivered;
    ++stats_.by_kind[kind_of(*payload)].delivered;
    procs_.deliver_datagram(to, from, payload);
  });
}

void DatagramNetwork::set_send_budget(std::size_t bytes_per_window,
                                      Duration window,
                                      ShedClassifier is_sheddable) {
  budget_bytes_ = bytes_per_window;
  budget_window_ = window;
  is_sheddable_ = std::move(is_sheddable);
  const auto n = static_cast<std::size_t>(procs_.size());
  budget_.assign(n, std::vector<BudgetWindow>(n));
}

void DatagramNetwork::transmit(ProcessId from, ProcessId to,
                               const Payload& payload) {
  const std::uint8_t kind = kind_of(*payload);
  auto& kc = stats_.by_kind[kind];
  ++stats_.total.sent;
  ++kc.sent;
  stats_.total.bytes_sent += payload->size();
  kc.bytes_sent += payload->size();
  ++stats_.sent_by_process[from];

  // Sender-side outbound cap: a bounded device queue refuses BEFORE the
  // network's failure model sees the frame. Data yields, control passes
  // (but still occupies the window — priority, not free capacity).
  if (budget_bytes_ > 0 && budget_window_ > 0) {
    BudgetWindow& w = budget_[from][to];
    if (sim_.now() - w.start >= budget_window_) {
      w.start = sim_.now();
      w.used = 0;
    }
    if (w.used + payload->size() > budget_bytes_ && is_sheddable_ &&
        is_sheddable_(*payload)) {
      ++stats_.total.dropped_backpressure;
      ++kc.dropped_backpressure;
      if (drop_hook_)
        drop_hook_(from, to, kind, DropCause::backpressure, payload->size());
      return;
    }
    w.used += payload->size();
  }

  if (!procs_.is_up(to)) {
    ++stats_.total.dropped_crashed;
    ++kc.dropped_crashed;
    if (drop_hook_)
      drop_hook_(from, to, kind, DropCause::crashed, payload->size());
    return;
  }
  if (!link_up(from, to)) {
    ++stats_.total.dropped_link;
    ++kc.dropped_link;
    if (drop_hook_)
      drop_hook_(from, to, kind, DropCause::link, payload->size());
    return;
  }
  Duration delay = 0;
  bool rule_duplicate = false;
  bool rule_corrupt = false;
  if (Rule* rule = match_rule(from, to, payload)) {
    switch (rule->action) {
      case RuleAction::drop:
      case RuleAction::drop_message:
        ++stats_.total.dropped_rule;
        ++kc.dropped_rule;
        if (drop_hook_)
          drop_hook_(from, to, kind, DropCause::rule, payload->size());
        return;
      case RuleAction::delay:
        delay = delays_.delta + rule->extra_delay;  // forced perf failure
        break;
      case RuleAction::duplicate:
        rule_duplicate = true;
        delay = delays_.sample(sim_.rng());
        break;
      case RuleAction::corrupt:
        rule_corrupt = true;
        delay = delays_.sample(sim_.rng());
        break;
    }
  } else {
    if (sim_.rng().chance(delays_.loss_prob)) {
      ++stats_.total.dropped_loss;
      ++kc.dropped_loss;
      if (drop_hook_)
        drop_hook_(from, to, kind, DropCause::loss, payload->size());
      return;
    }
    delay = delays_.sample(sim_.rng());
  }

  // Ambient fault model: bounded reordering pushes a timely datagram back
  // within δ, so it stays timely but can overtake/be overtaken.
  if (faults_.reorder_prob > 0.0 && delay < delays_.delta &&
      sim_.rng().chance(faults_.reorder_prob)) {
    delay += sim_.rng().uniform_int(1, delays_.delta - delay);
    ++stats_.total.reordered;
    ++kc.reordered;
  }
  const bool corrupt =
      rule_corrupt ||
      (faults_.corrupt_prob > 0.0 && sim_.rng().chance(faults_.corrupt_prob));
  schedule_delivery(from, to, payload, delay, corrupt);

  if (rule_duplicate ||
      (faults_.dup_prob > 0.0 && sim_.rng().chance(faults_.dup_prob))) {
    ++stats_.total.duplicated;
    ++kc.duplicated;
    schedule_delivery(from, to, payload, delays_.sample(sim_.rng()),
                      faults_.corrupt_prob > 0.0 &&
                          sim_.rng().chance(faults_.corrupt_prob));
  }
}

void DatagramNetwork::broadcast(ProcessId from,
                                std::vector<std::byte> payload) {
  const Payload shared = make_payload(std::move(payload));
  const auto n = static_cast<ProcessId>(procs_.size());
  for (ProcessId to = 0; to < n; ++to)
    if (to != from) transmit(from, to, shared);
}

void DatagramNetwork::send(ProcessId from, ProcessId to,
                           std::vector<std::byte> payload) {
  TW_ASSERT(to < static_cast<ProcessId>(procs_.size()) && to != from);
  transmit(from, to, make_payload(std::move(payload)));
}

}  // namespace tw::sim
