#include "meter.hpp"

#include "bcast/messages.hpp"
#include "net/msg_kind.hpp"
#include "util/bytes.hpp"

namespace pb {

namespace {

/// Spans kept per member for the span file; aggregates never stop.
constexpr std::size_t kSpanLogCap = 200000;
/// Decisions kept per member for the codec timing.
constexpr std::size_t kCapturedDecisionCap = 200;

SpanName recv_span(std::uint8_t kind) {
  using tw::net::MsgKind;
  switch (static_cast<MsgKind>(kind)) {
    case MsgKind::decision: return SpanName::recv_decision;
    case MsgKind::proposal: return SpanName::recv_proposal;
    case MsgKind::proposal_batch: return SpanName::recv_batch;
    case MsgKind::clocksync_request:
    case MsgKind::clocksync_reply: return SpanName::recv_clock;
    default: return SpanName::recv_other;
  }
}

}  // namespace

const char* span_name(SpanName s) {
  switch (s) {
    case SpanName::recv_decision: return "gms.on_datagram.decision";
    case SpanName::recv_proposal: return "gms.on_datagram.proposal";
    case SpanName::recv_batch: return "gms.on_datagram.proposal_batch";
    case SpanName::recv_clock: return "gms.on_datagram.clocksync";
    case SpanName::recv_other: return "gms.on_datagram.other";
    case SpanName::timer: return "gms.timer";
    case SpanName::post: return "evl.post";
    case SpanName::propose: return "gms.try_propose";
    case SpanName::send: return "net.send";
    case SpanName::deliver: return "app.deliver";
    case SpanName::view: return "app.view_change";
    case SpanName::capture: return "bench.capture";
    case SpanName::count: break;
  }
  return "?";
}

void Meter::begin(SpanName name, std::uint64_t id) {
  if (depth_ == stack_.size()) stack_.emplace_back();
  Frame& f = stack_[depth_];
  f.name = name;
  f.id = id;
  f.children.clear();
  f.log_index = -1;
  if (data.span_log.size() < kSpanLogCap) {
    f.log_index = static_cast<std::int32_t>(data.span_log.size());
    SpanRec rec;
    rec.name = name;
    rec.id = id;
    rec.parent = depth_ > 0 ? stack_[depth_ - 1].log_index : -1;
    data.span_log.push_back(rec);
  }
  ++depth_;
  f.start = wall_us();
}

void Meter::end() {
  const Micros now = wall_us();
  Frame& f = stack_[--depth_];
  const Micros self = self_time(f.start, now, std::move(f.children));
  f.children = {};
  SpanAgg& agg = data.spans[static_cast<std::size_t>(f.name)];
  ++agg.count;
  agg.self_us += static_cast<double>(self);
  if (depth_ > 0)
    stack_[depth_ - 1].children.emplace_back(f.start, now);
  else
    data.root_us += static_cast<double>(now - f.start);
  if (f.log_index >= 0 &&
      static_cast<std::size_t>(f.log_index) < data.span_log.size()) {
    SpanRec& rec = data.span_log[static_cast<std::size_t>(f.log_index)];
    rec.start = f.start;
    rec.end = now;
  }
}

void Meter::tag(std::uint64_t id) {
  if (depth_ == 0) return;
  Frame& f = stack_[depth_ - 1];
  f.id = id;
  if (f.log_index >= 0 &&
      static_cast<std::size_t>(f.log_index) < data.span_log.size())
    data.span_log[static_cast<std::size_t>(f.log_index)].id = id;
}

void Meter::on_send(std::span<const std::byte> bytes, int copies) {
  if (bytes.empty()) return;
  const auto kind = static_cast<std::uint8_t>(bytes[0]);
  const auto c = static_cast<std::uint64_t>(copies);
  ++data.send_calls;
  data.datagrams_out += c;
  data.bytes_out += bytes.size() * c;
  data.out_by_kind[kind] += c;
  data.bytes_by_kind[kind] += bytes.size() * c;

  using tw::net::MsgKind;
  const Micros t = stamp();
  ScopedSpan span(*this, SpanName::capture);
  tw::util::ByteReader r(bytes.subspan(1));
  try {
    switch (static_cast<MsgKind>(kind)) {
      case MsgKind::proposal: {
        const auto p = tw::bcast::decode_proposal(r);
        data.wire.try_emplace(pid_key(p.id), t);
        ++data.proposals_on_wire;
        ++data.proposal_datagrams;
        data.proposal_bytes += bytes.size();
        break;
      }
      case MsgKind::proposal_batch: {
        const auto ps = tw::bcast::decode_proposal_batch(r);
        for (const auto& p : ps) data.wire.try_emplace(pid_key(p.id), t);
        data.proposals_on_wire += ps.size();
        ++data.proposal_datagrams;
        data.proposal_bytes += bytes.size();
        break;
      }
      case MsgKind::decision: {
        const auto d = tw::bcast::Decision::decode(r);
        data.decision_stamps.push_back(t);
        data.decision_bytes += bytes.size();
        data.decision_bytes_max = std::max(data.decision_bytes_max,
                                           bytes.size());
        for (const auto& e : d.oal.entries()) {
          if (e.kind != tw::bcast::OalEntry::Kind::update) continue;
          ++data.oal_update_entries;
          data.bound.try_emplace(pid_key(e.pid), t);
        }
        if (data.captured_decisions.size() < kCapturedDecisionCap)
          data.captured_decisions.emplace_back(bytes.begin(), bytes.end());
        break;
      }
      default:
        break;
    }
  } catch (const std::exception&) {
    ++data.decode_errors;
  }
}

MeterData Meter::take() {
  MeterData out = std::move(data);
  data = MeterData{};
  // Spans still open keep their frames; they just stop being logged.
  for (std::size_t i = 0; i < depth_; ++i) stack_[i].log_index = -1;
  return out;
}

void MeteredEndpoint::broadcast(std::vector<std::byte> data) {
  if (!m_.on()) {
    in_.broadcast(std::move(data));
    return;
  }
  m_.on_send(data, in_.team_size() - 1);
  ScopedSpan span(m_, SpanName::send);
  in_.broadcast(std::move(data));
}

void MeteredEndpoint::send(tw::ProcessId to, std::vector<std::byte> data) {
  if (!m_.on()) {
    in_.send(to, std::move(data));
    return;
  }
  m_.on_send(data, 1);
  ScopedSpan span(m_, SpanName::send);
  in_.send(to, std::move(data));
}

tw::net::TimerId MeteredEndpoint::set_timer_at_hw(tw::sim::ClockTime target,
                                                  std::function<void()> fn) {
  return in_.set_timer_at_hw(
      target, [this, target, fn = std::move(fn)] {
        if (m_.on()) {
          ++m_.data.timer_fires;
          m_.data.timer_late_us.push_back(
              static_cast<double>(in_.hw_now() - target));
        }
        ScopedSpan span(m_, SpanName::timer);
        fn();
      });
}

tw::net::TimerId MeteredEndpoint::set_timer_after(tw::sim::Duration d,
                                                  std::function<void()> fn) {
  const tw::sim::ClockTime target = in_.hw_now() + d;
  return in_.set_timer_after(d, [this, target, fn = std::move(fn)] {
    if (m_.on()) {
      ++m_.data.timer_fires;
      m_.data.timer_late_us.push_back(
          static_cast<double>(in_.hw_now() - target));
    }
    ScopedSpan span(m_, SpanName::timer);
    fn();
  });
}

void MeteredHandler::on_datagram(tw::ProcessId from,
                                 std::span<const std::byte> data) {
  if (!m_.on() || data.empty()) {
    in_.on_datagram(from, data);
    return;
  }
  ++m_.data.datagrams_in;
  ScopedSpan span(m_, recv_span(static_cast<std::uint8_t>(data[0])));
  in_.on_datagram(from, data);
}

}  // namespace pb
