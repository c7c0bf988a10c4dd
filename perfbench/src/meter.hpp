// Per-member instrumentation, applied from outside the stack: a
// net::Endpoint wrapper (broadcast/send and the callbacks given to
// set_timer_*), a net::Handler wrapper (on_datagram), and span recording
// for the app callbacks and the benchmark's own calls into try_propose.
//
// A Meter belongs to one member and is only touched from that member's
// thread (its event-loop thread on UDP, the simulator thread otherwise);
// the benchmark moves its data out with a callback run on that thread.
#pragma once

#include <array>
#include <atomic>
#include <functional>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "bcast/types.hpp"
#include "common.hpp"
#include "net/transport.hpp"

namespace pb {

/// Update identity as one integer: proposer in the high bits, seq below.
inline std::uint64_t pid_key(const tw::bcast::ProposalId& id) {
  return (static_cast<std::uint64_t>(id.proposer) << 40) |
         static_cast<std::uint64_t>(id.seq);
}

enum class SpanName : std::uint8_t {
  recv_decision,
  recv_proposal,
  recv_batch,
  recv_clock,
  recv_other,
  timer,
  post,
  propose,
  send,
  deliver,
  view,
  capture,  ///< the benchmark decoding a datagram it saw go out
  count
};
inline constexpr std::size_t kSpanNames =
    static_cast<std::size_t>(SpanName::count);
const char* span_name(SpanName s);

struct SpanRec {
  Micros start = 0;
  Micros end = 0;
  std::int32_t parent = -1;  ///< index into the same member's log, -1 = root
  SpanName name = SpanName::count;
  std::uint64_t id = 0;      ///< pid_key of the update, 0 when not one
};

struct SpanAgg {
  std::uint64_t count = 0;
  double self_us = 0;
};

/// One offered update, as the generator saw it.
struct Offer {
  std::uint64_t g = 0;        ///< global update index (payload key)
  tw::ProcessId member = 0;   ///< proposer
  Micros due = 0;             ///< when the open loop scheduled it
  Micros posted = 0;          ///< when the generator handed it over
  Micros at = 0;              ///< when try_propose ran
  bool accepted = false;
  tw::bcast::ProposalId pid;
  double propose_us = 0;      ///< wall time inside try_propose
};

struct Delivery {
  std::uint64_t g = 0;
  tw::Ordinal ordinal = 0;
  tw::bcast::ProposalId pid;
  Micros at = 0;
  bool intact = false;
};

/// Everything one member measured since the last collection.
struct MeterData {
  std::vector<Offer> offers;
  std::vector<Delivery> deliveries;
  std::array<SpanAgg, kSpanNames> spans{};
  double root_us = 0;  ///< summed duration of root spans (loop-thread work)
  std::uint64_t send_calls = 0;
  std::uint64_t datagrams_out = 0;
  std::uint64_t bytes_out = 0;
  std::uint64_t datagrams_in = 0;
  std::array<std::uint64_t, 256> out_by_kind{};
  std::array<std::uint64_t, 256> bytes_by_kind{};
  std::uint64_t timer_fires = 0;
  std::vector<double> timer_late_us;
  std::vector<double> post_delay_us;
  /// First time (team time base) an update left on the wire / was bound.
  std::unordered_map<std::uint64_t, Micros> wire;
  std::unordered_map<std::uint64_t, Micros> bound;
  std::vector<Micros> decision_stamps;
  std::uint64_t oal_update_entries = 0;
  std::uint64_t decision_bytes = 0;
  std::size_t decision_bytes_max = 0;
  std::uint64_t proposal_bytes = 0;
  std::uint64_t proposals_on_wire = 0;
  std::uint64_t proposal_datagrams = 0;
  std::uint64_t decode_errors = 0;  ///< captured datagrams that did not decode
  std::vector<std::vector<std::byte>> captured_decisions;
  std::vector<SpanRec> span_log;
  Micros thread_cpu_us = 0;      ///< loop-thread CPU clock at collection
  std::int64_t voluntary_switches = 0;
};

class Meter {
 public:
  Meter(tw::ProcessId member, int team_size, std::function<Micros()> stamp,
        const std::atomic<bool>& tracing)
      : member_(member), team_(team_size), stamp_(std::move(stamp)),
        tracing_(tracing) {}

  [[nodiscard]] bool on() const {
    return tracing_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] Micros stamp() const { return stamp_(); }
  [[nodiscard]] tw::ProcessId member() const { return member_; }
  [[nodiscard]] int team_size() const { return team_; }

  void begin(SpanName name, std::uint64_t id = 0);
  void end();
  /// Give the innermost open span an update id learned inside it (the
  /// ProposalId try_propose returns).
  void tag(std::uint64_t id);

  /// Account one outbound datagram call and, while tracing, decode it to
  /// learn when each update first left and was first bound.
  void on_send(std::span<const std::byte> data, int copies);

  /// Hand over the data gathered so far and start afresh.
  MeterData take();

  MeterData data;

 private:
  struct Frame {
    SpanName name;
    Micros start;
    std::uint64_t id;
    std::int32_t log_index;
    std::vector<std::pair<Micros, Micros>> children;
  };

  tw::ProcessId member_;
  int team_;
  std::function<Micros()> stamp_;
  const std::atomic<bool>& tracing_;
  std::vector<Frame> stack_;
  std::size_t depth_ = 0;
};

/// RAII span that is a no-op while tracing is off.
class ScopedSpan {
 public:
  ScopedSpan(Meter& m, SpanName name, std::uint64_t id = 0)
      : m_(m.on() ? &m : nullptr) {
    if (m_ != nullptr) m_->begin(name, id);
  }
  ~ScopedSpan() {
    if (m_ != nullptr) m_->end();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Meter* m_;
};

/// Wraps the endpoint a node is given: times broadcast/send and every
/// timer callback, and counts what goes out.
class MeteredEndpoint final : public tw::net::Endpoint {
 public:
  MeteredEndpoint(tw::net::Endpoint& inner, Meter& m) : in_(inner), m_(m) {}

  [[nodiscard]] tw::ProcessId self() const override { return in_.self(); }
  [[nodiscard]] int team_size() const override { return in_.team_size(); }
  [[nodiscard]] tw::sim::ClockTime hw_now() const override {
    return in_.hw_now();
  }
  void broadcast(std::vector<std::byte> data) override;
  void send(tw::ProcessId to, std::vector<std::byte> data) override;
  tw::net::TimerId set_timer_at_hw(tw::sim::ClockTime target,
                                   std::function<void()> fn) override;
  tw::net::TimerId set_timer_after(tw::sim::Duration d,
                                   std::function<void()> fn) override;
  void cancel_timer(tw::net::TimerId id) override { in_.cancel_timer(id); }
  [[nodiscard]] tw::obs::Recorder* obs() override { return in_.obs(); }
  [[nodiscard]] std::string obs_scope() const override {
    return in_.obs_scope();
  }
  void trace(tw::sim::TraceKind kind, std::uint64_t a, std::uint64_t b,
             tw::util::ProcessSet set, std::string note) override {
    in_.trace(kind, a, b, set, std::move(note));
  }

 private:
  tw::net::Endpoint& in_;
  Meter& m_;
};

/// Wraps the handler bound to an endpoint: times on_datagram by kind.
class MeteredHandler final : public tw::net::Handler {
 public:
  MeteredHandler(tw::net::Handler& inner, Meter& m) : in_(inner), m_(m) {}
  void on_start() override { in_.on_start(); }
  void on_datagram(tw::ProcessId from,
                   std::span<const std::byte> data) override;

 private:
  tw::net::Handler& in_;
  Meter& m_;
};

}  // namespace pb
