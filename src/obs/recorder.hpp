// Per-process observability scope: a trace ring, the process id, a clock
// source, the clock-sync correction last reported by the clocksync layer,
// and a pointer to the cluster-wide metrics registry.
//
// Every net::Endpoint can expose one (Endpoint::obs()); protocol layers
// emit through it without knowing which transport they run on. All calls
// happen on the owning process's event-loop thread (or inside the
// single-threaded simulator), matching TraceRing's threading contract.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace tw::obs {

class Recorder {
 public:
  /// `hw_now` supplies the process's hardware-clock reading used to stamp
  /// records; `registry` may be null (tracing without metrics).
  Recorder(std::uint32_t pid, std::function<std::int64_t()> hw_now,
           Registry* registry, std::size_t ring_capacity = 8192)
      : pid_(pid),
        hw_now_(std::move(hw_now)),
        registry_(registry),
        ring_(ring_capacity) {}

  void emit(EvKind kind, std::uint8_t arg = 0, std::uint64_t a = 0,
            std::uint64_t b = 0) {
    Event e;
    e.t = hw_now_();
    e.off = clock_correction_;
    e.p = pid_;
    e.kind = kind;
    e.arg = arg;
    e.a = a;
    e.b = b;
    ring_.emit(e);
  }

  /// The clock-sync service reports its current hardware→synchronized
  /// offset here; subsequent records carry it so cross-process merges can
  /// order by synchronized time.
  void set_clock_correction(std::int64_t off) { clock_correction_ = off; }

  [[nodiscard]] std::uint32_t pid() const { return pid_; }
  [[nodiscard]] TraceRing& ring() { return ring_; }
  [[nodiscard]] const TraceRing& ring() const { return ring_; }
  [[nodiscard]] Registry* registry() { return registry_; }
  [[nodiscard]] std::int64_t hw_now() const { return hw_now_(); }

 private:
  std::uint32_t pid_;
  std::function<std::int64_t()> hw_now_;
  Registry* registry_;
  TraceRing ring_;
  std::int64_t clock_correction_ = 0;
};

}  // namespace tw::obs
