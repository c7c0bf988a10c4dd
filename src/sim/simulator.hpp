// The simulation kernel: virtual time plus the event queue plus the root RNG.
#pragma once

#include <cstdint>
#include <functional>

#include "sim/event_queue.hpp"
#include "sim/random.hpp"
#include "sim/time.hpp"
#include "util/assert.hpp"

namespace tw::sim {

class Simulator {
 public:
  explicit Simulator(std::uint64_t seed) : rng_(seed) {}

  [[nodiscard]] SimTime now() const { return now_; }
  Rng& rng() { return rng_; }

  EventId at(SimTime t, std::function<void()> fn) {
    TW_ASSERT_MSG(t >= now_, "cannot schedule into the past: t=" << t
                                                                 << " now="
                                                                 << now_);
    return queue_.schedule(t, std::move(fn));
  }

  EventId after(Duration d, std::function<void()> fn) {
    TW_ASSERT(d >= 0);
    return at(now_ + d, std::move(fn));
  }

  bool cancel(EventId id) { return queue_.cancel(id); }

  /// Run one event; returns false if none remain.
  bool step();

  /// Run events with timestamp <= t; leaves now() == t.
  void run_until(SimTime t);

  /// Run until the queue drains (or `max_events` fire, as a runaway guard).
  void run(std::uint64_t max_events = UINT64_MAX);

 private:
  SimTime now_ = 0;
  EventQueue queue_;
  Rng rng_;
};

}  // namespace tw::sim
