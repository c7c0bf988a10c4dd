// The timer store the repo is named after: a hashed hierarchical timer
// wheel (4 levels × 256 slots at a 2^7 µs = 128 µs base tick), giving O(1)
// arm / cancel / re-arm at millions of concurrent timers.
//
// The protocol workload is arm/cancel churn: every proposer retransmit,
// FIFO gap-grace, rejoin backoff and failure-detection deadline is a timer
// that is usually cancelled before it fires. A binary heap pays O(log n)
// per arm plus a tombstone per cancel (see sim::EventQueue); the wheel pays
// a freelist pop and a doubly-linked-list splice for either operation.
//
// Layout. Deadlines are quantized to ticks of 2^kTickShift µs (rounded UP,
// so a timer never fires before its deadline). Level L holds timers due in
// [256^L, 256^(L+1)) ticks; a timer's slot within a level is addressed by
// bits [8L, 8L+8) of its absolute expiry tick, exactly like the classic
// hashed wheel, so a slot needs no sorting. Level 0 spans ~32.8 ms, level 1
// ~8.4 s, level 2 ~35.8 min, level 3 ~6.4 days; anything farther parks in
// the farthest level-3 slot and re-cascades until it fits.
//
// The tick is a constant chosen from measurement, not a parameter. The
// socket path's hottest timers are the proposal batch flush (armed for
// now on an idle member, at most 1 ms out on a busy one) and the 2 ms
// decision deadline; at a 1024 µs tick each fired up to a tick late
// (DESIGN.md §2b has the measurement). At 128 µs the lateness is a small
// fraction of either delay, and a finer tick would have little left to win
// and would double the cascades again.
//
// Cascading is lazy: nothing moves until advance time. When the level-0
// hand wraps, the next level-1 slot is cascaded down (and transitively up
// the hierarchy when those hands wrap), re-hashing each timer into its
// lower-level home. Each timer cascades at most kLevels-1 times in its
// whole life, so the amortized cost per timer stays O(1).
//
// Advancing does not step tick-by-tick: per-level occupancy bitmaps
// (4 × 256 bits) let the wheel jump straight to the next tick where
// anything happens — a populated level-0 slot or a cascade boundary of a
// populated higher slot — so a loop that slept for seconds (or a timer 50
// days out) costs O(events), not O(elapsed ticks).
//
// Handles are generation-tagged: an EventId packs (generation << 32 |
// pool index + 1), and cancel/reschedule verify the generation, so a
// handle kept across the timer's death can never cancel an unrelated
// timer that recycled the same pool slot.
//
// The discrete-event simulator keeps sim::EventQueue: it needs exact
// timestamp ordering for determinism, and its timer counts are tiny. The
// wheel trades ≤1 tick (128 µs) of quantized lateness for throughput — the
// right trade for the real EventLoop, not for the simulator.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "sim/event_queue.hpp"  // sim::EventId, sim::kNoEvent
#include "sim/time.hpp"

namespace tw::evl {

class TimerWheel {
 public:
  static constexpr int kLevels = 4;
  static constexpr int kSlotBits = 8;
  static constexpr std::uint64_t kSlots = 1u << kSlotBits;  // 256
  static constexpr int kTickShift = 7;  // 1 tick = 128 µs
  static constexpr std::int64_t kTickUs = std::int64_t{1} << kTickShift;
  /// Horizon in ticks: deltas beyond this park in the last level-3 slot.
  static constexpr std::uint64_t kMaxDelta =
      (std::uint64_t{1} << (kSlotBits * kLevels)) - 1;

  /// `origin_us` anchors tick 0; pass the clock reading at construction
  /// (deadlines earlier than the origin are treated as due immediately).
  explicit TimerWheel(std::int64_t origin_us = 0);

  /// Arm `fn` for `deadline_us`. O(1). The returned handle is valid until
  /// the timer fires or is cancelled; it is never sim::kNoEvent.
  sim::EventId schedule(std::int64_t deadline_us, std::function<void()> fn);

  /// Disarm. O(1). Returns false when the handle is stale: the timer
  /// already fired, was already cancelled, or the pool slot was recycled
  /// (the generation tag catches that case).
  bool cancel(sim::EventId id);

  /// Move a pending timer to a new deadline, keeping its handle. O(1).
  /// Returns false on a stale handle.
  bool reschedule(sim::EventId id, std::int64_t deadline_us);

  [[nodiscard]] bool empty() const { return live_ == 0; }
  [[nodiscard]] std::size_t size() const { return live_; }

  /// Earliest instant at which pop_due() can next yield a timer: the exact
  /// fire time when it is already expired or parked in level 0, otherwise
  /// the cascade boundary that moves it closer (a lower bound on its fire
  /// time — re-poll after cascading). sim::kNever when empty.
  [[nodiscard]] std::int64_t next_time() const;

  struct Fired {
    sim::EventId id = sim::kNoEvent;
    std::int64_t deadline = 0;  ///< effective deadline (≥ arm-time clamp)
    std::function<void()> fn;
  };

  /// Pop one timer whose quantized deadline is ≤ `now_us`, advancing the
  /// wheel (draining slots, cascading levels) as far as `now_us` requires.
  /// Same-tick timers pop in schedule (FIFO) order. std::nullopt when
  /// nothing is due.
  std::optional<Fired> pop_due(std::int64_t now_us);

  /// Occupancy / traffic counters for obs export. Monotone except size_*.
  struct Stats {
    std::uint64_t scheduled = 0;       ///< schedule() calls
    std::uint64_t cancelled = 0;       ///< successful cancel() calls
    std::uint64_t rescheduled = 0;     ///< successful reschedule() calls
    std::uint64_t fired = 0;           ///< timers returned by pop_due()
    std::uint64_t cascades = 0;        ///< slot-cascade operations
    std::uint64_t cascaded_timers = 0; ///< timers re-hashed by cascades
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }
  /// Live timers currently parked at `level` (0..kLevels-1).
  [[nodiscard]] std::size_t level_size(int level) const;
  /// Live timers already expired and waiting in the ready queue.
  [[nodiscard]] std::size_t ready_size() const { return ready_count_; }
  /// Pool capacity (== high-water mark of concurrent timers). For tests.
  [[nodiscard]] std::size_t allocated_nodes() const { return pool_.size(); }

 private:
  static constexpr std::uint32_t kNil = UINT32_MAX;
  static constexpr std::int32_t kBucketFree = -1;
  static constexpr std::int32_t kBucketReady = -2;

  struct Node {
    std::int64_t deadline = 0;       ///< effective deadline, µs
    std::uint64_t expiry_tick = 0;   ///< ceil((deadline - origin) / tick)
    std::uint32_t gen = 1;
    std::uint32_t prev = kNil;
    std::uint32_t next = kNil;
    /// level * kSlots + slot, kBucketReady, or kBucketFree (on freelist).
    std::int32_t bucket = kBucketFree;
    std::function<void()> fn;
  };

  struct List {
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
  };

  [[nodiscard]] std::uint64_t tick_of(std::int64_t deadline_us) const;
  [[nodiscard]] Node* decode(sim::EventId id);

  std::uint32_t alloc_node();
  void free_node(std::uint32_t idx);

  void push_back(List& list, std::int32_t bucket, std::uint32_t idx);
  void unlink(std::uint32_t idx);

  /// Hash a node into the level/slot its expiry tick calls for (or the
  /// ready queue when already due). The node must be unlinked.
  void place(std::uint32_t idx);

  /// Move every timer in (level, slot) down the hierarchy.
  void cascade(int level, std::uint64_t slot);

  /// Advance the hand to `target_tick`, draining due slots into the ready
  /// queue and cascading at level boundaries, jumping over dead air.
  void advance_to(std::uint64_t target_tick);

  /// Next tick > current_tick_ at which a slot drains or a populated slot
  /// cascades; UINT64_MAX when every wheel level is empty.
  [[nodiscard]] std::uint64_t next_busy_tick() const;

  void bitmap_set(int level, std::uint64_t slot);
  void bitmap_clear(int level, std::uint64_t slot);

  std::int64_t origin_us_;
  std::uint64_t current_tick_ = 0;

  std::vector<Node> pool_;
  std::uint32_t free_head_ = kNil;

  List lists_[kLevels * kSlots];
  List ready_;
  std::size_t ready_count_ = 0;
  std::size_t level_count_[kLevels] = {0, 0, 0, 0};
  /// Per-level slot-occupancy bitmap: bit s of word s/64 ⇔ slot s nonempty.
  std::uint64_t bitmap_[kLevels][kSlots / 64] = {};

  std::size_t live_ = 0;
  Stats stats_;
};

}  // namespace tw::evl
