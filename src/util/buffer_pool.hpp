// A freelist of reusable byte buffers backing the zero-copy wire codec.
//
// Every message encode used to allocate a fresh std::vector and every
// broadcast copied it once per receiver; with the pool a buffer cycles
// encode → transport → (delivery) → release → next encode, so a warmed-up
// hot path performs no heap allocation per message at all. The pool is
// thread-local (BufferPool::local()): the discrete-event simulator runs on
// one thread and each UDP endpoint owns one event-loop thread, so no locks
// are needed and buffers never migrate between threads.
//
// Both transports export the stats as "util.pool.*" metrics
// (export_local_stats); `allocs` is the counting-allocator hook the
// throughput bench divides by messages sent to get allocs/msg.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace tw::util {

class BufferPool {
 public:
  struct Stats {
    std::uint64_t acquires = 0;  ///< buffers handed out
    std::uint64_t reuses = 0;    ///< served from the freelist (no heap)
    std::uint64_t allocs = 0;    ///< heap allocations (miss or growth)
    std::uint64_t releases = 0;  ///< buffers returned
    std::uint64_t discards = 0;  ///< returned but dropped (full / oversize)
  };

  /// An empty buffer, reusing a freed one's capacity when available.
  [[nodiscard]] std::vector<std::byte> acquire();

  /// Return a buffer for reuse. Oversized buffers and returns beyond the
  /// freelist bound are dropped so one huge message can't pin memory.
  void release(std::vector<std::byte>&& buf);

  /// Called by the pooled ByteWriter when a buffer's capacity grew while
  /// it was out — i.e. the pooled capacity did not suffice and the message
  /// paid at least one real heap allocation.
  void note_alloc() { ++stats_.allocs; }

  [[nodiscard]] const Stats& stats() const { return stats_; }
  void reset_stats() { stats_ = Stats{}; }

  /// Capacity currently idling in the freelist (exported as
  /// util.pool.retained_bytes — how much memory the pool is pinning).
  [[nodiscard]] std::size_t retained_bytes() const { return retained_bytes_; }

  /// Disabled, acquire() always misses and release() always discards —
  /// the pre-pool allocation behavior, used as the bench baseline.
  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// This thread's pool. Both transports and all message codecs use it.
  static BufferPool& local();

  /// Metrics pull source: this thread's pool as util.pool.<Stats field>
  /// plus util.pool.retained_bytes. Stats are per-thread and
  /// process-cumulative; diff two snapshots to meter one run.
  static void export_local_stats(std::map<std::string, std::uint64_t>& out);

 private:
  static constexpr std::size_t kMaxFree = 64;
  static constexpr std::size_t kMaxRetainBytes = 64 * 1024;

  std::vector<std::vector<std::byte>> free_;
  Stats stats_;
  std::size_t retained_bytes_ = 0;  ///< sum of free_ capacities
  bool enabled_ = true;
};

}  // namespace tw::util
