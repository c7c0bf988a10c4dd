#include "util/buffer_pool.hpp"

#include <algorithm>
#include <utility>

namespace tw::util {

std::vector<std::byte> BufferPool::acquire() {
  ++stats_.acquires;
  if (enabled_ && !free_.empty()) {
    std::vector<std::byte> buf = std::move(free_.back());
    free_.pop_back();
    retained_bytes_ -= std::min(retained_bytes_, buf.capacity());
    buf.clear();  // keeps capacity
    ++stats_.reuses;
    return buf;
  }
  return {};
}

void BufferPool::release(std::vector<std::byte>&& buf) {
  ++stats_.releases;
  if (!enabled_ || free_.size() >= kMaxFree ||
      buf.capacity() > kMaxRetainBytes || buf.capacity() == 0) {
    ++stats_.discards;
    return;  // dropping `buf` frees it
  }
  buf.clear();
  retained_bytes_ += buf.capacity();
  free_.push_back(std::move(buf));
}

BufferPool& BufferPool::local() {
  thread_local BufferPool pool;
  return pool;
}

void BufferPool::export_local_stats(
    std::map<std::string, std::uint64_t>& out) {
  const BufferPool& pool = local();
  out["util.pool.acquires"] = pool.stats_.acquires;
  out["util.pool.reuses"] = pool.stats_.reuses;
  out["util.pool.allocs"] = pool.stats_.allocs;
  out["util.pool.releases"] = pool.stats_.releases;
  out["util.pool.discards"] = pool.stats_.discards;
  out["util.pool.retained_bytes"] = pool.retained_bytes_;
}

}  // namespace tw::util
