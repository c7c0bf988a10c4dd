#include "common.hpp"

#include <sys/resource.h>

#include <cstring>
#include <limits>

namespace pb {

Micros process_cpu_us() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto us = [](const timeval& tv) {
    return static_cast<Micros>(tv.tv_sec) * kSec +
           static_cast<Micros>(tv.tv_usec);
  };
  return us(ru.ru_utime) + us(ru.ru_stime);
}

double percentile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Nearest rank: the smallest value with at least q of the samples at or
  // below it.
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(xs.size())));
  if (rank == 0) rank = 1;
  std::nth_element(xs.begin(), xs.begin() + static_cast<long>(rank - 1),
                   xs.end());
  return xs[rank - 1];
}

std::size_t samples_beyond(std::size_t n, double q) {
  if (n == 0) return 0;
  std::size_t rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  if (rank == 0) rank = 1;
  return n - rank;
}

double mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double s = 0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

Micros self_time(Micros start, Micros end,
                 std::vector<std::pair<Micros, Micros>> children) {
  if (end <= start) return 0;
  std::sort(children.begin(), children.end());
  Micros covered = 0;
  Micros cursor = start;
  for (auto [s, e] : children) {
    s = std::max(s, cursor);
    e = std::min(e, end);
    if (e <= s) continue;
    covered += e - s;
    cursor = e;
  }
  return (end - start) - covered;
}

bool step_passes(const StepOutcome& s, const LadderLimits& lim) {
  return !s.aborted && s.drained && s.offered > 0 &&
         s.p99_ms <= lim.p99_ms && s.failed_pct() <= lim.failed_pct;
}

double p99_with_failures(std::vector<double> latencies_ms,
                         std::size_t failed) {
  latencies_ms.insert(latencies_ms.end(), failed,
                      std::numeric_limits<double>::infinity());
  return percentile(std::move(latencies_ms), 0.99);
}

Micros outage(Micros t_crash,
              const std::vector<std::vector<std::pair<Micros, Micros>>>&
                  per_survivor) {
  if (per_survivor.empty()) return -1;
  Micros latest = t_crash;
  for (const auto& deliveries : per_survivor) {
    Micros first = -1;
    for (const auto& [due, at] : deliveries) {
      if (due < t_crash || at < t_crash) continue;
      if (first < 0 || at < first) first = at;
    }
    if (first < 0) return -1;
    latest = std::max(latest, first);
  }
  return latest - t_crash;
}

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::vector<std::byte> make_payload(std::uint64_t seed, std::uint64_t g) {
  std::vector<std::byte> p(kPayloadBytes);
  std::memcpy(p.data(), &g, sizeof g);
  std::uint64_t state = seed * 0x100000001b3ULL ^ g;
  for (std::size_t i = 8; i < kPayloadBytes; i += 8) {
    const std::uint64_t word = splitmix64(state);
    std::memcpy(p.data() + i, &word, sizeof word);
  }
  return p;
}

std::uint64_t payload_index(const std::vector<std::byte>& payload) {
  if (payload.size() < 8) return UINT64_MAX;
  std::uint64_t g = 0;
  std::memcpy(&g, payload.data(), sizeof g);
  return g;
}

bool payload_intact(std::uint64_t seed, const std::vector<std::byte>& p) {
  if (p.size() != kPayloadBytes) return false;
  return make_payload(seed, payload_index(p)) == p;
}

}  // namespace pb
