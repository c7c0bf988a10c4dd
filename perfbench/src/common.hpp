// Shared pieces of the timewheel benchmark: the arithmetic its metrics rest
// on (percentiles with sample counts, span self time, the ladder pass rule,
// the outage definition — all covered by --self-test), seeded payloads,
// and the metric sink every workload writes into.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace pb {

using Micros = std::int64_t;

inline constexpr Micros kMs = 1000;
inline constexpr Micros kSec = 1000 * 1000;

/// Wall clock in µs (steady, process-wide origin irrelevant).
inline Micros wall_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Process user+system CPU time in µs.
Micros process_cpu_us();

// --- arithmetic ----------------------------------------------------------

/// Nearest-rank percentile (q in [0,1]) of unsorted samples; 0 when empty.
double percentile(std::vector<double> xs, double q);

/// How many of n samples lie strictly beyond the nearest-rank q-percentile.
std::size_t samples_beyond(std::size_t n, double q);

double mean(const std::vector<double>& xs);

/// num / den, or 0 when there is nothing to divide by.
inline double per(double num, double den) { return den > 0 ? num / den : 0.0; }

/// A span's self time: its duration minus the part of [start, end) that
/// its child spans cover (children may overlap each other or stick out of
/// the parent; only the covered part inside the parent counts once).
Micros self_time(Micros start, Micros end,
                 std::vector<std::pair<Micros, Micros>> children);

/// One rung of an open-loop rate ladder.
struct StepOutcome {
  double rate = 0;            ///< offered updates per second
  std::size_t offered = 0;
  std::size_t failed = 0;     ///< refused + accepted-but-not-delivered
  double p99_ms = 0;          ///< failed updates count as infinitely late
  bool drained = false;       ///< backlog delivered within the drain bound
  bool aborted = false;       ///< wall-time or backlog cap hit

  [[nodiscard]] double failed_pct() const {
    return offered == 0 ? 100.0
                        : 100.0 * static_cast<double>(failed) /
                              static_cast<double>(offered);
  }
};

struct LadderLimits {
  double p99_ms = 50.0;
  double failed_pct = 1.0;
};

/// A step passes when it was not aborted, drained its backlog in time,
/// kept p99 within the limit and failed at most the allowed share.
bool step_passes(const StepOutcome& s, const LadderLimits& lim);

/// p99 of a step's latencies where each failed update counts as missing
/// every limit (an infinite latency).
double p99_with_failures(std::vector<double> latencies_ms,
                         std::size_t failed);

/// Time without service after a crash at `t_crash`: for every survivor,
/// the first delivery of an update that was due at or after the crash
/// (each survivor's list holds (due, delivered_at) pairs); the outage is
/// the latest of those first deliveries minus the crash time. Returns -1
/// when some survivor never delivered such an update.
Micros outage(Micros t_crash,
              const std::vector<std::vector<std::pair<Micros, Micros>>>&
                  per_survivor);

// --- payloads --------------------------------------------------------------

inline constexpr std::size_t kPayloadBytes = 64;

/// The 64-byte payload of update g under `seed`: g little-endian in the
/// first 8 bytes, then a seeded pseudo-random body, so any corruption or
/// mix-up is caught by regenerating it.
std::vector<std::byte> make_payload(std::uint64_t seed, std::uint64_t g);
/// The update index stored in a payload (UINT64_MAX if too short).
std::uint64_t payload_index(const std::vector<std::byte>& payload);
bool payload_intact(std::uint64_t seed, const std::vector<std::byte>& p);

std::uint64_t splitmix64(std::uint64_t& state);

// --- metric sink -----------------------------------------------------------

struct Metric {
  double value = 0;
  std::string unit;
};

/// Every number a run measured, by name. `note` lines explain values
/// (sample counts, spreads, dropped metrics) on the human-readable report.
struct Report {
  std::map<std::string, Metric> metrics;
  std::vector<std::string> notes;
  std::vector<std::string> check_failures;
  std::uint64_t attempted = 0;  ///< updates whose delivery was checked
  std::uint64_t failed = 0;     ///< updates that broke an output check

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void note(std::string s) { notes.push_back(std::move(s)); }
  void fail(std::string s) { check_failures.push_back(std::move(s)); }
};

/// Settings every workload gets from the command line.
struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;  ///< tiny run for --self-test
  std::string span_dir = ".bench_out";
};

void run_udp_steady(const RunArgs& args, Report& out);
void run_sim_steady(const RunArgs& args, Report& out);
void run_sim_crash_lossy(const RunArgs& args, Report& out);

/// Arithmetic self-tests; returns the number of failed checks.
int run_self_tests();

}  // namespace pb
