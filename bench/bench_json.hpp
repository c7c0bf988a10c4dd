// Machine-readable benchmark reports — the "tw-bench-v1" JSON schema.
//
// A BenchReport is a flat list of named runs, each with a numeric `config`
// block (the knobs that produced the run) and a numeric `metrics` block
// (what was measured). The schema is deliberately numbers-only so that
// tools/benchdiff can parse it with a ~100-line JSON reader and compare
// any two reports without knowing the scenarios:
//
//   {
//     "schema": "tw-bench-v1",
//     "suite": "hot-path",
//     "runs": [
//       { "name": "throughput/n5/batch8/pool",
//         "config":  { "n": 5, "max_batch": 8, ... },
//         "metrics": { "msgs_per_sec": 61234.5, "bytes_per_msg": 61.0, ... } }
//     ]
//   }
//
// Metric-direction convention (relied on by benchdiff): rates (names ending
// in "_per_sec" or "_hz") and completed work ("delivered", "accepted") are
// higher-is-better; every other metric (bytes/allocs/datagrams per message,
// latency percentiles) is lower-is-better.
#pragma once

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace tw::bench {

/// One numeric key of a config or metrics block.
struct JsonField {
  std::string key;
  double value = 0.0;
};

struct BenchRun {
  /// Unique within the report; benchdiff matches runs across files by it.
  std::string name;
  std::vector<JsonField> config;
  std::vector<JsonField> metrics;
};

struct BenchReport {
  std::string suite;
  std::vector<BenchRun> runs;

  [[nodiscard]] std::string to_json() const;
  /// Write to_json() to `path`; returns false when the file can't be opened.
  bool write_file(const std::string& path) const;
};

namespace detail {

/// Shortest round-trippable representation: integers print bare, reals
/// with up to 17 significant digits (never as NaN/Inf — benchdiff treats
/// those as parse errors, so callers must not record them).
inline void json_number(std::ostringstream& os, double v) {
  char buf[32];
  if (v == static_cast<double>(static_cast<long long>(v)) && v > -1e15 &&
      v < 1e15) {
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof buf, "%.17g", v);
  }
  os << buf;
}

inline void json_object(std::ostringstream& os,
                        const std::vector<JsonField>& fields) {
  os << "{";
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i) os << ", ";
    os << '"' << fields[i].key << "\": ";
    json_number(os, fields[i].value);
  }
  os << "}";
}

}  // namespace detail

inline std::string BenchReport::to_json() const {
  std::ostringstream os;
  os << "{\n  \"schema\": \"tw-bench-v1\",\n  \"suite\": \"" << suite
     << "\",\n  \"runs\": [\n";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const BenchRun& r = runs[i];
    os << "    {\"name\": \"" << r.name << "\",\n     \"config\": ";
    detail::json_object(os, r.config);
    os << ",\n     \"metrics\": ";
    detail::json_object(os, r.metrics);
    os << "}" << (i + 1 < runs.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  return os.str();
}

inline bool BenchReport::write_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << to_json();
  return static_cast<bool>(out);
}

}  // namespace tw::bench
