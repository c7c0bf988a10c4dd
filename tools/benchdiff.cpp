// benchdiff — compare two tw-bench-v1 JSON reports and flag regressions.
//
//   benchdiff BASE.json NEW.json [--threshold PCT] [--ignore METRIC]...
//
// Runs are matched across the two files by their "name"; metrics present
// in both are compared using the schema's direction convention: rates
// (names ending in "_per_sec" or "_hz") and completed work ("delivered",
// "accepted") are higher-is-better, everything else (bytes/msg,
// allocs/msg, latency percentiles, failure counts) is lower-is-better.
// A metric that moves in the bad direction by more than the threshold
// (default 5%) is a regression. `--ignore` excludes a metric by name —
// CI uses it for wall-clock msgs_per_sec, which is not comparable between
// a committed baseline and a different host.
//
// Exit status: 0 = no regressions, 1 = at least one, 2 = usage/parse error.
//
// The parser below handles exactly the JSON subset bench_json.hpp emits
// (objects, arrays, strings without escapes, plain numbers) so the tool
// stays dependency-free.
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace {

struct Run {
  std::string name;
  std::map<std::string, double> config;
  std::map<std::string, double> metrics;
};

struct Report {
  std::string suite;
  std::vector<Run> runs;
};

// --- minimal JSON reader -------------------------------------------------

class Parser {
 public:
  explicit Parser(const std::string& text) : s_(text) {}

  bool parse_report(Report& out) {
    if (!expect('{')) return false;
    while (!at('}')) {
      std::string key;
      if (!string(key) || !expect(':')) return false;
      if (key == "schema") {
        std::string schema;
        if (!string(schema)) return false;
        if (schema != "tw-bench-v1") return fail("unknown schema " + schema);
      } else if (key == "suite") {
        if (!string(out.suite)) return false;
      } else if (key == "runs") {
        if (!runs(out.runs)) return false;
      } else {
        return fail("unexpected key " + key);
      }
      if (!comma_or('}')) return false;
    }
    return expect('}');
  }

  [[nodiscard]] const std::string& error() const { return err_; }

 private:
  bool runs(std::vector<Run>& out) {
    if (!expect('[')) return false;
    while (!at(']')) {
      Run r;
      if (!expect('{')) return false;
      while (!at('}')) {
        std::string key;
        if (!string(key) || !expect(':')) return false;
        if (key == "name") {
          if (!string(r.name)) return false;
        } else if (key == "config") {
          if (!number_object(r.config)) return false;
        } else if (key == "metrics") {
          if (!number_object(r.metrics)) return false;
        } else {
          return fail("unexpected run key " + key);
        }
        if (!comma_or('}')) return false;
      }
      if (!expect('}')) return false;
      out.push_back(std::move(r));
      if (!comma_or(']')) return false;
    }
    return expect(']');
  }

  bool number_object(std::map<std::string, double>& out) {
    if (!expect('{')) return false;
    while (!at('}')) {
      std::string key;
      double v = 0;
      if (!string(key) || !expect(':') || !number(v)) return false;
      out[key] = v;
      if (!comma_or('}')) return false;
    }
    return expect('}');
  }

  bool string(std::string& out) {
    if (!expect('"')) return false;
    out.clear();
    while (i_ < s_.size() && s_[i_] != '"') {
      if (s_[i_] == '\\') return fail("escapes unsupported");
      out.push_back(s_[i_++]);
    }
    if (i_ >= s_.size()) return fail("unterminated string");
    ++i_;  // closing quote
    return true;
  }

  bool number(double& out) {
    skip_ws();
    const char* begin = s_.c_str() + i_;
    char* end = nullptr;
    out = std::strtod(begin, &end);
    if (end == begin || std::isnan(out) || std::isinf(out))
      return fail("bad number");
    i_ += static_cast<std::size_t>(end - begin);
    return true;
  }

  /// Consume a separating ',' if present; otherwise require the closer to
  /// be next (without consuming it).
  bool comma_or(char closer) {
    skip_ws();
    if (at(',')) {
      ++i_;
      return true;
    }
    if (at(closer)) return true;
    return fail(std::string("expected ',' or '") + closer + "'");
  }

  bool expect(char c) {
    skip_ws();
    if (!at(c)) return fail(std::string("expected '") + c + "'");
    ++i_;
    return true;
  }

  bool at(char c) {
    skip_ws();
    return i_ < s_.size() && s_[i_] == c;
  }

  void skip_ws() {
    while (i_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[i_])))
      ++i_;
  }

  bool fail(const std::string& why) {
    if (err_.empty()) err_ = why + " at offset " + std::to_string(i_);
    return false;
  }

  const std::string& s_;
  std::size_t i_ = 0;
  std::string err_;
};

bool load(const char* path, Report& out) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "benchdiff: cannot open %s\n", path);
    return false;
  }
  std::ostringstream text;
  text << in.rdbuf();
  const std::string s = text.str();
  Parser p(s);
  if (!p.parse_report(out)) {
    std::fprintf(stderr, "benchdiff: %s: %s\n", path, p.error().c_str());
    return false;
  }
  return true;
}

// --- comparison ----------------------------------------------------------

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Rates and counts of completed work are higher-is-better; everything
/// else a report carries is a cost.
bool higher_is_better(const std::string& metric) {
  return ends_with(metric, "_per_sec") || ends_with(metric, "_hz") ||
         metric == "delivered" || metric == "accepted";
}

}  // namespace

int main(int argc, char** argv) {
  const char* base_path = nullptr;
  const char* new_path = nullptr;
  double threshold_pct = 5.0;
  std::vector<std::string> ignored;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--threshold" && i + 1 < argc) {
      threshold_pct = std::atof(argv[++i]);
    } else if (arg == "--ignore" && i + 1 < argc) {
      ignored.emplace_back(argv[++i]);
    } else if (arg[0] != '-' && !base_path) {
      base_path = argv[i];
    } else if (arg[0] != '-' && !new_path) {
      new_path = argv[i];
    } else {
      std::fprintf(stderr,
                   "usage: benchdiff BASE.json NEW.json [--threshold PCT] "
                   "[--ignore METRIC]...\n");
      return 2;
    }
  }
  if (!base_path || !new_path) {
    std::fprintf(stderr, "benchdiff: need BASE.json and NEW.json\n");
    return 2;
  }

  Report base, fresh;
  if (!load(base_path, base) || !load(new_path, fresh)) return 2;

  std::map<std::string, const Run*> base_by_name;
  for (const Run& r : base.runs) base_by_name[r.name] = &r;

  int regressions = 0, compared = 0;
  std::printf("%-28s %-20s %12s %12s %8s  %s\n", "run", "metric", "base",
              "new", "delta", "verdict");
  for (const Run& run : fresh.runs) {
    const auto it = base_by_name.find(run.name);
    if (it == base_by_name.end()) {
      std::printf("%-28s (new run, no baseline)\n", run.name.c_str());
      continue;
    }
    for (const auto& [metric, nv] : run.metrics) {
      const auto bit = it->second->metrics.find(metric);
      if (bit == it->second->metrics.end()) continue;
      const double bv = bit->second;
      bool skip = false;
      for (const std::string& ig : ignored) skip = skip || ig == metric;

      // Signed "goodness" delta in percent: positive = improved.
      const double denom = std::fabs(bv) > 1e-12 ? std::fabs(bv) : 1.0;
      double delta_pct = (nv - bv) / denom * 100.0;
      if (!higher_is_better(metric)) delta_pct = -delta_pct;

      const char* verdict = "ok";
      if (skip) {
        verdict = "ignored";
      } else if (delta_pct < -threshold_pct) {
        verdict = "REGRESSION";
        ++regressions;
      } else if (delta_pct > threshold_pct) {
        verdict = "improved";
      }
      if (!skip) ++compared;
      std::printf("%-28s %-20s %12.3f %12.3f %+7.1f%%  %s\n",
                  run.name.c_str(), metric.c_str(), bv, nv, delta_pct,
                  verdict);
    }
  }
  std::printf("\n%d metric%s compared, %d regression%s (threshold %.1f%%)\n",
              compared, compared == 1 ? "" : "s", regressions,
              regressions == 1 ? "" : "s", threshold_pct);
  return regressions ? 1 : 0;
}
