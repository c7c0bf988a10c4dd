// twbench — the timewheel benchmark driver.
//
//   twbench --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
//           [--span-dir DIR]
//   twbench --self-test
//
// Workloads: udp_steady, sim_steady, sim_crash_lossy. Prints one line per
// note and per metric, then, as its last line, one JSON object with every
// metric it measured (perfbench/run.py picks the ones BENCHMARK.json
// names). Exits 1 when an output check failed, 2 on bad usage.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "common.hpp"
#include "util/logging.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: twbench --workload udp_steady|sim_steady|"
               "sim_crash_lossy --seed N --seconds S --trace 0|1 [--smoke] "
               "[--span-dir DIR]\n       twbench --self-test\n");
  return 2;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  pb::RunArgs args;
  bool self_test = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    if (a == "--self-test") {
      self_test = true;
    } else if (a == "--smoke") {
      args.smoke = true;
    } else if (a == "--workload" && v) {
      args.workload = v;
      ++i;
    } else if (a == "--seed" && v) {
      args.seed = std::strtoull(v, nullptr, 10);
      ++i;
    } else if (a == "--seconds" && v) {
      args.seconds = std::atof(v);
      ++i;
    } else if (a == "--trace" && v) {
      args.trace = std::strcmp(v, "0") != 0;
      ++i;
    } else if (a == "--span-dir" && v) {
      args.span_dir = v;
      ++i;
    } else {
      return usage();
    }
  }
  if (self_test) {
    const int failures = pb::run_self_tests();
    std::printf("self-test: %d failure(s)\n", failures);
    return failures == 0 ? 0 : 1;
  }
  if (args.seconds <= 0) return usage();

  // The stack's warnings (e.g. oversized decisions at a collapsing ladder
  // step) are part of what the ladder measures, not news.
  tw::util::set_log_threshold(tw::util::LogLevel::error);

  pb::Report report;
  try {
    if (args.workload == "udp_steady") {
      pb::run_udp_steady(args, report);
    } else if (args.workload == "sim_steady") {
      pb::run_sim_steady(args, report);
    } else if (args.workload == "sim_crash_lossy") {
      pb::run_sim_crash_lossy(args, report);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    report.fail(std::string("run aborted: ") + e.what());
  }

  for (const auto& n : report.notes) std::printf("# %s\n", n.c_str());
  for (const auto& f : report.check_failures)
    std::printf("CHECK FAILED: %s\n", f.c_str());
  for (const auto& [name, m] : report.metrics)
    std::printf("%-36s %14.4f %s\n", name.c_str(), m.value, m.unit.c_str());

  // JSON has no infinities; a metric that could not be measured is left
  // out of the result line (it is still printed above).
  std::erase_if(report.metrics,
                [](const auto& kv) { return !std::isfinite(kv.second.value); });
  const bool correct = report.check_failures.empty();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  bool first = true;
  for (const auto& [name, m] : report.metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", json_escape(name).c_str(), m.value,
                json_escape(m.unit).c_str());
    first = false;
  }
  std::printf("}}\n");
  return correct ? 0 : 1;
}
