#!/usr/bin/env python3
"""Timewheel benchmark driver.

Builds the benchmark (perfbench/CMakeLists.txt, which compiles the protocol
stack from ../src) and runs one workload, or all of them:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --sweep --workload NAME --seeds A|B|LO-HI
  python3 perfbench/run.py --self-test

Workloads (see BENCHMARK.json for why each exists): udp_steady,
sim_steady, sim_crash_lossy. The last line of standard output is one JSON
object {"correct", "attempted", "failed", "metrics"}; with --trace 0 the
metrics are BENCHMARK.json's end_to_end list, with --trace 1 its per_layer
list. The lines above it report every metric the run measured, including
the workload-specific end-to-end metrics that are not gated (see
NOT_GATED). Exit code 0 only when every output check passed.

--sweep runs one workload over a seed set and prints, per metric, the
median and the spread between the quartiles as a share of the median.
Seed set A (1-10) is the one to tune against; check a claim on set B
(1001-1010) as well. Simulated-time figures depend on the build, so a
baseline is always measured on the parent commit, never read from a file.

--self-test runs the benchmark's arithmetic self-tests and a short smoke
run of each workload, traced and untraced.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["udp_steady", "sim_steady", "sim_crash_lossy"]
SEED_SETS = {"A": list(range(1, 11)), "B": list(range(1001, 1011))}
RUN_TIMEOUT_S = 170

# End-to-end metrics that are printed on every run but not gated: listed
# under per_layer in BENCHMARK.json, without a bound. A gated metric must
# be reported on every workload and hold steady across seeds.
NOT_GATED = {
    "cpu_us_per_update": "CPU speed on a shared host swings by a quarter "
                         "over seconds to minutes, so even as a 10th "
                         "percentile its spread across seeds reaches 0.17",
    "max_rate_per_sec": "steady workloads only; ladder steps double, so "
                        "one step is a 50% change",
    "failed_pct": "0 on the steady workloads",
    "view_change_p50_ms": "sim_crash_lossy only",
    "view_change_p90_ms": "sim_crash_lossy only",
    "outage_p50_ms": "sim_crash_lossy only",
    "outage_p90_ms": "sim_crash_lossy only",
    "false_suspicions_per_min": "sim_crash_lossy only",
}


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, d, "perfbench")


def build():
    """Configure and build twbench; returns the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "gms", "timewheel_node.hpp")):
        fail("protocol sources (src/) not found next to perfbench/; "
             "run from a full checkout")
    bdir = build_dir()
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(bdir, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", bdir, "-j", jobs]]
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                         bdir, "-DCMAKE_BUILD_TYPE=Release"])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, cwd=ROOT, stdout=log,
                                    stderr=subprocess.STDOUT).returncode
            except OSError as e:
                fail(f"cannot run {cmd[0]}: {e}")
            if rc != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail(f"build step failed: {' '.join(cmd)}", 3)
    return os.path.join(bdir, "twbench")


def run_twbench(binary, args):
    """Run twbench; returns (exit code, stdout lines). Kills it on timeout."""
    proc = subprocess.Popen([binary] + args, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail(f"twbench {' '.join(args)} exceeded {RUN_TIMEOUT_S} s", 4)
    return proc.returncode, out.splitlines()


def run_workload(binary, spec, workload, seed, seconds, trace, smoke=False):
    """One workload run. Returns (result dict, report lines)."""
    args = ["--workload", workload, "--seed", str(seed), "--seconds",
            str(seconds), "--trace", "1" if trace else "0", "--span-dir",
            os.path.join(ROOT, ".bench_out")]
    if smoke:
        args.append("--smoke")
    rc, lines = run_twbench(binary, args)
    try:
        raw = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"{workload}: twbench printed no result (exit {rc})", 4)
    report = [f"## {workload} seed={seed} seconds={seconds} "
              f"trace={int(trace)}"] + lines[:-1]
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics, missing = {}, []
    for m in wanted:
        got = raw["metrics"].get(m["name"])
        if got is None or not math.isfinite(got["value"]):
            missing.append(m["name"])
            got = {"value": 0.0, "unit": m["unit"]}
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    correct = bool(raw["correct"]) and rc == 0
    if missing and not trace:
        correct = False
        report.append("MISSING end-to-end metrics: " + ", ".join(missing))
    elif missing:
        report.append("# not exercised by this workload (reported as 0): " +
                      ", ".join(missing))
    if not trace:
        shown = [n for n in NOT_GATED if n in raw["metrics"]]
        if shown:
            report.append("# reported, not gated: " + "; ".join(
                f"{n} ({NOT_GATED[n]})" for n in shown))
    result = {"correct": correct, "attempted": int(raw["attempted"]),
              "failed": int(raw["failed"]), "metrics": metrics}
    return result, report


def parse_seeds(text):
    if text in SEED_SETS:
        return SEED_SETS[text]
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def sweep(binary, spec, workload, seeds, seconds, trace):
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    values, ok = {}, True
    for seed in seeds:
        result, _ = run_workload(binary, spec, workload, seed, seconds, trace)
        ok = ok and result["correct"]
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"# seed {seed}: correct={result['correct']} " + " ".join(
            f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()),
            flush=True)
    print(f"{'metric':40s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>8s} {'bound':>6s}")
    for name, xs in values.items():
        med = statistics.median(xs)
        q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (med,) * 3
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and spread > bound / 3:
            flag = "  > bound/3"
        print(f"{name:40s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.3f} "
              f"{bound if bound is not None else '':>6}{flag}")
    return ok


def self_test(binary, spec):
    rc, lines = run_twbench(binary, ["--self-test"])
    print("\n".join(lines))
    ok = rc == 0
    for workload in WORKLOADS:
        for trace in (False, True):
            result, report = run_workload(binary, spec, workload, 1, 1, trace,
                                          smoke=True)
            if not result["correct"]:
                print("\n".join(report))
            print(f"smoke {workload} trace={int(trace)}: "
                  f"{'ok' if result['correct'] else 'FAILED'}")
            ok = ok and result["correct"]
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--sweep", action="store_true")
    ap.add_argument("--seeds", default="A")
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()
    if a.seconds < 1:
        fail("--seconds must be at least 1")
    if not (a.self_test or a.workload):
        ap.error("--workload or --self-test is required")

    spec = load_spec()
    binary = build()
    if a.self_test:
        sys.exit(0 if self_test(binary, spec) else 1)
    if a.sweep:
        if a.workload == "all":
            fail("--sweep takes one workload")
        ok = sweep(binary, spec, a.workload, parse_seeds(a.seeds), a.seconds,
                   a.trace)
        sys.exit(0 if ok else 1)

    names = WORKLOADS if a.workload == "all" else [a.workload]
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in names:
        result, report = run_workload(binary, spec, workload, a.seed,
                                      a.seconds, a.trace)
        print("\n".join(report), flush=True)
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            key = name if len(names) == 1 else f"{workload}.{name}"
            total["metrics"][key] = m
    print(json.dumps(total))
    sys.exit(0 if total["correct"] else 1)


if __name__ == "__main__":
    main()
