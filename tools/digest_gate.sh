#!/usr/bin/env bash
# digest_gate.sh — does the working tree still give the run digests of a
# git ref?
#
#   tools/digest_gate.sh <git-ref>
#
# Exports <git-ref> with `git archive`, builds torture_main and five bench
# harnesses there and in the working tree, and diffs four sets of keys:
#   plan:<file>          the 7 pinned plans, tests/plans/*.plan (--replay)
#   window:<case>        the 1369 cases of tests/plans/explore_dp_3x2.window
#   seed:<batch>:<s>     seeds 1..200 at --max-batch 1, 4 and 8
#   bench:<run>:<metric> every metric but the wall-clock msgs_per_sec in the
#                        --out/--latency-out JSON of scenario_broadcast_
#                        semantics, _throughput, _detector, _group_runtime
#                        and _overload (E7, E9, E11, E12, E13): the only
#                        runs of the admission ladder and the adaptive
#                        detector, which torture never configures
# Both builds run the working tree's tools/torture_main.cpp and bench/
# sources on the working tree's plans and window, so only the code under
# test differs, and a ref that predates the window's digest mode can still
# be compared. About 3 minutes on 4 cores.
#
# Prints one "changed <key> <ref value> <tree value>" line per difference,
# then "changed digests: N". Exits 0 when N is 0, 1 when it is not, and 2 on
# a usage or build error. A refactor must show 0; a behaviour change shows
# which runs moved.
#
# Digests depend on libm (sim/random.cpp samples through std::log and
# std::pow), so compare two builds made on one machine and never commit
# golden digests.
set -euo pipefail

if [[ $# -ne 1 ]]; then
  echo "usage: $0 <git-ref>" >&2
  exit 2
fi
ref=$1
root=$(git rev-parse --show-toplevel)
if ! git -C "$root" rev-parse --verify --quiet "$ref^{commit}" >/dev/null; then
  echo "unknown git ref: $ref" >&2
  exit 2
fi
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
jobs=$(nproc 2>/dev/null || echo 2)

mkdir "$work/ref"
git -C "$root" archive "$ref" | tar -x -C "$work/ref"
cp "$root/tools/torture_main.cpp" "$work/ref/tools/torture_main.cpp"
cp "$root"/bench/*.cpp "$root"/bench/*.hpp "$work/ref/bench/"

scenarios=(scenario_broadcast_semantics scenario_throughput scenario_detector
           scenario_group_runtime scenario_overload)

build() {  # build <source dir> <build dir>
  if ! { cmake -S "$1" -B "$2" -DCMAKE_BUILD_TYPE=RelWithDebInfo &&
         cmake --build "$2" --target torture_main "${scenarios[@]}" \
           -j "$jobs"; } >"$2.log" 2>&1; then
    echo "building from $1 failed:" >&2
    tail -n 30 "$2.log" >&2
    exit 2
  fi
}

bench_metrics() {  # bench_metrics <build dir>: "bench:<run>:<metric> <value>"
  local out=$1/bench-out s args
  mkdir -p "$out"
  # A harness whose self-check fails exits 1 but still writes its JSON; a
  # harness that writes no readable JSON leaves its keys missing, which
  # counts as changed.
  for s in "${scenarios[@]}"; do
    args=(--out "$out/$s.json")
    if [[ $s == scenario_throughput ]]; then
      args+=(--latency-out "$out/latency.json")
    fi
    "$1/bench/$s" "${args[@]}" >/dev/null 2>&1 || true
  done
  python3 -c '
import json, sys
for path in sys.argv[1:]:
    try:
        runs = json.load(open(path))["runs"]
    except (OSError, ValueError, KeyError):
        continue
    for run in runs:
        for metric, value in run["metrics"].items():
            if metric != "msgs_per_sec":
                print("bench:%s:%s %r" % (run["name"], metric, value))
' "$out"/*.json
}

digests() {  # digests <torture_main>: "<key> <digest>" lines, sorted
  local tm=$1 plan batch
  {
    for plan in "$root"/tests/plans/*.plan; do
      { "$tm" --digest-only --replay "$plan" 2>/dev/null || true; } |
        awk -v key="plan:${plan##*/}" 'NF == 2 { print key, $2 }'
    done
    { "$tm" --digest-only \
        --explore-window "$root/tests/plans/explore_dp_3x2.window" \
        2>/dev/null || true; } |
      awk 'NF == 2 && $1 ~ /^[0-9]+$/ { print "window:" $1, $2 }'
    for batch in 1 4 8; do
      { "$tm" --digest-only --seeds 200 --max-batch "$batch" 2>/dev/null ||
          true; } |
        awk -v b="$batch" 'NF == 2 && $1 ~ /^[0-9]+$/ { print "seed:" b ":" $1, $2 }'
    done
  } | LC_ALL=C sort
}

build "$work/ref" "$work/ref-build"
build "$root" "$work/tree-build"
for side in ref tree; do
  { digests "$work/$side-build/tools/torture_main"
    bench_metrics "$work/$side-build"; } | LC_ALL=C sort >"$work/$side.txt"
done

for side in ref tree; do
  for set in plan window seed bench; do
    if ! grep -q "^$set:" "$work/$side.txt"; then
      echo "the $side build printed no $set digests" >&2
      exit 2
    fi
  done
done

echo "compared $(wc -l <"$work/tree.txt") digests against $ref"
LC_ALL=C join -a 1 -a 2 -e missing -o 0,1.2,2.2 "$work/ref.txt" \
    "$work/tree.txt" |
  awk '$2 != $3 { print "changed", $0; ++n }
       END { print "changed digests: " n + 0; exit n > 0 }'
