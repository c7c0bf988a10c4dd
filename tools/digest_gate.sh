#!/usr/bin/env bash
# digest_gate.sh — does the working tree still give the run digests of a
# git ref?
#
#   tools/digest_gate.sh <git-ref>
#
# Exports <git-ref> with `git archive`, builds torture_main there and in the
# working tree, and diffs the run digests of three sets:
#   plan:<file>        the pinned plans, tests/plans/*.plan (--replay)
#   window:<case>      every case of tests/plans/explore_dp_3x2.window
#   seed:<batch>:<s>   seeds 1..200 at --max-batch 1, 4 and 8
# Both builds run the working tree's tools/torture_main.cpp on the working
# tree's plans and window, so only the code under test differs, and a ref
# that predates the window's digest mode can still be compared.
#
# Prints one "changed <key> <ref digest> <tree digest>" line per difference,
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

build() {  # build <source dir> <build dir>
  if ! { cmake -S "$1" -B "$2" -DCMAKE_BUILD_TYPE=RelWithDebInfo &&
         cmake --build "$2" --target torture_main -j "$jobs"; } \
       >"$2.log" 2>&1; then
    echo "building torture_main from $1 failed:" >&2
    tail -n 30 "$2.log" >&2
    exit 2
  fi
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
digests "$work/ref-build/tools/torture_main" >"$work/ref.txt"
digests "$work/tree-build/tools/torture_main" >"$work/tree.txt"

for side in ref tree; do
  for set in plan window seed; do
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
