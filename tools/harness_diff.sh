#!/usr/bin/env bash
# Harness stdout diff between two builds of the tree:
#
#   tools/harness_diff.sh PARENT_BUILD CHANGE_BUILD
#
# Runs every bench_fig*/bench_ablation* harness and the six examples from
# both build directories with EAS_REQUESTS=3000 EAS_EMIT=csv, once at
# EAS_THREADS=1 and once at EAS_THREADS=4, and diffs their stdout. Columns
# that read the wall clock or the process RSS (the sweep cell table's
# wall_s and peak_rss_kib) are masked first. Prints one line per run and
# the first lines of any diff; exits 1 on any difference, 2 on a usage
# error. Each run starts in its own scratch directory, so files the
# examples write (sweep_grid's trace and metrics exports) land there.
#
# Both builds must be complete trees of the default preset (or any other
# preset that builds bench/ and examples/). DESIGN.md §6 gives the runtime.
set -euo pipefail

if [[ $# -ne 2 || ! -d "$1/bench" || ! -d "$2/bench" ]]; then
  echo "usage: $0 PARENT_BUILD CHANGE_BUILD (two build trees)" >&2
  exit 2
fi
parent="$(cd "$1" && pwd)"
change="$(cd "$2" && pwd)"

examples=(quickstart paper_walkthrough trace_replay policy_explorer
          mixed_workload sweep_grid)
programs=()
for path in "$parent"/bench/bench_fig* "$parent"/bench/bench_ablation*; do
  programs+=("bench/$(basename "$path")")
done
for name in "${examples[@]}"; do programs+=("examples/$name"); done

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

# Masks the named columns of every CSV block whose header names them; a
# block ends at a blank line or a "#" comment line.
mask() {
  python3 -c '
import csv, sys
masked = {"wall_s", "peak_rss_kib"}
cols = []
for line in sys.stdin:
    text = line.rstrip("\n")
    if not text or text.startswith("#"):
        cols = []
        sys.stdout.write(line)
        continue
    fields = next(csv.reader([text]))
    if masked & set(fields):
        cols = [i for i, f in enumerate(fields) if f in masked]
    elif cols and len(fields) > max(cols):
        for i in cols:
            fields[i] = "*"
        w = csv.writer(sys.stdout, lineterminator="\n")
        w.writerow(fields)
        continue
    sys.stdout.write(line)
'
}

run() {  # run <build> <program> <threads> <out>; the exit status is diffed too
  local dir="$work/run" rc=0
  rm -rf "$dir" && mkdir -p "$dir"
  (cd "$dir" && EAS_REQUESTS=3000 EAS_EMIT=csv EAS_THREADS="$3" \
    "$1/$2" > "$work/raw" 2>/dev/null) || rc=$?
  mask < "$work/raw" > "$4"
  echo "exit status $rc" >> "$4"
}

status=0
for threads in 1 4; do
  for program in "${programs[@]}"; do
    if [[ ! -x "$change/$program" ]]; then
      echo "MISSING  t$threads $program (not in $change)"
      status=1
      continue
    fi
    run "$parent" "$program" "$threads" "$work/parent.out"
    run "$change" "$program" "$threads" "$work/change.out"
    if cmp -s "$work/parent.out" "$work/change.out"; then
      echo "same     t$threads $program ($(wc -l < "$work/change.out") lines)"
    else
      echo "DIFFERS  t$threads $program"
      diff "$work/parent.out" "$work/change.out" | head -20 || true
      status=1
    fi
  done
done
exit "$status"
