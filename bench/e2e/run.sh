#!/usr/bin/env bash
# End-to-end benchmark: builds bench_e2e in Release under build-bench/ and
# runs each workload in its own single-threaded process.
#
#   bench/e2e/run.sh [--workload NAME] [--seed S] [--seconds T] [--trace 0|1]
#                    [--out FILE]
#
# Without --workload every workload runs in turn. Each prints its metrics as
# `workload metric value unit` lines, then one JSON result line; --out FILE
# also appends one JSON record per workload (the input of compare.py).
# Defaults: --seed 1 --seconds 20 --trace 1. Build output goes to stderr.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/build-bench"

workload=""
args=()
while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload) workload="${2:?--workload needs a value}"; shift 2 ;;
    --seed|--seconds|--trace|--out) args+=("$1" "${2:?$1 needs a value}"); shift 2 ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done

if [[ ! -f "$root/src/CMakeLists.txt" ]]; then
  echo "run.sh: the library sources ($root/src) are missing" >&2
  exit 2
fi

jobs="$(nproc 2>/dev/null || echo 2)"
(( jobs > 8 )) && jobs=8
{
  if [[ ! -f "$build/CMakeCache.txt" ]]; then
    cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release
  fi
  cmake --build "$build" --target bench_e2e -j "$jobs"
} >&2

if [[ -n "$workload" ]]; then
  workloads=("$workload")
else
  mapfile -t workloads < <("$build/bench_e2e" --list)
fi

status=0
for w in "${workloads[@]}"; do
  EAS_THREADS=1 "$build/bench_e2e" --workload "$w" \
    --expected "$here/expected.json" ${args[@]+"${args[@]}"} || status=$?
done
exit "$status"
