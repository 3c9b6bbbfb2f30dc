#!/usr/bin/env bash
# Records a micro-benchmark trajectory point: runs the micro_* google
# benchmarks with --benchmark_format=json and normalizes the output into one
# compact JSON document (items/sec per benchmark plus the commit hash), so
# speedups across PRs are *recorded*, not asserted from memory.
#
# Each benchmark runs `repetitions` times and the record keeps the median of
# those runs, so a single noisy run cannot flag an untouched row in a
# before/after pair.
#
# Usage: tools/bench_record.sh [build-dir] [output.json]
#   build-dir     defaults to build        (must already contain the binaries)
#   output.json   defaults to BENCH_micro.json at the repo root
#
# Environment:
#   EAS_BENCH_FILTER        --benchmark_filter value (default: all)
#   EAS_BENCH_MIN_TIME      --benchmark_min_time value (default: benchmark's)
#
# The output schema is intentionally small and stable:
#   {
#     "commit": "<git hash>[-dirty]",
#     "benchmarks": { "<name>": {"items_per_second": N, "real_time_ns": N}, … }
#   }
# where both numbers are the medians over the repetitions.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-$root/build}"
out="${2:-$root/BENCH_micro.json}"

benches=(bench_micro_kernel bench_micro_algorithms bench_micro_schedulers
  bench_micro_cache bench_micro_reliability)
for b in "${benches[@]}"; do
  if [[ ! -x "$build/bench/$b" ]]; then
    echo "bench_record: $build/bench/$b not built (cmake --build $build --target $b)" >&2
    exit 2
  fi
done

commit="$(git -C "$root" rev-parse --short=12 HEAD 2>/dev/null || echo unknown)"
if ! git -C "$root" diff --quiet HEAD -- src bench 2>/dev/null; then
  commit="${commit}-dirty"
fi

repetitions=5

tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT

extra_args=()
[[ -n "${EAS_BENCH_FILTER:-}" ]] && extra_args+=("--benchmark_filter=${EAS_BENCH_FILTER}")
[[ -n "${EAS_BENCH_MIN_TIME:-}" ]] && extra_args+=("--benchmark_min_time=${EAS_BENCH_MIN_TIME}")

reports=()
for b in "${benches[@]}"; do
  echo "bench_record: running $b" >&2
  "$build/bench/$b" --benchmark_format=json \
    --benchmark_repetitions="$repetitions" \
    --benchmark_report_aggregates_only=true \
    ${extra_args[@]+"${extra_args[@]}"} > "$tmpdir/$b.json"
  # A binary whose benchmarks all miss EAS_BENCH_FILTER prints no JSON at
  # all; leave it out of the merge instead of failing to parse it.
  if [[ -s "$tmpdir/$b.json" ]]; then
    reports+=("$tmpdir/$b.json")
  else
    echo "bench_record: $b matched no benchmark, skipped" >&2
  fi
done
if [[ ${#reports[@]} -eq 0 ]]; then
  echo "bench_record: no benchmark matched EAS_BENCH_FILTER=${EAS_BENCH_FILTER:-}" >&2
  exit 2
fi

commit="$commit" python3 - "$out" "${reports[@]}" <<'PY'
import json, os, sys

out_path, inputs = sys.argv[1], sys.argv[2:]
doc = {"commit": os.environ["commit"], "benchmarks": {}}
for path in inputs:
    with open(path) as f:
        report = json.load(f)
    for bm in report.get("benchmarks", []):
        if bm.get("aggregate_name") != "median":
            continue
        entry = {"real_time_ns": round(bm["real_time"], 1)}
        if "items_per_second" in bm:
            entry["items_per_second"] = round(bm["items_per_second"])
        doc["benchmarks"][bm["run_name"]] = entry
doc["benchmarks"] = dict(sorted(doc["benchmarks"].items()))
with open(out_path, "w") as f:
    json.dump(doc, f, indent=2, sort_keys=False)
    f.write("\n")
print(f"bench_record: wrote {out_path} ({len(doc['benchmarks'])} benchmarks)")
PY
