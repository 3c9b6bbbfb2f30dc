#!/usr/bin/env bash
# Full correctness gate, runnable locally or from CI:
#
#   1. determinism lint (eascheck --rules determinism, built standalone
#      from tools/eascheck: needs a compiler and cmake, nothing else)
#   2. eascheck: all four scan engines (determinism, layering, hotpath,
#      contracts) over the whole tree, findings written to
#      build/eascheck-findings.txt for CI artifact upload
#   3. default build + full test suite, warnings fatal
#   4. fault smoke (fault-smoke label + the availability ablation end to
#      end: the degraded-mode surface on its own, attributable stage)
#   4b. obs smoke (obs-smoke label + the allocation-counting binary: the
#      tracing/metrics surface and its zero-overhead-when-off proof)
#   4c. cache smoke (cache-smoke label + the cache-tier ablation: the
#      power-aware cache & destage surface on its own, attributable stage)
#   5. audit build (EASCHED_AUDIT=ON): every EAS_ASSERT/EAS_AUDIT compiled
#      into the release binary, full suite again
#   6. ASan+UBSan smoke (sanitize-smoke preset, reduced request counts)
#   7. TSan sweep smoke (sweep-smoke preset: the concurrency surface)
#   8. clang-tidy over all TUs via eascheck's tidy engine (skipped with a
#      notice when clang-tidy is not installed; EAS_CI=1 makes a missing
#      clang-tidy an error so the hosted runners cannot silently skip it)
#   9. format report (clang-format conformance, non-gating)
#
# Any stage failing fails the script. Stages can be skipped by name:
#   tools/ci.sh --skip tsan,lint
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"

skip=","
if [[ "${1:-}" == "--skip" && -n "${2:-}" ]]; then
  skip=",$2,"
elif [[ "${1:-}" == --skip=* ]]; then
  skip=",${1#--skip=},"
fi
jobs="${EAS_CI_JOBS:-$(nproc 2>/dev/null || echo 2)}"

run_stage() { # run_stage <name> <cmd...>
  local name="$1"
  shift
  if [[ "$skip" == *",$name,"* ]]; then
    echo "=== [$name] skipped by request"
    return 0
  fi
  echo "=== [$name] $*"
  "$@"
}

# The analyzer builds on its own (no GTest, no project libraries), so this
# stage is the cheap fast-fail gate.
stage_determinism() {
  cmake -S tools/eascheck -B build-eascheck -DCMAKE_BUILD_TYPE=Release
  cmake --build build-eascheck -j "$jobs"
  ./build-eascheck/eascheck --root . --rules determinism
}

# Builds the analyzer inside the normal tree and gates on zero findings
# across all four scan engines. The findings report survives as a build
# artifact so a red CI run shows the violations without re-running.
stage_eascheck() {
  cmake --preset default
  cmake --build --preset default -j "$jobs" --target eascheck
  ./build/tools/eascheck/eascheck --rules all \
    --report build/eascheck-findings.txt
}

stage_default() {
  cmake --preset default -DEASCHED_WERROR=ON
  cmake --build --preset default -j "$jobs"
  ctest --preset default -j "$jobs"
}

stage_audit() {
  cmake --preset audit -DEASCHED_WERROR=ON
  cmake --build --preset audit -j "$jobs"
  ctest --preset audit -j "$jobs"
}

stage_asan() {
  cmake --preset asan
  cmake --build --preset asan -j "$jobs"
  ctest --preset sanitize-smoke -j "$jobs"
}

stage_tsan() {
  cmake --preset tsan
  cmake --build --preset tsan -j "$jobs"
  ctest --preset sweep-smoke -j "$jobs"
}

# Degraded-mode surface on its own label so a failover regression is
# attributable at a glance (the default stage runs these tests too; this
# stage re-runs just them, plus the availability ablation end to end).
stage_fault() {
  cmake --preset default
  cmake --build --preset default -j "$jobs"
  ctest --preset fault-smoke -j "$jobs"
  EAS_REQUESTS=3000 ./build/bench/bench_ablation_fault_availability > /dev/null
}

# Observability surface on its own label: recorder/metrics goldens and
# the paper-example trace replay, plus the allocation-counting binary that
# proves tracing (compiled in but off) adds nothing to the kernel hot path.
stage_obs() {
  cmake --preset default
  cmake --build --preset default -j "$jobs"
  ctest --preset obs-smoke -j "$jobs"
  ./build/tests/test_sim_alloc > /dev/null
}

# Cache & destage tier on its own label: replacement-policy goldens, the
# write-back lifecycle, the piggyback/watermark/deadline destage paths and
# the cache-off bit-identity contract, plus the cache ablation end to end.
stage_cache() {
  cmake --preset default
  cmake --build --preset default -j "$jobs"
  ctest --preset cache-smoke -j "$jobs"
  EAS_REQUESTS=3000 ./build/bench/bench_ablation_cache_tier > /dev/null
}

# Reliability tier under sanitizers: deadlines/retries/hedges/shedding churn
# timers and queue surgery harder than any other surface, so its label runs
# in the ASan+UBSan build (timer use-after-cancel or a leaked in-flight
# entry shows up here first), plus the overload ablation end to end.
stage_chaos() {
  cmake --preset asan
  cmake --build --preset asan -j "$jobs"
  ctest --preset chaos-smoke -j "$jobs"
  cmake --preset default
  cmake --build --preset default -j "$jobs" --target bench_ablation_reliability
  EAS_REQUESTS=3000 ./build/bench/bench_ablation_reliability > /dev/null
}

stage_lint() {
  if ! command -v clang-tidy > /dev/null 2>&1; then
    if [[ "${EAS_CI:-0}" == "1" ]]; then
      echo "clang-tidy required in CI but not installed" >&2
      return 2
    fi
    echo "clang-tidy not installed; skipping lint stage"
    return 0
  fi
  # The lint preset compiles with clang-tidy attached (fatal warnings);
  # eascheck's tidy engine then re-drives clang-tidy off the exported
  # compile database so the same entry point gates both locally and in CI.
  cmake --preset lint
  cmake --build --preset lint -j "$jobs"
  local tidy_flags=(--rules tidy --compile-commands build-lint/compile_commands.json)
  [[ "${EAS_CI:-0}" == "1" ]] && tidy_flags+=(--require-tidy)
  cmake --preset default
  cmake --build --preset default -j "$jobs" --target eascheck
  ./build/tools/eascheck/eascheck "${tidy_flags[@]}"
}

stage_format() { tools/format_check.sh; }

run_stage determinism stage_determinism
run_stage eascheck stage_eascheck
run_stage default stage_default
run_stage fault stage_fault
run_stage obs stage_obs
run_stage cache stage_cache
run_stage chaos stage_chaos
run_stage audit stage_audit
run_stage asan stage_asan
run_stage tsan stage_tsan
run_stage lint stage_lint
run_stage format stage_format

echo "=== all CI stages passed"
