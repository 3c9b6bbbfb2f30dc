#!/usr/bin/env python3
"""Compare two sets of bench_e2e runs.

    bench/e2e/compare.py A B [--bench BENCHMARK.json]

A and B each hold records: the JSON lines `run.sh --out FILE` appends, or a
JSON object with a "records" list (as in BENCH_e2e.json). For every workload
and metric it prints each side's median and quartiles, the fraction of
paired runs (same workload and seed) that B wins, and a verdict for the
end-to-end metrics, whose bounds come from BENCHMARK.json:

  identical   every pair reads exactly the same (simulated metrics)
  improved    B wins at least 9 pairs in 10 and the medians differ by more
              than A's interquartile range
  regressed   B's median is worse than A's by more than the bound
  unresolved  a side's spread (IQR / median) exceeds the bound and the
              runs do not separate
  unchanged   otherwise

It also checks that paired runs agree on the output fingerprint. The exit
status is 1 when a metric regressed, a fingerprint differs or a run failed
its output checks.
"""
import argparse
import collections
import json
import os
import statistics
import sys


def load(path):
    with open(path) as f:
        text = f.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        doc = None
    if isinstance(doc, dict) and "records" in doc:
        return doc["records"]
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def group(records):
    """workload -> seed -> list of records, in file order."""
    out = collections.OrderedDict()
    for r in records:
        out.setdefault(r["workload"], collections.OrderedDict()).setdefault(
            r["seed"], []).append(r)
    return out


def pairs(a_runs, b_runs):
    """(a, b) records paired by seed, in order within a seed."""
    for seed, a_list in a_runs.items():
        for a, b in zip(a_list, b_runs.get(seed, [])):
            yield a, b


def verdict(a_vals, b_vals, paired, better, bound):
    if paired and all(x == y for x, y in paired):
        return "identical"
    if bound is None:
        return "-"  # per-layer metrics carry no direction or bound
    sign = 1.0 if better == "higher" else -1.0
    a_q1, a_med, a_q3 = quartiles(a_vals)
    b_q1, b_med, b_q3 = quartiles(b_vals)
    wins = sum(1 for x, y in paired if sign * (y - x) > 0)
    if (paired and wins >= 0.9 * len(paired) and sign * (b_med - a_med) > 0
            and abs(b_med - a_med) > a_q3 - a_q1):
        return "improved"
    worse = sign * (a_med - b_med) / abs(a_med) if a_med else 0.0
    spread = max((a_q3 - a_q1) / abs(a_med) if a_med else 0.0,
                 (b_q3 - b_q1) / abs(b_med) if b_med else 0.0)
    if spread > bound:
        if all(sign * (y - x) > 0 for x in a_vals for y in b_vals):
            return "improved"
        if all(sign * (x - y) > 0 for x in a_vals for y in b_vals):
            return "regressed"
        return "unresolved"
    return "regressed" if worse > bound else "unchanged"


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("a")
    ap.add_argument("b")
    ap.add_argument("--bench",
                    default=os.path.join(here, "..", "..", "BENCHMARK.json"))
    args = ap.parse_args()

    with open(args.bench) as f:
        spec = json.load(f)
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    a_all, b_all = group(load(args.a)), group(load(args.b))

    bad = False
    for workload, a_runs in a_all.items():
        b_runs = b_all.get(workload)
        if not b_runs:
            print(f"## {workload}: no runs in B\n")
            continue
        a_recs = [r for runs in a_runs.values() for r in runs]
        b_recs = [r for runs in b_runs.values() for r in runs]
        matched = list(pairs(a_runs, b_runs))
        mismatched = [a["seed"] for a, b in matched
                      if a["fingerprint"] != b["fingerprint"]]
        failed = sum(1 for r in a_recs + b_recs if not r["correct"])
        bad |= bool(mismatched) or failed > 0
        print(f"## {workload}: {len(a_recs)} runs in A, {len(b_recs)} in B, "
              f"{len(matched)} pairs; fingerprints "
              + ("identical" if not mismatched
                 else f"DIFFER at seeds {mismatched}")
              + (f"; {failed} runs FAILED their checks" if failed else ""))
        print(f"{'metric':30} {'unit':6} {'A q1':>12} {'A median':>12} "
              f"{'A q3':>12} {'B q1':>12} {'B median':>12} {'B q3':>12} "
              f"{'B wins':>7}  verdict")
        names = list(dict.fromkeys(k for r in a_recs for k in r["metrics"]))
        for name in names:
            a_vals = [r["metrics"][name]["value"] for r in a_recs
                      if name in r["metrics"]]
            b_vals = [r["metrics"][name]["value"] for r in b_recs
                      if name in r["metrics"]]
            if not a_vals or not b_vals:
                continue
            paired = [(a["metrics"][name]["value"], b["metrics"][name]["value"])
                      for a, b in matched
                      if name in a["metrics"] and name in b["metrics"]]
            m = e2e.get(name)
            better = m["better"] if m else None
            sign = 1.0 if better == "higher" else -1.0
            wins = sum(1 for x, y in paired if sign * (y - x) > 0)
            v = verdict(a_vals, b_vals, paired, better,
                        m["bound"] if m else None)
            bad |= v == "regressed"
            a_q, b_q = quartiles(a_vals), quartiles(b_vals)
            unit = a_recs[0]["metrics"][name]["unit"]
            win = f"{wins / len(paired):.2f}" if paired and m else "-"
            print(f"{name:30} {unit:6} "
                  + " ".join(f"{x:12.6g}" for x in a_q + b_q)
                  + f" {win:>7}  {v}")
        print()
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
