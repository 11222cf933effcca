#!/usr/bin/env python3
"""Paired A/B comparison of benchmark reports (bench/suite/README.md).

    python3 bench/suite/compare.py A/*.json B/*.json

A holds the parent commit's reports and B the change's, each written by
`run.py --out`; the two groups are told apart by directory. Reports pair
up in filename order. The rule is the choosing-metrics one:

  * at least 10 pairs, alternating which side ran first;
  * `better` only if B wins at least 9/10 of the pairs (ties count for
    neither) and the medians differ by more than A's interquartile range;
  * an end-to-end metric is `worse` when B's median is worse than A's by
    more than its BENCHMARK.json bound, `unresolved` when A's own spread
    exceeds the bound (unless every B run beats every A run), else
    `no-regression`; a per-layer metric, which has no bound, is `worse`
    by the mirror of the `better` rule, `no-regression` when every value
    is identical, else `unresolved`.

Every (workload, metric) gets its own row. Exits 1 when any row is
`worse` or B failed more cells than A.
"""
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
MIN_PAIRS = 10


def verdict(a, b, better, bound, paired):
    """One row's mark for paired samples a (parent) and b (change)."""
    sign = 1 if better == "lower" else -1  # sign * (x - y) > 0: y beats x
    n = len(a)
    wins = sum(1 for x, y in zip(a, b) if sign * (x - y) > 0)
    losses = sum(1 for x, y in zip(a, b) if sign * (y - x) > 0)
    med_a, med_b = statistics.median(a), statistics.median(b)
    q = statistics.quantiles(a, n=4) if n > 1 else [med_a, med_a, med_a]
    iqr_a = q[2] - q[0]
    gain = sign * (med_a - med_b)
    if not paired:
        return "unresolved"
    if wins >= 0.9 * n and gain > iqr_a:
        return "better"
    if bound is None:
        if losses >= 0.9 * n and -gain > iqr_a:
            return "worse"
        return "no-regression" if len(set(a) | set(b)) == 1 else "unresolved"
    if med_a and -gain / abs(med_a) > bound:
        return "worse"
    b_beats_all = all(sign * (x - y) > 0 for x in a for y in b)
    if med_a and iqr_a / abs(med_a) > bound and not b_beats_all:
        return "unresolved"
    return "no-regression"


def load_groups(paths):
    groups = {}
    for p in map(Path, paths):
        groups.setdefault(p.parent.resolve(), []).append(p)
    if len(groups) != 2:
        sys.exit("compare.py: expected reports from exactly two directories, got %d" % len(groups))
    a_dir = Path(paths[0]).parent.resolve()
    a, b = (sorted(groups[d]) for d in sorted(groups, key=lambda d: d != a_dir))
    load = lambda ps: [json.loads(p.read_text()) for p in ps]
    return load(a), load(b)


def main(argv):
    if len(argv) < 2:
        sys.exit(__doc__)
    with open(ROOT / "BENCHMARK.json") as f:
        bench = json.load(f)
    defs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    reps_a, reps_b = load_groups(argv)
    n = min(len(reps_a), len(reps_b))
    reps_a, reps_b = reps_a[:n], reps_b[:n]
    first = [ra["started"] < rb["started"] for ra, rb in zip(reps_a, reps_b)]
    alternating = all(x != y for x, y in zip(first, first[1:]))
    paired = n >= MIN_PAIRS and alternating
    if not paired:
        print("note: %d pairs%s; every row is unresolved (need >= %d alternating pairs)"
              % (n, "" if alternating else ", not alternating", MIN_PAIRS))

    failed = lambda reps: sum(w["failed"] for r in reps for w in r["workloads"].values())
    more_failures = failed(reps_b) > failed(reps_a)
    if more_failures:
        print("B failed %d cells, A %d: no gain counts" % (failed(reps_b), failed(reps_a)))

    print("%-14s %-28s %14s %14s %14s %6s  %s" % (
        "workload", "metric", "A median", "B median", "A IQR", "B wins", "verdict"))
    marks = []
    for w in sorted(reps_a[0]["workloads"]):
        if any(w not in r["workloads"] for r in reps_a + reps_b):
            continue
        for metric, d in defs.items():
            if any(metric not in r["workloads"][w]["metrics"] for r in reps_a + reps_b):
                continue
            a = [r["workloads"][w]["metrics"][metric]["value"] for r in reps_a]
            b = [r["workloads"][w]["metrics"][metric]["value"] for r in reps_b]
            mark = verdict(a, b, d["better"], d.get("bound"), paired)
            if mark == "better" and more_failures:
                mark = "unresolved"
            marks.append(mark)
            sign = 1 if d["better"] == "lower" else -1
            wins = sum(1 for x, y in zip(a, b) if sign * (x - y) > 0)
            q = statistics.quantiles(a, n=4) if n > 1 else [a[0]] * 3
            print("%-14s %-28s %14.6g %14.6g %14.6g %3d/%-2d  %s" % (
                w, metric, statistics.median(a), statistics.median(b), q[2] - q[0],
                wins, n, mark))
    return 1 if more_failures or "worse" in marks else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
