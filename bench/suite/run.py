#!/usr/bin/env python3
"""Runner of the repository benchmark (bench/suite/README.md).

Builds the ibwan_suite driver from source, runs each workload as one
driver process per rep, checks correctness and prints every metric by
name with its unit and rep count. The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.

    python3 bench/suite/run.py                 # all workloads, end-to-end metrics
    python3 bench/suite/run.py --trace         # all workloads, per-layer metrics
    python3 bench/suite/run.py --workload wan_loss --seed 7 --seconds 30 --trace 0
    python3 bench/suite/run.py --smoke         # tiny cells, for tests only

Reps run on the sequential engine. Without --seconds a workload runs 3
reps; a traced run makes one traced rep, one untraced rep and one
site-parallel rep, which gives the sim.pdes.* metrics. With --seconds
it repeats reps until the time is spent.
"""
import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
BUILD = ROOT / ".bench_build" / "ibwan_suite"
REP_TIMEOUT_S = 60


def load_benchmark():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Configures (once) and builds the driver; exits 2 on failure."""
    BUILD.mkdir(parents=True, exist_ok=True)
    steps = []
    if not any((BUILD / f).exists() for f in ("build.ninja", "Makefile")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(SUITE), "-B", str(BUILD), *gen,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
            sys.stderr.write("run.py: build failed: %s\n" % " ".join(cmd))
            sys.exit(2)
    return BUILD / "ibwan_suite"


def run_rep(driver, workload, seed, smoke, trace, par_sites=None):
    """One driver process; returns its parsed JSON lines as a record."""
    cmd = [str(driver), "--workload", workload, "--seed", str(seed)]
    cmd += ["--smoke"] if smoke else []
    cmd += ["--trace"] if trace else []
    cmd += ["--par-sites", str(par_sites)] if par_sites else []
    env = {k: v for k, v in os.environ.items() if not k.startswith("IBWAN_")}
    rec = {"trace": trace, "par_sites": par_sites, "plan": None, "cells": [],
           "summary": None, "error": None}
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        rec["error"] = "timed out after %d s" % REP_TIMEOUT_S
        return rec
    for line in proc.stdout.splitlines():
        msg = json.loads(line)
        if "plan" in msg:
            rec["plan"] = msg["plan"]
        elif "cell" in msg:
            rec["cells"].append(msg["cell"])
        elif "summary" in msg:
            rec["summary"] = msg["summary"]
    if rec["plan"] is None:
        rec["error"] = "driver exited %d: %s" % (proc.returncode, proc.stderr.strip()[-500:])
    elif rec["summary"] is None:
        rec["error"] = "driver died (exit %d) after %d of %d cells" % (
            proc.returncode, len(rec["cells"]), len(rec["plan"]["cells"]))
    return rec


def fingerprint(cell):
    """Events executed, final simulated time and the simulated result."""
    return "%d|%d|%s" % (cell["events"], cell["end_ns"], cell["result"])


def stats(values, unit):
    values = sorted(values)
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"value": med, "unit": unit, "q1": q1, "q3": q3, "n": len(values)}


def pdes_per_rep(par, plain):
    """sim.pdes.* values, one per site-parallel rep, from its cells.

    The speed-up divides the median sequential run_s of the untraced reps
    by the site-parallel rep's run_s.
    """
    seq_s = statistics.median(sum(c["run_s"] for c in r["cells"]) for r in plain) if plain else 0
    values = {}
    for r in par:
        cells = r["cells"]
        windows = sum(c["windows"] for c in cells)
        run_s = sum(c["run_s"] for c in cells)
        thread_s = sum(c["threads"] * c["run_s"] for c in cells)
        rep = {
            "sim.pdes.windows": windows,
            "sim.pdes.events_per_window": sum(c["events"] for c in cells) / windows if windows else 0.0,
            "sim.pdes.channel_msgs": sum(c["channel_msgs"] for c in cells),
            "sim.pdes.tie_arrivals": sum(c["tie_arrivals"] for c in cells),
            "sim.pdes.idle_frac": 1.0 - sum(c["cpu_s"] for c in cells) / thread_s if thread_s else 0.0,
            "sim.pdes.speedup": seq_s / run_s if run_s and seq_s else 0.0,
        }
        for name, v in rep.items():
            values.setdefault(name, []).append(v)
    return values


def aggregate(records, bench, trace):
    """Folds one workload's rep records into counts, fingerprint and metrics.

    A cell instance fails when its checks fail, it threw, its process
    died before reporting it, or its fingerprint differs between any two
    processes (reps, traced or not, sequential or site-parallel).
    """
    attempted, failed, errors = 0, set(), []
    by_cell = {}  # cell name -> [(rep index, fingerprint)]
    for i, rec in enumerate(records):
        if rec["error"]:
            errors.append(rec["error"])
        planned = rec["plan"]["cells"] if rec["plan"] else ["<process>"]
        seen = {c["name"]: c for c in rec["cells"]}
        for name in planned:
            attempted += 1
            cell = seen.get(name)
            if cell is None:
                failed.add((i, name))
                continue
            if not cell["ok"]:
                failed.add((i, name))
                errors.append("%s: %s" % (name, cell["error"] or "; ".join(cell["failed_checks"])))
            by_cell.setdefault(name, []).append((i, fingerprint(cell)))
    digest = hashlib.sha256()
    for name in sorted(by_cell):
        prints = by_cell[name]
        if len({p for _, p in prints}) > 1:
            failed.update((i, name) for i, _ in prints)
            errors.append("%s: fingerprint differs across processes" % name)
        digest.update(("%s=%s\n" % (name, prints[0][1])).encode())

    done = [r for r in records if r["summary"] is not None]
    plain = [r for r in done if not r["trace"] and not r["par_sites"]]
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    metrics = {}
    if trace:
        traced = [r for r in done if r["trace"]]
        per_rep = pdes_per_rep([r for r in done if r["par_sites"]], plain)
        if traced and plain:
            per_rep["trace.overhead_frac"] = [
                statistics.median(sum(c["run_s"] for c in r["cells"]) for r in traced)
                / statistics.median(sum(c["run_s"] for c in r["cells"]) for r in plain) - 1.0]
        for name in (m["name"] for m in bench["per_layer"]):
            if name in per_rep:
                metrics[name] = stats(per_rep[name], units[name])
            elif traced and name in traced[0]["summary"]["layers"]:
                metrics[name] = stats([r["summary"]["layers"][name] for r in traced], units[name])
    elif plain:
        per_rep = {
            "run_s": [sum(c["run_s"] for c in r["cells"]) for r in plain],
            "setup_s": [sum(c["setup_s"] for c in r["cells"]) for r in plain],
            "peak_rss_mb": [r["summary"]["peak_rss_mb"] for r in plain],
        }
        for m in bench["end_to_end"]:
            if m["name"] in per_rep:
                metrics[m["name"]] = stats(per_rep[m["name"]], m["unit"])
    expected = [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]
    missing = [n for n in expected if n not in metrics]
    if missing:
        errors.append("metrics not produced: " + ", ".join(missing))
    return {"attempted": attempted, "failed": len(failed), "errors": errors,
            "fingerprint": digest.hexdigest(), "metrics": metrics,
            "complete": not missing}


def run_workload(driver, name, args):
    """Runs the reps of one workload; returns their records."""
    trace = bool(args.trace)
    start = time.monotonic()
    records = [run_rep(driver, name, args.seed, args.smoke, trace)]
    plan = records[0]["plan"]
    if plan is None:
        return records
    if trace:
        # Untraced twin (overhead, metrics on/off check) and the
        # site-parallel engine's run (PDES stats, same fingerprint).
        records.append(run_rep(driver, name, args.seed, args.smoke, False))
        records.append(run_rep(driver, name, args.seed, args.smoke, False,
                               par_sites=plan["pdes_sites"]))
    if args.seconds is None:
        while not trace and len(records) < 3:
            records.append(run_rep(driver, name, args.seed, args.smoke, False))
        return records
    # Timed: start another rep (or traced/untraced pair) only while it
    # is expected to finish inside the budget; within the budget, keep
    # at least two plain reps so the cross-process fingerprint check
    # always has a pair.
    plain = lambda: sum(1 for r in records if not r["trace"] and not r["par_sites"])
    while True:
        elapsed = time.monotonic() - start
        per_rep = elapsed / len(records)
        step = 2 if trace else 1
        if elapsed + step * per_rep > args.seconds and (plain() >= 2 or elapsed > args.seconds):
            return records
        if trace:
            records.append(run_rep(driver, name, args.seed, args.smoke, True))
        records.append(run_rep(driver, name, args.seed, args.smoke, False))


def exit_status(results):
    """0 only when every workload ran clean and produced every metric."""
    return 0 if all(r["failed"] == 0 and r["complete"] for r in results.values()) else 1


def main(argv=None):
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=names + ["all"], default="all")
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=None,
                    help="repeat reps for this long instead of a fixed count")
    ap.add_argument("--trace", type=int, choices=[0, 1], nargs="?", const=1, default=0,
                    help="per-layer metrics from a traced run")
    ap.add_argument("--smoke", action="store_true", help="tiny cells, for tests only")
    ap.add_argument("--out", help="also write the full report as JSON to this file")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be a non-negative integer")

    driver = build()
    started = time.time()
    wall0 = time.monotonic()
    selected = names if args.workload == "all" else [args.workload]
    results = {}
    for name in selected:
        res = aggregate(run_workload(driver, name, args), bench, bool(args.trace))
        results[name] = res
        print("%s: %d/%d cells failed, fingerprint %s" % (
            name, res["failed"], res["attempted"], res["fingerprint"][:16]))
        for err in res["errors"]:
            print("  ERROR " + err)
        for metric, m in res["metrics"].items():
            print("  %-28s %12.6g %-8s (q1 %.6g, q3 %.6g, n=%d)" % (
                metric, m["value"], m["unit"], m["q1"], m["q3"], m["n"]))
    wall = time.monotonic() - wall0
    print("total %.1f s" % wall)

    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    if args.out:
        report = {"seed": args.seed, "trace": bool(args.trace), "smoke": args.smoke,
                  "seconds": args.seconds, "started": started, "wall_s": wall,
                  "workloads": results}
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1, sort_keys=True)
    if len(selected) == 1:
        metrics = results[selected[0]]["metrics"]
    else:
        metrics = {"%s/%s" % (w, k): v for w, r in results.items() for k, v in r["metrics"].items()}
    status = exit_status(results)
    print(json.dumps({
        "correct": status == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()},
    }))
    return status


if __name__ == "__main__":
    sys.exit(main())
