#!/usr/bin/env python3
"""Tests of the benchmark suite. Run with: python3 bench/suite/test_suite.py

Builds the driver on first use (through run.py) and runs every workload
in --smoke size, untraced and traced.
"""
import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

SUITE = Path(__file__).resolve().parent
sys.path.insert(0, str(SUITE))
import compare  # noqa: E402
import run  # noqa: E402

BENCH = run.load_benchmark()
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def invoke(*args):
    """Runs run.py; returns (exit code, last stdout line as JSON, report)."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "report.json"
        proc = subprocess.run([sys.executable, str(SUITE / "run.py"), "--out", str(out), *args],
                              capture_output=True, text=True, timeout=900)
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        return proc.returncode, last, json.loads(out.read_text())


class SmokeRuns(unittest.TestCase):
    def assert_metrics(self, section, *args):
        code, last, report = invoke("--smoke", *args)
        self.assertEqual(code, 0, report)
        self.assertTrue(last["correct"])
        self.assertEqual(last["failed"], 0)  # fail_frac == 0
        self.assertGreater(last["attempted"], 0)
        want = {m["name"]: m["unit"] for m in BENCH[section]}
        for w in WORKLOADS:
            got = {k.split("/", 1)[1]: v["unit"] for k, v in last["metrics"].items()
                   if k.split("/", 1)[0] == w}
            self.assertEqual(got, want, w)
        return report

    def test_end_to_end_metrics(self):
        report = self.assert_metrics("end_to_end")
        for w in WORKLOADS:
            for name, m in report["workloads"][w]["metrics"].items():
                self.assertGreater(m["value"], 0, (w, name))

    def test_per_layer_metrics(self):
        self.assert_metrics("per_layer", "--trace")

    def test_seed_reaches_the_workload(self):
        prints = {}
        for seed in ("42", "1337"):
            for w in ("kv_mesh", "wan_loss"):
                code, _, report = invoke("--smoke", "--workload", w, "--seed", seed)
                self.assertEqual(code, 0)
                prints[seed, w] = report["workloads"][w]["fingerprint"]
        for w in ("kv_mesh", "wan_loss"):
            self.assertNotEqual(prints["42", w], prints["1337", w], w)


def record(result, ok=True, plan=("a", "b"), par_sites=None, run_s=1.0):
    threads, windows = (par_sites, 5) if par_sites else (1, 0)
    cells = [{"name": n, "ok": ok, "error": "", "failed_checks": [], "events": 10,
              "end_ns": 5, "result": result, "run_s": run_s, "setup_s": 0.1,
              "cpu_s": run_s, "threads": threads, "windows": windows,
              "channel_msgs": 3, "tie_arrivals": 0}
             for n in plan]
    return {"trace": False, "par_sites": par_sites, "plan": {"cells": list(plan)},
            "cells": cells, "summary": {"peak_rss_mb": 8.0, "layers": {}}, "error": None}


class Aggregator(unittest.TestCase):
    def test_agreeing_reps_pass(self):
        res = run.aggregate([record("x"), record("x")], BENCH, trace=False)
        self.assertEqual((res["failed"], res["attempted"]), (0, 4))
        self.assertEqual(run.exit_status({"w": res}), 0)

    def test_disagreeing_fingerprints_fail(self):
        res = run.aggregate([record("x"), record("y")], BENCH, trace=False)
        self.assertGreater(res["failed"] / res["attempted"], 0)
        self.assertNotEqual(run.exit_status({"w": res}), 0)

    def test_dead_process_fails_its_unreported_cells(self):
        dead = record("x")
        dead["cells"], dead["summary"], dead["error"] = dead["cells"][:1], None, "died"
        res = run.aggregate([record("x"), dead], BENCH, trace=False)
        self.assertEqual((res["failed"], res["attempted"]), (1, 4))
        self.assertNotEqual(run.exit_status({"w": res}), 0)

    def test_pdes_metrics_come_from_the_site_parallel_rep(self):
        par = record("x", par_sites=2, run_s=0.5)
        res = run.aggregate([record("x"), record("x"), par], BENCH, trace=True)
        m = {k: v["value"] for k, v in res["metrics"].items()}
        self.assertEqual(m["sim.pdes.windows"], 10)
        self.assertEqual(m["sim.pdes.events_per_window"], 2.0)
        self.assertEqual(m["sim.pdes.channel_msgs"], 6)
        self.assertEqual(m["sim.pdes.idle_frac"], 0.5)  # 1 CPU s over 2 threads x 1 s
        self.assertEqual(m["sim.pdes.speedup"], 2.0)

    def test_site_parallel_rep_that_disagrees_fails(self):
        res = run.aggregate([record("x"), record("y", par_sites=2)], BENCH, trace=True)
        self.assertGreater(res["failed"], 0)


class PairedRule(unittest.TestCase):
    def test_marks(self):
        a = [10.0 + 0.1 * i for i in range(10)]
        self.assertEqual(compare.verdict(a, [x - 2 for x in a], "lower", 0.1, True), "better")
        self.assertEqual(compare.verdict(a, [x + 3 for x in a], "lower", 0.1, True), "worse")
        self.assertEqual(compare.verdict(a, a, "lower", 0.1, True), "no-regression")
        self.assertEqual(compare.verdict(a, [x - 2 for x in a], "lower", 0.1, False), "unresolved")
        self.assertEqual(compare.verdict(a, a[::-1], "lower", None, True), "unresolved")


if __name__ == "__main__":
    unittest.main()
