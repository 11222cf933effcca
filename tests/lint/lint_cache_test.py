#!/usr/bin/env python3
"""Incremental-lint tests for the per-file content-hash cache.

A warm cache plus a one-file edit must re-lint exactly that file, keep
every other verdict from the cache, and produce findings identical to a
cold full run.  Cost is asserted with a deliberately generous bound
(warm < 50% of cold on a 40-file project), measured in process CPU
time rather than wall time so that other load on the machine cannot
stretch one run and not the other; the <10% acceptance figure is a
property of the real tree, where parse cost dwarfs cache bookkeeping.

Runs under plain python3 (ctest) or pytest.
"""

import os
import shutil
import sys
import tempfile
import time
import unittest

REPO = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(REPO, "tools"))

from ibwan_lint import engine  # noqa: E402

N_FILES = 40

UNIT_TEMPLATE = """\
struct Sim%(i)d {
  void schedule(long delay_ns, void (*cb)());
};
void cb%(i)d() {}
void drive%(i)d(Sim%(i)d& sim, long gap_ns) {
  long warm_ns = gap_ns;
  for (int k = 0; k < 4; ++k) {
    sim.schedule(warm_ns, &cb%(i)d);
    warm_ns = warm_ns + gap_ns;
  }
}
"""

BAD_EDIT = """\
struct Sim0 {
  void schedule(long delay_ns, void (*cb)());
};
void cb0() {}
void drive0(Sim0& sim, long gap_ns) {
  (void)gap_ns;
  sim.schedule(4096, &cb0);
}
"""


def fp(findings):
    return [(os.path.basename(f.path), f.line, f.rule, f.suppressed)
            for f in findings]


class IncrementalLintTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.mkdtemp(prefix="ibwan_lint_cache_")
        self.cache = os.path.join(self.dir, ".lintcache.json")
        for i in range(N_FILES):
            with open(os.path.join(self.dir, f"unit{i:02d}.cpp"), "w") as fh:
                fh.write(UNIT_TEMPLATE % {"i": i})

    def tearDown(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    def _run(self):
        t0 = time.process_time()
        res = engine.run([self.dir], cache_path=self.cache)
        return res, time.process_time() - t0

    def test_one_file_edit_relints_one_file(self):
        cold, cold_s = self._run()
        self.assertEqual(cold.files_linted, N_FILES)
        self.assertEqual(cold.findings, [], "seed project should be clean")

        # Introduce a UNIT002 violation in exactly one file.
        with open(os.path.join(self.dir, "unit00.cpp"), "w") as fh:
            fh.write(BAD_EDIT)

        warm, warm_s = self._run()
        self.assertEqual(warm.files_linted, 1,
                         "only the edited file should re-run pass 2")
        self.assertEqual(warm.files_cached, N_FILES - 1)
        self.assertEqual(
            [os.path.basename(p) for p in warm.changed], ["unit00.cpp"])
        self.assertEqual(
            fp(warm.findings), [("unit00.cpp", 7, "UNIT002", False)])

        # Same edit, cold cache: verdicts must agree exactly.
        os.unlink(self.cache)
        full, _ = self._run()
        self.assertEqual(fp(full.findings), fp(warm.findings))

        # Generous CPU-time bound (see module docstring).
        self.assertLess(warm_s, cold_s * 0.5,
                        f"warm {warm_s:.3f}s vs cold {cold_s:.3f}s")

    def test_tool_change_invalidates_cache(self):
        self._run()
        # Forge a cache written by a different tool version.
        import json
        with open(self.cache) as fh:
            data = json.load(fh)
        data["tool"] = "0" * 64
        with open(self.cache, "w") as fh:
            json.dump(data, fh)
        res, _ = self._run()
        self.assertEqual(res.files_linted, N_FILES,
                         "a tool-digest mismatch must drop the cache")

    def test_changed_only_filters_to_edited_files(self):
        self._run()
        with open(os.path.join(self.dir, "unit00.cpp"), "w") as fh:
            fh.write(BAD_EDIT)
        with open(os.path.join(self.dir, "unit01.cpp"), "a") as fh:
            fh.write("void tail01(int x) { (void)x; }\n")
        res = engine.run([self.dir], cache_path=self.cache,
                         changed_only=True)
        self.assertEqual(sorted(os.path.basename(p) for p in res.changed),
                         ["unit00.cpp", "unit01.cpp"])
        self.assertEqual(
            fp(res.findings), [("unit00.cpp", 7, "UNIT002", False)])


if __name__ == "__main__":
    unittest.main(verbosity=2)
