#!/usr/bin/env python3
"""Self-tests of the benchmark (a few minutes on one core).

    python3 perfbench/test_bench.py

Checks BENCHMARK.json against the benchmark contract, that every
metric the program emits is declared, that every run's checks pass and
its digest matches the one pinned in digests.json, that simulated
metrics repeat exactly across runs and between traced and untraced
runs, and that a different seed changes the digest. Runs the real
inputs with --seconds 0 (the fewest passes a run makes) at seeds 3
and 4.
"""

import json
import os
import re
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH_RE = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")
SIMULATED = ["hl_recall_pct", "nl_recall_pct", "sim_ok_pct",
             "sim_read_p50_us", "sim_read_p999_us", "sim_mbps"]

_cache = {}


def sim(workload, seed, trace):
    """perfbench_sim report of a shortest run (memoized)."""
    key = (workload, seed, trace)
    if key not in _cache:
        _cache[key] = run.run_sim(workload, seed, 0, trace)
    return _cache[key]


class Contract(unittest.TestCase):
    def setUp(self):
        self.bench = run.load_json("BENCHMARK.json")

    def test_keys_and_limits(self):
        b = self.bench
        self.assertEqual(set(b), {"command", "paths", "run_seconds",
                                  "workloads", "end_to_end", "per_layer"})
        self.assertTrue(1 <= len(b["paths"]) <= 16)
        for p in b["paths"]:
            self.assertRegex(p, PATH_RE)
            self.assertFalse(p.startswith("/") or ".." in p.split("/"))
        self.assertTrue(1 <= len(b["command"]) <= 32)
        for c in b["command"]:
            self.assertTrue(len(c) <= 200 and not c.startswith("/"))
        self.assertIsInstance(b["run_seconds"], int)
        self.assertTrue(1 <= b["run_seconds"] <= 60)
        self.assertTrue(2 <= len(b["workloads"]) <= 8)
        self.assertTrue(1 <= len(b["end_to_end"]) <= 16)
        self.assertTrue(1 <= len(b["per_layer"]) <= 128)
        self.assertLessEqual(len(json.dumps(b)), 64 * 1024)

    def test_names_units_bounds(self):
        b = self.bench
        names = []
        for w in b["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertTrue(len(w["why"]) <= 200 and "\n" not in w["why"])
            names.append(w["name"])
        for m in b["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25, m["name"])
            names.append(m["name"])
        for m in b["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            names.append(m["name"])
        for m in b["end_to_end"] + b["per_layer"]:
            self.assertRegex(m["unit"], UNIT_RE)
            self.assertIn(m["better"], ("lower", "higher"))
        for n in names:
            self.assertRegex(n, NAME_RE)
        self.assertEqual(len(names), len(set(names)))
        setup = [m for m in b["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]),
                         ("s", "lower"))
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in b["end_to_end"]))

    def test_rationale_covers_every_workload(self):
        about = run.load_json("workloads.json")["workloads"]
        for w in self.bench["workloads"]:
            for key in ("why", "stresses", "bypasses", "input", "loop"):
                self.assertIn(key, about[w["name"]])


class Runs(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        if not run.build():
            raise RuntimeError("build failed")
        cls.bench = run.load_json("BENCHMARK.json")
        cls.workloads = [w["name"] for w in cls.bench["workloads"]]

    def test_emitted_metrics_are_declared_and_checks_pass(self):
        pinned = run.load_json("digests.json")
        for trace in (False, True):
            want = run.declared(self.bench, trace)
            for w in self.workloads:
                out = sim(w, 3, trace)
                self.assertIsNotNone(out, w)
                self.assertEqual(out["failed"], 0, w)
                for name, m in out["metrics"].items():
                    self.assertIn(name, want, (w, name))
                    self.assertEqual(m["unit"], want[name], (w, name))
                if not trace:
                    self.assertEqual(set(out["metrics"]), set(want), w)
                self.assertIn("3", pinned[w], w)
                result = run.evaluate(self.bench, pinned, out, trace)
                self.assertTrue(result["correct"], (w, trace))

    def test_simulated_metrics_repeat_and_ignore_tracing(self):
        for w in self.workloads:
            a = sim(w, 3, False)
            again = run.run_sim(w, 3, 0, False)
            traced = sim(w, 3, True)
            self.assertEqual(a["digest"], again["digest"], w)
            self.assertEqual(a["digest"], traced["digest"], w)
            for name in SIMULATED:
                self.assertEqual(a["metrics"][name]["value"],
                                 again["metrics"][name]["value"], (w, name))

    def test_other_seed_changes_digest(self):
        for w in self.workloads:
            self.assertNotEqual(sim(w, 3, False)["digest"],
                                sim(w, 4, False)["digest"], w)


if __name__ == "__main__":
    unittest.main()
