#!/usr/bin/env python3
"""Regression tests for scripts/perf_gate.py.

Feeds the gate synthetic perfbench outputs (a few metric lines, then
the JSON summary line) and checks its verdict against the real
BENCHMARK.json: the gated metrics, their direction and their bounds
all come from that file.  Registered as a ctest (perf_gate).
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

REPO = os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__))))
GATE = os.path.join(REPO, "scripts", "perf_gate.py")

with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as fh:
    END_TO_END = {m["name"]: m for m in json.load(fh)["end_to_end"]}

BASE_VALUES = {
    "sim_us_per_s": 1000.0,
    "setup_s": 2.0,
    "peak_rss_mb": 100.0,
    "paper_err_pct": 5.0,
}


def summary(values, correct=True, failed=0):
    return {
        "correct": correct,
        "attempted": 10,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": END_TO_END[name]["unit"]}
                    for name, v in values.items()},
    }


def worsened(name, fraction):
    """BASE_VALUES with metric @p name made worse by @p fraction."""
    values = dict(BASE_VALUES)
    sign = -1 if END_TO_END[name]["better"] == "higher" else 1
    values[name] *= 1 + sign * fraction
    return values


class PerfGateTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()

    def tearDown(self):
        self.tmp.cleanup()

    def write(self, name, doc):
        path = os.path.join(self.tmp.name, name)
        with open(path, "w", encoding="utf-8") as fh:
            # perfbench prints its metric table before the summary line.
            fh.write("  sim_us_per_s    1000 sim_us/s\n")
            fh.write(json.dumps(doc) + "\n")
        return path

    def gate(self, head, base=None):
        base = base or summary(BASE_VALUES)
        proc = subprocess.run(
            [sys.executable, GATE, self.write("base.out", base),
             self.write("head.out", head)],
            capture_output=True, text=True, check=False)
        return proc.returncode, proc.stdout + proc.stderr

    def test_gates_every_end_to_end_metric(self):
        self.assertEqual(set(END_TO_END), set(BASE_VALUES))

    def test_within_bounds_passes(self):
        values = dict(BASE_VALUES)
        for name, spec in END_TO_END.items():
            values[name] = worsened(name, spec["bound"] / 2)[name]
        code, out = self.gate(summary(values))
        self.assertEqual(code, 0, out)

    def test_improvement_passes(self):
        values = {name: worsened(name, -0.5)[name] for name in BASE_VALUES}
        code, out = self.gate(summary(values))
        self.assertEqual(code, 0, out)

    def test_sim_us_per_s_30pct_lower_fails(self):
        code, out = self.gate(summary(worsened("sim_us_per_s", 0.30)))
        self.assertEqual(code, 1, out)
        self.assertIn("FAIL sim_us_per_s", out)

    def test_peak_rss_20pct_higher_fails(self):
        code, out = self.gate(summary(worsened("peak_rss_mb", 0.20)))
        self.assertEqual(code, 1, out)
        self.assertIn("FAIL peak_rss_mb", out)

    def test_one_more_failed_run_fails(self):
        code, out = self.gate(summary(BASE_VALUES, failed=2),
                              base=summary(BASE_VALUES, failed=1))
        self.assertEqual(code, 1, out)
        self.assertIn("FAIL failed runs", out)

    def test_incorrect_head_fails(self):
        code, out = self.gate(summary(BASE_VALUES, correct=False))
        self.assertEqual(code, 1, out)
        self.assertIn("FAIL correct", out)

    def test_metric_missing_from_head_fails(self):
        values = dict(BASE_VALUES)
        del values["setup_s"]
        code, out = self.gate(summary(values))
        self.assertEqual(code, 1, out)
        self.assertIn("FAIL setup_s", out)

    def test_unreadable_input_is_a_usage_error(self):
        path = os.path.join(self.tmp.name, "empty.out")
        open(path, "w", encoding="utf-8").close()
        proc = subprocess.run(
            [sys.executable, GATE, path, path],
            capture_output=True, text=True, check=False)
        self.assertEqual(proc.returncode, 2, proc.stdout + proc.stderr)


if __name__ == "__main__":
    unittest.main(verbosity=2)
