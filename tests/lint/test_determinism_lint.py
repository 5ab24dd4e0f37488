#!/usr/bin/env python3
"""Regression tests for scripts/lint/determinism_lint.py.

Drives the linter as a subprocess against the checked-in fixture tree
(tests/lint/fixtures/src mirrors the real src/ layout so the
path-scoped rules fire) and asserts the exact findings, waiver
handling, and shrink-only baseline semantics.  Registered as a ctest
(lint_determinism) so the linter itself is under the same regression
gate as the simulator.
"""

import os
import subprocess
import sys
import tempfile
import unittest

REPO = os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__))))
LINTER = os.path.join(REPO, "scripts", "lint", "determinism_lint.py")
FIXTURES = os.path.join(REPO, "tests", "lint", "fixtures", "src")

# Every finding the fixture tree must produce: (rule, path, line).
EXPECTED = {
    ("rng", "src/common/bad_rng.cc", 10),
    ("rng", "src/common/bad_rng.cc", 11),
    ("wall-clock", "src/common/bad_wallclock.cc", 9),
    ("wall-clock", "src/obs/bad_wallclock.cc", 8),
    ("wall-clock", "src/obs/bad_wallclock.cc", 10),
    ("naked-packet-new", "src/hmc/bad_packet_new.cc", 13),
    ("naked-packet-new", "src/hmc/bad_packet_new.cc", 19),
    ("unordered-iter", "src/hmc/bad_unordered.cc", 14),
    ("std-function", "src/sim/bad_std_function.cc", 7),
    ("std-function", "src/noc/bad_std_function.cc", 7),
    ("std-function", "src/sim/bad_waiver.cc", 8),
    ("waiver", "src/sim/bad_waiver.cc", 7),
}

# Fixture files that must stay silent.
CLEAN_FILES = {
    "src/common/clean.cc",
    "src/sim/waived_std_function.cc",
}


def run_linter(*extra):
    """Run the linter on the fixture tree; return (exit, stdout)."""
    proc = subprocess.run(
        [sys.executable, LINTER, "--engine", "regex", "--src", FIXTURES,
         *extra],
        capture_output=True, text=True, cwd=REPO, check=False)
    return proc.returncode, proc.stdout


def parse_findings(stdout):
    found = set()
    for line in stdout.splitlines():
        if line.startswith("determinism_lint:"):
            continue
        loc, rest = line.split(": [", 1)
        rule = rest.split("]", 1)[0]
        if rule == "baseline":
            continue
        path, lineno = loc.rsplit(":", 1)
        found.add((rule, path, int(lineno)))
    return found


class FindingsTest(unittest.TestCase):
    def test_exact_findings(self):
        code, out = run_linter("--no-baseline")
        self.assertEqual(code, 1, out)
        self.assertEqual(parse_findings(out), EXPECTED)

    def test_clean_files_stay_silent(self):
        _code, out = run_linter("--no-baseline")
        for path in CLEAN_FILES:
            self.assertNotIn(path, out)

    def test_explicit_file_list(self):
        bad = os.path.join(FIXTURES, "common", "bad_rng.cc")
        proc = subprocess.run(
            [sys.executable, LINTER, "--engine", "regex", "--src",
             FIXTURES, "--no-baseline", bad],
            capture_output=True, text=True, cwd=REPO, check=False)
        self.assertEqual(proc.returncode, 1)
        found = parse_findings(proc.stdout)
        self.assertEqual({f[0] for f in found}, {"rng"})


class BaselineTest(unittest.TestCase):
    def setUp(self):
        fd, self.baseline = tempfile.mkstemp(suffix=".txt")
        os.close(fd)

    def tearDown(self):
        os.unlink(self.baseline)

    def test_write_then_pass(self):
        code, out = run_linter("--baseline", self.baseline,
                               "--write-baseline")
        self.assertEqual(code, 0, out)
        code, out = run_linter("--baseline", self.baseline)
        # The reasonless waiver is never baselineable, so the run still
        # fails -- but only with the waiver problem, no rule findings.
        self.assertEqual(code, 1, out)
        found = parse_findings(out)
        self.assertEqual({f[0] for f in found}, {"waiver"})

    def test_baselined_rules_suppressed(self):
        run_linter("--baseline", self.baseline, "--write-baseline")
        with open(self.baseline, encoding="utf-8") as fh:
            entries = [l for l in fh
                       if l.strip() and not l.startswith("#")]
        # One entry per (rule, file) pair with a real rule.
        self.assertEqual(len(entries),
                         len({(rule, path) for rule, path, _ in EXPECTED
                              if rule != "waiver"}))
        for entry in entries:
            rule, path = entry.rstrip("\n").split("\t")
            self.assertIn(rule, ("wall-clock", "rng", "unordered-iter",
                                 "std-function", "naked-packet-new"))
            self.assertTrue(path.startswith("src/"))

    def test_new_finding_beyond_baseline_fails(self):
        # Baseline everything except the rng file -> rng must fail.
        run_linter("--baseline", self.baseline, "--write-baseline")
        with open(self.baseline, encoding="utf-8") as fh:
            kept = [l for l in fh if "bad_rng" not in l]
        with open(self.baseline, "w", encoding="utf-8") as fh:
            fh.writelines(kept)
        code, out = run_linter("--baseline", self.baseline)
        self.assertEqual(code, 1)
        self.assertIn("bad_rng.cc", out)

    def test_stale_entry_fails_shrink_only(self):
        run_linter("--baseline", self.baseline, "--write-baseline")
        with open(self.baseline, "a", encoding="utf-8") as fh:
            fh.write("rng\tsrc/common/no_longer_exists.cc\n")
        code, out = run_linter("--baseline", self.baseline)
        self.assertEqual(code, 1)
        self.assertIn("stale", out)
        self.assertIn("no_longer_exists.cc", out)


class RealTreeTest(unittest.TestCase):
    def test_real_src_is_clean(self):
        """The actual simulator tree must lint clean against its
        checked-in baseline -- this is the same invocation CI runs."""
        proc = subprocess.run(
            [sys.executable, LINTER, "--engine", "regex"],
            capture_output=True, text=True, cwd=REPO, check=False)
        self.assertEqual(proc.returncode, 0,
                         proc.stdout + proc.stderr)


if __name__ == "__main__":
    unittest.main(verbosity=2)
