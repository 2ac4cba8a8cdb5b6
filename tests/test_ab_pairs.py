#!/usr/bin/env python3
"""Verdict logic of tools/ab_pairs.py, on canned pairs (no build, no runs).

    python3 tests/test_ab_pairs.py

tests/data/ab_pairs_canned.json holds paired runs shaped to draw each
verdict; its "expect" entries name the verdict each metric must get.  The
sibling ab_pairs_cpu_worse.json and ab_pairs_setup_worse.json set the exit
status: a worse cpu_s fails the pairs, a worse setup_s alone does not.
"""

import importlib.util
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CANNED = os.path.join(HERE, "data", "ab_pairs_canned.json")
CPU_WORSE = os.path.join(HERE, "data", "ab_pairs_cpu_worse.json")
SETUP_WORSE = os.path.join(HERE, "data", "ab_pairs_setup_worse.json")
TOOL = os.path.join(ROOT, "tools", "ab_pairs.py")

spec = importlib.util.spec_from_file_location("ab_pairs", TOOL)
ab = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab)


class CannedPairs(unittest.TestCase):
    def test_every_metric_gets_its_expected_verdict(self):
        with open(CANNED) as f:
            doc = json.load(f)
        for key, entry in doc["pairs"].items():
            specs = ab.metric_specs(key.endswith("_traced"))
            wanted = {m: specs[m] for m in entry["expect"]}
            summary = ab.summarize(entry["runs"], wanted)
            for metric, verdict in entry["expect"].items():
                with self.subTest(key=key, metric=metric):
                    self.assertEqual(summary[metric]["verdict"], verdict)

    def test_claimed_gain_reports_its_wins_and_the_parent_iqr(self):
        with open(CANNED) as f:
            doc = json.load(f)
        runs = doc["pairs"]["canned_seed1"]["runs"]
        s = ab.summarize(runs, {"peak_rss_mb": ("lower", 0.1)})["peak_rss_mb"]
        self.assertEqual(s["change_lower"], "10/10")
        self.assertAlmostEqual(s["parent_iqr"], s["parent_q3"] - s["parent_q1"])
        self.assertGreater(s["parent_median"] - s["change_median"], s["parent_iqr"])

    def test_summarize_prints_every_pair_set(self):
        out = subprocess.run([sys.executable, TOOL, "--summarize", CANNED],
                             stdout=subprocess.PIPE, text=True, check=True).stdout
        self.assertIn("canned_seed1:", out)
        self.assertIn("canned_seed1_traced:", out)
        self.assertIn("11549547 [11549547, 11549547]", out)

    def test_only_a_worse_cpu_s_fails_the_pairs(self):
        for path, status in ((CPU_WORSE, 1), (SETUP_WORSE, 0)):
            with open(path) as f:
                (entry,) = json.load(f)["pairs"].values()
            summary = ab.summarize(entry["runs"], ab.metric_specs(False))
            proc = subprocess.run([sys.executable, TOOL, "--summarize", path],
                                  stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                  text=True)
            with self.subTest(path=os.path.basename(path)):
                for metric, verdict in entry["expect"].items():
                    self.assertEqual(summary[metric]["verdict"], verdict)
                self.assertEqual(proc.returncode, status, proc.stderr)
                self.assertEqual("cpu_s is worse" in proc.stderr, status == 1)


class VerdictRule(unittest.TestCase):
    def test_nine_of_ten_wins_need_a_gap_over_the_parent_iqr(self):
        parent = [100.0, 101, 102, 103, 104, 105, 106, 107, 108, 109]  # IQR 4.5
        close = [p - 0.5 for p in parent[:9]] + [109.5]  # 9/10 wins, gap 0.5
        self.assertEqual(ab.verdict(parent, close, "lower", 0.25)["verdict"], "no worse")
        far = [p - 6 for p in parent[:9]] + [109.5]  # 9/10 wins, gap 6
        self.assertEqual(ab.verdict(parent, far, "lower", 0.25)["verdict"], "better")

    def test_eight_of_ten_wins_is_no_gain(self):
        parent = [1.0] * 10
        change = [0.5] * 8 + [1.5] * 2
        self.assertEqual(ab.verdict(parent, change, "lower", 0.25)["change_lower"], "8/10")
        self.assertNotEqual(ab.verdict(parent, change, "lower", 0.25)["verdict"], "better")

    def test_ties_count_for_neither_side(self):
        s = ab.verdict([5, 5, 5, 6], [5, 5, 5, 5], "lower", None)
        self.assertEqual(s["change_lower"], "1/4")

    def test_higher_is_better_metrics_flip_the_sign(self):
        parent = [100, 101, 102, 103, 104, 105, 106, 107, 108, 109]
        change = [p + 50 for p in parent]
        s = ab.verdict(parent, change, "higher", None)
        self.assertEqual(s["change_higher"], "10/10")
        self.assertEqual(s["verdict"], "better")
        self.assertEqual(ab.verdict(change, parent, "higher", None)["verdict"], "worse")

    def test_wide_spread_is_unresolved_unless_every_run_is_better(self):
        parent = [1.0, 2.0, 1.0, 2.0]
        self.assertEqual(ab.verdict(parent, [1.1, 1.9, 1.2, 2.1], "lower", 0.25)["verdict"],
                         "unresolved")
        self.assertEqual(ab.verdict(parent, [0.9] * 4, "lower", 0.25)["verdict"], "no worse")

    def test_uneven_sides_are_refused(self):
        with self.assertRaises(ValueError):
            ab.verdict([1.0, 2.0], [1.0], "lower", None)


if __name__ == "__main__":
    unittest.main()
