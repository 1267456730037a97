#!/usr/bin/env python3
"""Fixture self-tests of compare.py.

    python3 servebench/compare_test.py
"""

import os
import unittest

import compare

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "fixtures")
BOUNDS = {"query_p50_ms": ("lower", 0.1), "query_p99_ms": ("lower", 0.25),
          "setup_s": ("lower", 0.25), "query_max_rps": ("higher", 0.25),
          "fits_per_s": ("higher", 0.2)}


def verdicts():
    rows = compare.compare(
        compare.load_runs(os.path.join(FIXTURES, "base.jsonl"), 0),
        compare.load_runs(os.path.join(FIXTURES, "head.jsonl"), 0), BOUNDS)
    return {(r[0], r[1]): r[7] for r in rows}


class CompareTest(unittest.TestCase):
    def test_fixture_verdicts(self):
        self.assertEqual(verdicts(), {
            # +30% on a steady metric with a 10% bound.
            ("query_heavy", "query_p50_ms"): "regressed",
            # Spread near 50% against a 25% bound: not "unchanged".
            ("query_heavy", "query_p99_ms"): "unresolved",
            ("query_heavy", "setup_s"): "unchanged",
            # Wide spread, but every head run beats every base run.
            ("query_heavy", "query_max_rps"): "improved",
            ("query_heavy", "admission.shed"): "info",
            ("fit_churn", "fits_per_s"): "improved",
            ("fit_churn", "setup_s"): "unchanged",
        })

    def test_traced_records_are_kept_apart(self):
        runs = compare.load_runs(os.path.join(FIXTURES, "base.jsonl"), 1)
        self.assertEqual(runs, {"query_heavy": [{"query_p50_ms": 99.0}]})

    def test_quartiles_match_statistics_quantiles(self):
        median, q1, q3 = compare.summary([1.0, 2.0, 3.0, 4.0, 100.0])
        self.assertEqual((q1, median, q3), (1.5, 3.0, 52.0))

    def test_regression_sets_exit_status(self):
        status = compare.main([os.path.join(FIXTURES, "base.jsonl"),
                               os.path.join(FIXTURES, "head.jsonl")])
        self.assertEqual(status, 1)
        same = compare.main([os.path.join(FIXTURES, "base.jsonl"),
                             os.path.join(FIXTURES, "base.jsonl")])
        self.assertEqual(same, 0)


if __name__ == "__main__":
    unittest.main()
