"""Tests of the benchmark runner's arithmetic and result-line parser.

    python3 -m unittest discover -s perfbench/tests
"""
import json
import os
import statistics
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                ".."))
import benchlib  # noqa: E402

UNITS = {"wall_s": "s", "setup_s": "s"}


def line(**overrides):
    result = {"correct": True, "attempted": 10, "failed": 0,
              "metrics": {"wall_s": {"value": 1.5, "unit": "s"},
                          "setup_s": {"value": 0.01, "unit": "s"}}}
    result.update(overrides)
    return json.dumps(result)


class Arithmetic(unittest.TestCase):
    def test_median(self):
        self.assertEqual(benchlib.median([3, 1, 2]), 2)
        self.assertEqual(benchlib.median([4, 1, 3, 2]), 2.5)
        with self.assertRaises(ValueError):
            benchlib.median([])

    def test_quartiles_match_statistics_module(self):
        values = [1.0, 2.0, 4.0, 8.0, 16.0, 3.0, 5.0, 7.0, 9.0, 11.0]
        q = statistics.quantiles(values, n=4)
        self.assertEqual(benchlib.quartiles(values), (q[0], q[2]))
        # Exclusive method on 1..10: q1 = 2.75, q3 = 8.25.
        self.assertEqual(benchlib.quartiles(list(range(1, 11))), (2.75, 8.25))

    def test_spread_is_iqr_over_median(self):
        self.assertAlmostEqual(benchlib.spread(list(range(1, 11))),
                               (8.25 - 2.75) / 5.5)
        self.assertEqual(benchlib.spread([2.0] * 10), 0.0)
        with self.assertRaises(ValueError):
            benchlib.spread([0.0] * 4)

    def test_worsening_follows_direction(self):
        self.assertAlmostEqual(benchlib.worsening(1.0, 1.2, "lower"), 0.2)
        self.assertAlmostEqual(benchlib.worsening(1.0, 0.8, "lower"), -0.2)
        self.assertAlmostEqual(benchlib.worsening(100, 80, "higher"), 0.2)
        with self.assertRaises(ValueError):
            benchlib.worsening(1.0, 1.0, "sideways")

    def test_within_bound_edges(self):
        self.assertTrue(benchlib.within_bound(1.0, 1.1, "lower", 0.1 + 1e-12))
        self.assertFalse(benchlib.within_bound(1.0, 1.11, "lower", 0.1))
        self.assertTrue(benchlib.within_bound(100, 95, "higher", 0.05))
        self.assertFalse(benchlib.within_bound(100, 94, "higher", 0.05))


class Parser(unittest.TestCase):
    def test_accepts_a_good_line(self):
        r = benchlib.parse_result_line(line(), UNITS)
        self.assertEqual(r["metrics"]["wall_s"]["value"], 1.5)

    def test_rejects_bad_lines(self):
        bad = [
            "not json",
            json.dumps([1, 2]),
            json.dumps({"correct": True, "attempted": 1, "failed": 0}),
            line(extra=1),
            line(correct="yes"),
            line(attempted=0),
            line(attempted=1.5),
            line(attempted=True),
            line(failed=-1),
            line(failed=11),
            line(metrics={"wall_s": {"value": 1.0, "unit": "s"}}),
            line(metrics={"wall_s": {"value": 1.0, "unit": "ms"},
                          "setup_s": {"value": 0.01, "unit": "s"}}),
            line(metrics={"wall_s": {"value": float("nan"), "unit": "s"},
                          "setup_s": {"value": 0.01, "unit": "s"}}),
            line(metrics={"wall_s": {"value": "1", "unit": "s"},
                          "setup_s": {"value": 0.01, "unit": "s"}}),
            line(metrics={"wall_s": {"value": 1.0},
                          "setup_s": {"value": 0.01, "unit": "s"}}),
        ]
        for text in bad:
            with self.assertRaises(ValueError, msg=text):
                benchlib.parse_result_line(text, UNITS)

    def test_expected_metrics_by_trace_mode(self):
        bench = {"end_to_end": [{"name": "a", "unit": "s", "better": "lower",
                                 "bound": 0.1}],
                 "per_layer": [{"name": "b", "unit": "ns",
                                "better": "lower"}]}
        self.assertEqual(benchlib.expected_metrics(bench, 0), {"a": "s"})
        self.assertEqual(benchlib.expected_metrics(bench, 1), {"b": "ns"})

    def test_benchmark_file_matches_the_contract(self):
        root = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))))
        with open(os.path.join(root, "BENCHMARK.json")) as f:
            bench = json.load(f)
        self.assertEqual(set(bench), {"command", "paths", "run_seconds",
                                      "workloads", "end_to_end", "per_layer"})
        names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        e2e = {m["name"]: m for m in bench["end_to_end"]}
        self.assertEqual(e2e["setup_s"]["unit"], "s")
        self.assertEqual(max(m["bound"] for m in e2e.values()),
                         e2e["setup_s"]["bound"])
        for m in e2e.values():
            self.assertLessEqual(m["bound"], 0.25)


class NativeSelfTest(unittest.TestCase):
    """The C++ half (order statistics, and the OpenSSL checker against the
    RFC 4231 and FIPS 180 vectors), once run.py has built it."""

    def test_selftest_binary(self):
        root = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))))
        binary = os.path.join(root, ".bench_build", "perfbench",
                              "perfbench_selftest")
        if not os.path.exists(binary):
            self.skipTest("perfbench not built yet (run perfbench/run.py)")
        done = subprocess.run([binary], capture_output=True, text=True,
                              check=False)
        self.assertEqual(done.returncode, 0, done.stderr)


if __name__ == "__main__":
    unittest.main()
