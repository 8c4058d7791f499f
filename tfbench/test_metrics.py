"""Tests of the benchmark's own arithmetic and input generation.

    python3 -m unittest discover -s tfbench -p 'test_*.py'

Run from the checkout root. The input-determinism test builds the harness
(as run.py does) on first use.
"""

import math
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import metrics as M  # noqa: E402
import run  # noqa: E402


class TailRule(unittest.TestCase):
    def test_exactly_ten_samples_lie_beyond(self):
        values = list(range(1, 101))
        value, pct, beyond = M.tail(values)
        self.assertEqual(value, 90)
        self.assertEqual(pct, 90.0)
        self.assertEqual(beyond, 10)
        self.assertEqual(sum(v > value for v in values), 10)

    def test_order_of_samples_does_not_matter(self):
        self.assertEqual(M.tail([5, 1, 4, 2, 3] * 5), M.tail(sorted([5, 1, 4, 2, 3] * 5)))

    def test_eleven_samples_give_the_smallest(self):
        value, pct, beyond = M.tail(range(11))
        self.assertEqual((value, beyond), (0, 10))
        self.assertAlmostEqual(pct, 100.0 / 11)

    def test_too_few_samples_qualify_no_percentile(self):
        self.assertEqual(M.tail([3, 1, 2]), (3, 100.0, 0))

    def test_failures_count_as_missing_any_limit(self):
        lat = [1.0] * 20 + [math.inf] * 10
        self.assertEqual(M.tail(lat)[0], 1.0)
        self.assertEqual(M.tail(lat + [math.inf])[0], math.inf)

    def test_failed_operations_enter_as_infinite_latency(self):
        lat = M.with_failures([2.0, 1.0, 3.0], [0.5, 0.7])
        self.assertEqual(sorted(lat), [1.0, 2.0, 3.0, math.inf, math.inf])
        self.assertEqual(M.median(lat), 3.0)
        self.assertEqual(M.with_failures([1.0], []), [1.0])


def span(i, parent, start, end, name="s"):
    return {"id": i, "parent": parent, "request": 1, "name": name, "start": start, "end": end}


class SelfTime(unittest.TestCase):
    def test_self_is_duration_minus_child_coverage(self):
        spans = [span(1, 0, 0, 100), span(2, 1, 10, 30), span(3, 1, 40, 60),
                 span(4, 2, 15, 20)]
        selfs = M.self_times(spans)
        self.assertEqual(selfs, {1: 60, 2: 15, 3: 20, 4: 5})
        self.assertEqual(sum(selfs.values()), 100)
        self.assertEqual(M.tree_violations(spans, selfs), [])

    def test_overlapping_children_are_covered_once_and_clipped(self):
        spans = [span(1, 0, 0, 100), span(2, 1, 10, 30), span(3, 1, 20, 50),
                 span(4, 1, 90, 120)]
        selfs = M.self_times(spans)
        self.assertEqual(selfs[1], 100 - (40 + 10))
        # Concurrent children add up to more than the root's wall time.
        bad = M.tree_violations(spans, selfs)
        self.assertEqual(len(bad), 1)
        self.assertEqual(bad[0][1:], (50 + 20 + 30 + 30, 100))

    def test_self_by_name_sums_over_spans(self):
        spans = [span(1, 0, 0, 10**9, "a"), span(2, 1, 0, 4 * 10**8, "b"),
                 span(3, 0, 0, 10**9, "b")]
        agg = M.self_by_name(spans)
        self.assertAlmostEqual(agg["a"][0], 0.6)
        self.assertAlmostEqual(agg["b"][0], 1.4)
        self.assertEqual(agg["b"][1], 2)


class OpenLoop(unittest.TestCase):
    def test_latency_counts_from_the_scheduled_time(self):
        # Second request was sent 50 ms late behind a stall; its latency
        # includes that wait.
        recs = [(0.0, 0.0, 0.002, True), (0.010, 0.060, 0.062, True), (0.020, 0.021, -1, False)]
        ph = M.open_loop(recs)
        self.assertAlmostEqual(ph["latency_ms"][0], 2.0)
        self.assertAlmostEqual(ph["latency_ms"][1], 52.0)
        self.assertEqual(ph["latency_ms"][2], math.inf)
        self.assertEqual(ph["failed"], 1)
        self.assertAlmostEqual(ph["late_ms"][1], 50.0)

    def test_backlog(self):
        flat = [(k * 0.01, k * 0.01, k * 0.01 + 0.002, True) for k in range(60)]
        growing = [(k * 0.01, k * 0.01, k * 0.01 + 0.002 + k * 0.004, True) for k in range(60)]
        self.assertFalse(M.backlog_growing(flat))
        self.assertTrue(M.backlog_growing(growing))

    def test_max_rps_stops_at_the_first_missed_rung(self):
        ok = [(k * 0.01, k * 0.01, k * 0.01 + 0.002, True) for k in range(60)]
        slow = [(k * 0.01, k * 0.01, k * 0.01 + 0.2, True) for k in range(60)]
        refused = ok[:40] + [(r[0], r[1], -1, False) for r in ok[40:]]
        self.assertEqual(M.max_rps([(100, ok), (200, ok), (300, slow), (400, ok)], 100), 200)
        self.assertEqual(M.max_rps([(100, ok), (200, refused)], 100), 100)
        self.assertEqual(M.max_rps([(100, slow)], 100), 0.0)


class SeededInputs(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()

    def digest(self, workload, seed):
        out = subprocess.run([self.binary, "--workload", workload, "--seed", str(seed),
                              "--hash-inputs"], stdout=subprocess.PIPE, text=True, check=True)
        return out.stdout.strip()

    def test_one_seed_always_generates_identical_inputs(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                first = self.digest(workload, 7)
                self.assertEqual(len(first), 16)
                self.assertEqual(first, self.digest(workload, 7))
                self.assertNotEqual(first, self.digest(workload, 8))


if __name__ == "__main__":
    unittest.main()
