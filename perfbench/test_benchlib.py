"""Tests of the benchmark's own arithmetic and of its correctness gate.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The gate tests build campaign_bench (as run.py does) and drive it on a
small study; the arithmetic tests need nothing built.
"""

import json
import shutil
import statistics
import subprocess
import tempfile
import unittest
from pathlib import Path

import benchlib


class Percentiles(unittest.TestCase):
    def test_interpolates_between_ranks(self):
        self.assertEqual(benchlib.percentile([1, 2, 3, 4, 5], 0.5), 3)
        self.assertEqual(benchlib.percentile([10, 20], 0.25), 12.5)
        self.assertEqual(benchlib.percentile([7], 0.9), 7)

    def test_p90_kept_once_ten_samples_lie_beyond(self):
        xs = list(range(1, 101))  # 100 samples
        value, used, n = benchlib.tail_percentile(xs, 0.90)
        self.assertEqual((used, n), (0.90, 100))
        self.assertGreaterEqual(sum(1 for x in xs if x > value), 10)

    def test_p90_lowered_until_ten_lie_beyond(self):
        for n in (20, 30, 50, 99):
            xs = list(range(n))
            value, used, _ = benchlib.tail_percentile(xs, 0.90)
            self.assertLess(used, 0.90)
            self.assertAlmostEqual(used, max(0.5, 1 - 10 / n))
            self.assertGreaterEqual(sum(1 for x in xs if x > value), 10)

    def test_never_below_the_median(self):
        value, used, _ = benchlib.tail_percentile([3, 1, 2], 0.90)
        self.assertEqual((value, used), (2, 0.5))

    def test_spread_uses_statistics_quartiles(self):
        xs = [9.0, 10.0, 10.5, 11.0, 12.0, 10.2, 9.8, 10.1, 10.4, 9.9]
        q1, med, q3 = statistics.quantiles(xs, n=4)
        s, a, b, c = benchlib.spread(xs)
        self.assertEqual((a, b, c), (q1, med, q3))
        self.assertAlmostEqual(s, (q3 - q1) / med)


def span(id_, parent, name, start, end, exp=0):
    return {"id": id_, "parent": parent, "exp": exp, "name": name,
            "start": start, "end": end}


class SelfTime(unittest.TestCase):
    def test_leaf_self_time_is_its_duration(self):
        self.assertEqual(benchlib.self_times([span(1, 0, "a", 5, 25)]),
                         {"a": 20})

    def test_nested_children_are_subtracted_once(self):
        spans = [
            span(1, 0, "root", 0, 100),
            span(2, 1, "a", 10, 40),
            span(3, 1, "b", 30, 60),      # overlaps a: 30..40 counts once
            span(4, 2, "a.child", 15, 20),
            span(5, 1, "c", 90, 120),     # sticks out: only 90..100 counts
        ]
        got = benchlib.self_times(spans)
        self.assertEqual(got["root"], 100 - 50 - 10)
        self.assertEqual(got["a"], 30 - 5)
        self.assertEqual(got["b"], 30)
        self.assertEqual(got["a.child"], 5)
        self.assertEqual(got["c"], 30)

    def test_same_name_sums_over_spans(self):
        spans = [span(1, 0, "x", 0, 10), span(2, 0, "x", 20, 25),
                 span(3, 2, "y", 21, 22)]
        self.assertEqual(benchlib.self_times(spans), {"x": 14, "y": 1})


class PooledRate(unittest.TestCase):
    def test_sums_deliveries_over_summed_wall(self):
        fast = {"delivered": 3000, "wall_s": [0.5, 0.5]}   # 3000 / s
        slow = {"delivered": 1000, "wall_s": [1.0]}        # 1000 / s
        self.assertAlmostEqual(benchlib.pooled_rate([fast, slow]), 2000.0)
        # Not the mean (2000 by coincidence here) nor the median of rates:
        third = {"delivered": 1000, "wall_s": [0.5]}       # 2000 / s
        self.assertAlmostEqual(
            benchlib.pooled_rate([fast, slow, third]), 5000 / 2.5)

    def test_restated_at_reference_speed(self):
        # The second campaign ran while the reference took twice its
        # nominal 10 ms: it counts half its wall.
        c = {"delivered": 2000, "wall_s": [0.5, 1.0],
             "ref_wall_s": [0.010, 0.010, 0.030]}
        self.assertAlmostEqual(benchlib.pooled_rate([c]), 2000 / 1.5)
        self.assertAlmostEqual(benchlib.pooled_rate([c], 0.010), 2000 / 1.0)


class ReferenceSpeed(unittest.TestCase):
    def test_scales_by_the_mean_of_the_times_around_each_campaign(self):
        got = benchlib.at_reference_speed([1.0, 1.0, 3.0],
                                          [2.0, 2.0, 6.0, 2.0], 2.0)
        for g, want in zip(got, [1.0, 0.5, 1.5]):
            self.assertAlmostEqual(g, want)

    def test_nominal_speed_leaves_values_alone(self):
        got = benchlib.at_reference_speed([0.3, 0.7], [0.02] * 3, 0.02)
        for g, want in zip(got, [0.3, 0.7]):
            self.assertAlmostEqual(g, want)

    def test_needs_one_reference_time_more_than_campaigns(self):
        with self.assertRaises(ValueError):
            benchlib.at_reference_speed([1.0, 1.0], [1.0, 1.0], 1.0)


class CorrectnessGate(unittest.TestCase):
    """The gate counts a corrupted delivery and the coordinator exits 1."""

    @classmethod
    def setUpClass(cls):
        import run
        cls.binary = run.build()
        cls.work = Path(tempfile.mkdtemp(dir=run.build_dir()))

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.work, ignore_errors=True)

    def coordinator(self, workload, *extra):
        p = subprocess.run(
            [str(self.binary), "--workload", workload, "--seed", "3",
             "--seconds", "0.05", "--procs", "2", "--experiments", "30",
             "--workdir", str(self.work / workload), *extra],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            timeout=120)
        return p.returncode, json.loads(p.stdout.splitlines()[-1])

    def test_clean_stream_passes(self):
        code, out = self.coordinator("bulk-procs")
        self.assertEqual((code, out["failed"]), (0, 0))
        self.assertEqual(out["delivered"], out["planned"])
        # A reference time before every campaign and one after the last.
        for key in ("ref_wall_s", "ref_cpu_s"):
            self.assertEqual(len(out[key]), len(out["wall_s"]) + 1)

    def test_corrupted_delivery_fails_the_gate(self):
        code, out = self.coordinator("bulk-procs", "--corrupt-index", "7")
        self.assertEqual(code, 1)
        self.assertGreaterEqual(out["mismatched"], 1)
        self.assertGreaterEqual(out["failed"], 1)

    def test_warm_stream_must_equal_the_cold_one(self):
        cold = self.work / "cold.txt"
        code, _ = self.coordinator("cache-warm", "--populate", str(cold))
        self.assertEqual(code, 0)
        code, out = self.coordinator("cache-warm", "--expect", str(cold))
        self.assertEqual((code, out["failed"]), (0, 0))
        lines = cold.read_text().splitlines()
        study, index, fp = lines[5].split()
        lines[5] = f"{study} {index} {int(fp) ^ 1}"
        cold.write_text("\n".join(lines) + "\n")
        code, out = self.coordinator("cache-warm", "--expect", str(cold))
        self.assertEqual((code, out["failed"]), (1, 1))


if __name__ == "__main__":
    unittest.main()
