"""Self-tests of the benchmark's own arithmetic and checks.

    python3 perfbench/selftest.py

They need no nilcone sources and start no process.
"""

from __future__ import annotations

import hashlib
import json
import unittest

import run
import tracer


class SelfTimeTest(unittest.TestCase):
    def test_nested_and_overlapping_children(self):
        spans = [
            ["graded.a", 0.0, 10.0, -1],
            ["partition.b", 1.0, 3.0, 0],
            ["partition.c", 2.0, 5.0, 0],    # overlaps b: the union counts once
            ["weyl.d", 8.0, 12.0, 0],        # runs past its parent: clipped
            ["partition.e", 1.5, 2.5, 1],    # grandchild: counts against b only
        ]
        selfs = run.self_times(spans)
        self.assertAlmostEqual(selfs[0], 10.0 - 4.0 - 2.0)
        self.assertAlmostEqual(selfs[1], 2.0 - 1.0)
        self.assertAlmostEqual(selfs[2], 3.0)
        self.assertAlmostEqual(selfs[3], 4.0)
        self.assertAlmostEqual(selfs[4], 1.0)

    def test_layer_self_time_excludes_other_layers(self):
        spans = [
            ["cli.graded", 0.0, 20.0, -1],
            ["graded.GradedCalculator.series", 2.0, 12.0, 0],
            ["graded.GradedCalculator.nilcone_series", 3.0, 9.0, 1],
            ["partition.PartitionTable.p", 4.0, 8.0, 2],
            ["weyl.enumerate_group", 13.0, 18.0, 0],
        ]
        trace = {"spans": spans, "counters": {"weyl.group_order": 12}, "import_s": 0.5}
        metrics = run.layer_metrics(trace, traced_wall=21.0, untraced_wall=20.0)
        self.assertAlmostEqual(metrics["graded.self_s"], 10.0 - 4.0)
        self.assertAlmostEqual(metrics["cli.self_s"], 20.0 - 10.0 - 5.0)
        self.assertAlmostEqual(metrics["partition.p_s"], 4.0)
        self.assertEqual(metrics["partition.p_calls"], 1)
        self.assertEqual(metrics["graded.series_calls"], 2)
        self.assertAlmostEqual(metrics["weyl.enumerate_s"], 5.0)
        self.assertEqual(metrics["weyl.group_order"], 12)
        self.assertAlmostEqual(metrics["trace.overhead_s"], 1.0)

    def test_metric_names_match_benchmark_json(self):
        declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        trace = {"spans": [], "counters": {}, "import_s": 0.0}
        self.assertEqual(
            sorted(run.layer_metrics(trace, 0.0, 0.0)),
            sorted(m["name"] for m in declared["per_layer"]),
        )
        self.assertEqual(sorted(run.WORKLOADS),
                         sorted(w["name"] for w in declared["workloads"]))


class LoadCorrectionTest(unittest.TestCase):
    def test_a_slowdown_shared_with_the_reference_cancels(self):
        quiet = run.corrected(child_cpu=4.0, reference_cpu=0.3, steps=10)
        busy = run.corrected(child_cpu=6.0, reference_cpu=0.45, steps=10)
        self.assertAlmostEqual(quiet, busy)

    def test_reference_at_nominal_speed_leaves_cpu_time_unchanged(self):
        steps = 7
        self.assertAlmostEqual(
            run.corrected(4.0, run.Reference.STEP_S * steps, steps), 4.0)


class TracerTest(unittest.TestCase):
    def test_spans_nest_and_close_on_error(self):
        t = tracer.Tracer()

        def fail():
            raise ValueError

        inner = t.wrap("partition.inner", fail)

        def outer():
            try:
                inner()
            except ValueError:
                pass
            return 7

        self.assertEqual(t.wrap("graded.outer", outer)(), 7)
        (name0, s0, e0, p0), (name1, s1, e1, p1) = t.spans
        self.assertEqual((name0, p0, name1, p1), ("graded.outer", -1, "partition.inner", 0))
        self.assertTrue(s0 <= s1 <= e1 <= e0)


class OutputCheckTest(unittest.TestCase):
    def test_wrong_stdout_hash_is_rejected(self):
        good = b"subregular graded multiplicities\n"
        workload = run.Workload("x", (), hashlib.sha256(good).hexdigest())
        self.assertIsNone(run.check_output(workload, good))
        self.assertIn("!= pinned", run.check_output(workload, good + b" "))
        for pinned in run.WORKLOADS.values():
            self.assertIsNotNone(run.check_output(pinned, b""))


class ClosedFormTest(unittest.TestCase):
    def test_a1_nilcone_degrees_are_odd_dimensions(self):
        # sl2: degree n of the nilcone ring is L(2n), of dimension 2n + 1.
        self.assertEqual(run.hilbert_closed_form((1,), 3, 6), [1, 3, 5, 7, 9, 11, 13])

    def test_g2_small_degrees(self):
        self.assertEqual(run.hilbert_closed_form((1, 5), 14, 5),
                         [1, 14, 104, 546, 2275, 8008])

    def test_g2_check_accepts_closed_form_and_rejects_a_change(self):
        coeffs = run.hilbert_closed_form((1, 5), 14, 24)
        line = "nilcone Hilbert coefficients for G_2: " + " ".join(map(str, coeffs))
        self.assertIsNone(run.check_g2_hilbert(line.encode() + b"\n"))
        coeffs[7] += 1
        line = "nilcone Hilbert coefficients for G_2: " + " ".join(map(str, coeffs))
        self.assertIn("degree 7", run.check_g2_hilbert(line.encode()))
        self.assertIsNotNone(run.check_g2_hilbert(b"garbage: x y"))


if __name__ == "__main__":
    unittest.main()
