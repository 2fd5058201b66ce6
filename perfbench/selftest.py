"""Tests of the benchmark itself (not part of cotzeta's test suite).

    python3 perfbench/selftest.py

Covers the per-kind latency metrics and their scaling to the reference host
speed, self-time arithmetic on a synthetic span tree, a mutation that must be reported as a wrong answer with a non-zero
exit, and the determinism of traced counts for a fixed seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

run._import_program()

import harness  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402


def _executed(kind, latency_s, checks, calibration_s=None):
    from workloads import Request
    return harness.Executed(Request(kind, None, None), latency_s, calibration_s, checks=checks)


class KindMetrics(unittest.TestCase):
    # kind a: medians 2 s, 3 checks a request; kind b: median 0.5 s, 1 check.
    EXECUTED = [("a", 1.0, 3), ("a", 2.0, 3), ("a", 50.0, 3), ("b", 0.5, 1), ("b", 0.5, 1)]

    def kinds(self):
        return harness.kinds([_executed(*e) for e in self.EXECUTED])

    def test_a_burst_moves_only_the_median(self):
        k = self.kinds()
        self.assertEqual((k["a"].requests, k["a"].median_s, k["a"].checks), (3, 2.0, 9))
        # 11 checks over 3 * 2 s + 2 * 0.5 s: the 50 s request counts as 2 s.
        self.assertAlmostEqual(harness.checks_per_s(k), 11 / 7)

    def test_kinds_weigh_the_same_in_the_p50(self):
        self.assertAlmostEqual(harness.kind_p50_s(self.kinds()), 1.0)  # sqrt(2 * 0.5)

    def test_refused_requests_complete_no_checks(self):
        e = _executed("a", 1.0, 1)
        e.error = "PrecisionError: no"
        self.assertEqual(harness.kinds([e])["a"].checks, 0)

    def test_latency_is_scaled_to_the_reference_host_speed(self):
        ref = harness.CALIBRATION_REF_S
        slow = _executed("a", 0.3, 1, calibration_s=2 * ref)
        self.assertAlmostEqual(slow.scaled_s, 0.15)
        self.assertEqual(harness.kinds([slow], scaled=False)["a"].median_s, 0.3)
        self.assertEqual(_executed("a", 0.3, 1).scaled_s, 0.3)  # not calibrated


class SelfTime(unittest.TestCase):
    # root [0, 10] -> a [1, 4], b [5, 9] -> c [6, 7]; d [12, 13] is a second root.
    SPANS = [
        (2, 0, "specfn.x", 1.0, 4.0, 0),
        (3, 1, "specfn.y", 6.0, 7.0, 0),
        (1, 0, "recip.b", 5.0, 9.0, 0),
        (0, None, "recip.root", 0.0, 10.0, 0),
        (4, None, "exact.d", 12.0, 13.0, 1),
    ]

    def test_self_time_is_duration_minus_children(self):
        self.assertEqual(self_times(self.SPANS), {0: 3.0, 1: 3.0, 2: 3.0, 3: 1.0, 4: 1.0})

    def test_layer_totals_and_errors(self):
        tracer = Tracer()
        tracer.spans = list(self.SPANS)
        tracer.error_ids = {3, 1, 0}  # y raised through b and root
        s = tracer.summary()
        self.assertEqual(s["self_s"]["recip"], 6.0)
        self.assertEqual(s["self_s"]["specfn"], 4.0)
        self.assertEqual(s["calls"]["specfn.x"], 1)
        self.assertEqual(s["errors"]["specfn.y"], 1)
        self.assertEqual(s["errors"]["recip.b"], 1)
        # An exception is counted once per layer it leaves: y leaves specfn
        # into recip, and root leaves recip; b -> root stays inside recip.
        self.assertEqual(s["layer_errors"], {"specfn": 1, "recip": 1})

    def test_live_spans_nest(self):
        tracer = Tracer()
        tracer.span("recip.outer", lambda: tracer.span("specfn.inner", lambda: None))
        (inner, outer) = tracer.spans
        self.assertEqual(inner[1], outer[0])
        self.assertIsNone(outer[1])


def _run_quiet(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run.main(argv)
    return code, json.loads(out.getvalue().strip().splitlines()[-1])


class Mutation(unittest.TestCase):
    """Shift the value of the twisted workload's fast-decay Estermann series
    point (s = 6), one check in each round."""

    def _run_with_shift(self, factor):
        from cotzeta import estermann
        from cotzeta.specfn import ComplexVal

        original = estermann.estermann_series

        def shifted(pt, cfg=None):
            v = original(pt, cfg)
            if pt.s != 6:
                return v
            return ComplexVal(v.val + factor * v.abs_err, v.abs_err)

        estermann.estermann_series = shifted
        try:
            # A little over a second of requests reaches the series points.
            return _run_quiet(["--workload", "twisted", "--seed", "5", "--seconds", "3"])
        finally:
            estermann.estermann_series = original

    def test_shift_beyond_claimed_error_is_a_wrong_answer(self):
        code, result = self._run_with_shift(3.0)
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)

    def test_shift_within_claimed_error_is_accepted(self):
        code, result = self._run_with_shift(0.5)
        self.assertEqual(code, 0)
        self.assertTrue(result["correct"])


class Determinism(unittest.TestCase):
    def test_traced_counts_repeat_for_a_seed(self):
        for workload in ("sweep", "twisted"):
            runs = []
            for _ in range(2):
                proc = subprocess.run(
                    [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                     "--seed", "7", "--trace", "1"],
                    capture_output=True, text=True, timeout=600, check=True)
                metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
                runs.append({k: m["value"] for k, m in metrics.items()
                             if m["unit"] in ("count", "bytes")})
            self.assertEqual(runs[0], runs[1], workload)
            self.assertTrue(any(runs[0].values()), workload)


if __name__ == "__main__":
    unittest.main()
