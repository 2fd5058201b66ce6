"""Timed passes, result checking and metric arithmetic for the benchmark.

Load model: a closed loop with one client in one single-threaded process; the
next request is issued only when the previous one has returned.

The host's two cores are shared, and how fast this process runs changes by
up to half over seconds to minutes with what other tenants run (CPU time
changes with wall time, so it is not preemption).  A timed pass therefore
runs a fixed calibration loop before every request and after the last, and
scales each request's latency by ``CALIBRATION_REF_S`` over the mean of the
two loops around it: the end-to-end times are those of a host on which the
calibration loop takes ``CALIBRATION_REF_S``.  The raw figures are printed
beside them.
"""

from __future__ import annotations

import gc
import math
import platform
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

from workloads import FAIL, OK, WRONG, Check, CliRun, Request

SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120
# Time of one calibration loop on the reference host.
CALIBRATION_REF_S = 1.7e-3


def calibration_s() -> float:
    """Time one fixed loop of the kinds of work cotzeta does (mpf arithmetic
    at 30 digits, Fraction sums, small-int arithmetic), about 2 ms, with the
    garbage collector held off so that it does not charge the loop for the
    garbage of the request before."""
    import mpmath as mp
    from fractions import Fraction
    gc.disable()
    try:
        t0 = time.perf_counter()
        with mp.workdps(30):
            x, acc = mp.mpf(1) / 3, mp.mpf(0)
            for i in range(150):
                acc += x * (i + 1)
        f = Fraction(0)
        for i in range(1, 60):
            f += Fraction(1, i)
        s = 0
        for i in range(3000):
            s += i * i % 7
        return time.perf_counter() - t0
    finally:
        gc.enable()


def calibration_median_s(loops: int = 7) -> float:
    """Median of several calibration loops in a row: the host speed around a
    single event such as a set-up probe, where one loop would be too noisy."""
    return statistics.median(calibration_s() for _ in range(loops))


@dataclass
class Kind:
    """The requests of one kind in a pass: how many, their median latency
    and the checks they completed."""

    requests: int
    median_s: float
    checks: int


def kinds(executed, scaled: bool = True) -> dict[str, Kind]:
    """Per request kind: count, median latency (scaled to the reference
    host speed unless ``scaled`` is false) and completed checks."""
    by_kind: dict = {}
    for e in executed:
        by_kind.setdefault(e.request.kind, []).append(e)
    return {k: Kind(len(es), statistics.median(e.scaled_s if scaled else e.latency_s for e in es),
                    sum(e.checks for e in es if e.error is None))
            for k, es in by_kind.items()}


def checks_per_s(by_kind: dict[str, Kind]) -> float:
    """Completed checks per second of request time, with every request timed
    at its kind's median latency, so that a burst of contention from another
    tenant of the machine moves no more than the medians it shifts."""
    return (sum(k.checks for k in by_kind.values())
            / sum(k.requests * k.median_s for k in by_kind.values()))


def kind_p50_s(by_kind: dict[str, Kind]) -> float:
    """Geometric mean over request kinds of each kind's median latency: every
    kind weighs the same, however its share of requests or its cost."""
    return math.exp(statistics.fmean(math.log(k.median_s) for k in by_kind.values()))


def digits(error: float) -> float:
    """Correct decimal places of one numeric check, -log10|value - oracle|,
    with exact agreement floored at 1e-50."""
    return -math.log10(max(error, 1e-50))


@dataclass
class Executed:
    """One request's latency and the summary of its checks; the result and
    the passing checks are not kept, so memory does not grow with the run."""

    request: Request
    latency_s: float
    # the mean time of the calibration loops before and after the request
    calibration_s: float | None = None
    error: str | None = None
    checks: int = 0
    bad: list = field(default_factory=list)  # the checks that did not pass
    numeric: int = 0
    digit_sum: float = 0.0
    worst_vs_target: float = -math.inf  # max log10(|value - oracle| / target)
    output_bytes: int = 0

    @property
    def scaled_s(self) -> float:
        """Latency at the reference host speed (raw when not calibrated)."""
        if self.calibration_s is None:
            return self.latency_s
        return self.latency_s * CALIBRATION_REF_S / self.calibration_s


@dataclass
class Pass:
    executed: list = field(default_factory=list)
    busy_s: float = 0.0  # timed seconds: the sum of request latencies
    rounds: int = 0  # rounds run to the end


def check_result(item: Executed, result) -> None:
    """Compare one result with its oracle; runs between requests, outside
    their timed spans."""
    if item.error is not None:
        checks = [Check(item.request.kind, FAIL, detail=f"refused: {item.error}")]
    else:
        if isinstance(result, CliRun):
            item.output_bytes = len(result.output.encode())
        try:
            checks = item.request.check(result)
        except Exception as exc:  # malformed output is a wrong answer
            checks = [Check(item.request.kind, WRONG,
                            detail=f"unreadable result: {type(exc).__name__}: {exc}")]
    item.checks = len(checks)
    item.bad = [c for c in checks if c.status != OK]
    for c in checks:
        if c.error is not None:
            item.numeric += 1
            item.digit_sum += digits(c.error)
            item.worst_vs_target = max(item.worst_vs_target,
                                       math.log10(max(c.error, 1e-300) / c.target))


def run_pass(workload, seed: int, seconds: float | None = None, rounds: int | None = None,
             tracer=None, check: bool = True, calibrate: bool = False) -> Pass:
    """Issue requests round after round until ``seconds`` of request time have
    been spent (the request in flight completes), or for exactly ``rounds``
    rounds, checking each result as it comes back; with ``calibrate``, run
    the calibration loop between requests."""
    rng = random.Random(seed)
    p = Pass()
    r = 0
    before = calibration_s() if calibrate else None
    while rounds is None or r < rounds:
        for req in workload.round(rng, r):
            if rounds is None and p.busy_s >= seconds:
                return p
            item = Executed(req, 0.0)
            result = None
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    result = req.call()
                else:
                    with tracer.request(len(p.executed)):
                        result = req.call()
            except Exception as exc:  # a refusal: counted, never fatal
                item.error = f"{type(exc).__name__}: {exc}"
            item.latency_s = time.perf_counter() - t0
            p.busy_s += item.latency_s
            if calibrate:
                after = calibration_s()
                item.calibration_s, before = (before + after) / 2, after
            if check:
                check_result(item, result)
            p.executed.append(item)
        p.rounds += 1
        r += 1
    return p


def tally(p: Pass) -> dict:
    bad = [c for e in p.executed for c in e.bad]
    refused = sum(1 for e in p.executed if e.error is not None)
    return {
        "attempted": sum(e.checks for e in p.executed),
        "refused": refused,
        "fail_verdict": sum(1 for c in bad if c.status == FAIL) - refused,
        "wrong": sum(1 for c in bad if c.status == WRONG),
        "failed": len(bad),
    }


def end_to_end(p: Pass, setup_samples: list[float], peak_rss_mb: float) -> tuple[dict, dict]:
    """The end-to-end metrics of one untraced pass, and what is printed beside them."""
    by_kind, raw = kinds(p.executed), kinds(p.executed, scaled=False)
    numeric = sum(e.numeric for e in p.executed)
    metrics = {
        "checks_per_s": (checks_per_s(by_kind), "1/s"),
        "kind_p50_ms": (kind_p50_s(by_kind) * 1e3, "ms"),
        # mean over numeric checks
        "accuracy_digits": (sum(e.digit_sum for e in p.executed) / numeric, "digits"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
    }
    beside = {
        "requests": len(p.executed),
        "numeric_checks": numeric,
        "err_vs_target_log10_max": max(e.worst_vs_target for e in p.executed),
        "raw_checks_per_s": checks_per_s(raw),
        "raw_kind_p50_ms": kind_p50_s(raw) * 1e3,
        "calibration_ms_median": statistics.median(e.calibration_s for e in p.executed) * 1e3,
        "median_ms_by_kind": {name: (k.requests, round(k.median_s * 1e3, 1))
                              for name, k in by_kind.items()},
        "setup_samples_s": setup_samples,
        "timed_s": p.busy_s,
        "complete_rounds": p.rounds,
    }
    return metrics, beside


def per_layer(summary: dict, traced: Pass, untraced: Pass) -> dict:
    """Per-layer metrics from a traced pass (see BENCHMARK.json for the list)."""
    calls, self_s = summary["calls"], summary["self_s"]
    errors, misses, nested = summary["errors"], summary["target_misses"], summary["nested"]
    hz = "specfn.hurwitz_zeta"
    out = {
        "exact.self_s": (self_s["exact"], "s"),
        "exact.apostol_sum.calls": (calls["exact.apostol_sum"], "count"),
        "exact.apostol_sum.self_s": (self_s["exact.apostol_sum"], "s"),
        "exact.dedekind_sum.calls": (calls["exact.dedekind_sum"], "count"),
        "exact.dedekind_sum.self_s": (self_s["exact.dedekind_sum"], "s"),
        "exact.thm13_rhs.self_s": (self_s["exact.thm13_rhs"], "s"),
        "specfn.self_s": (self_s["specfn"], "s"),
        "specfn.errors": (summary["layer_errors"]["specfn"], "count"),
        "specfn.hurwitz_zeta.right.calls": (calls[hz + ".right"], "count"),
        "specfn.hurwitz_zeta.right.self_s": (self_s[hz + ".right"], "s"),
        "specfn.hurwitz_zeta.target_misses": (misses[hz], "count"),
        "specfn.cot_derivative.calls": (calls["specfn.cot_derivative"], "count"),
        "specfn.cot_derivative.self_s": (self_s["specfn.cot_derivative"], "s"),
        "specfn.lerch_phi.calls": (calls["specfn.lerch_phi"], "count"),
        "specfn.lerch_phi.self_s": (self_s["specfn.lerch_phi"], "s"),
        "specfn.lerch_phi.errors": (errors["specfn.lerch_phi"], "count"),
        "specfn.apostol_bernoulli.calls": (calls["specfn.apostol_bernoulli"], "count"),
        "sums.self_s": (self_s["sums"], "s"),
        "sums.bc_sum_general.calls": (calls["sums.bc_sum_general"], "count"),
        "sums.cotangent_sum_C.calls": (calls["sums.cotangent_sum_C"], "count"),
        "sums.cotangent_sum_C.self_s": (self_s["sums.cotangent_sum_C"], "s"),
        "recip.self_s": (self_s["recip"], "s"),
        "recip.cot_product_line_integral.calls": (calls["recip.cot_product_line_integral"], "count"),
        "recip.cot_product_line_integral.self_s": (self_s["recip.cot_product_line_integral"], "s"),
        "recip.cot_product_line_integral.cot_evals":
            (nested["recip.cot_product_line_integral.cot_evals"], "count"),
        "recip.residue_at_one.self_s": (self_s["recip.residue_at_one"], "s"),
        "recip.convolution_at_zero.self_s": (self_s["recip.convolution_at_zero"], "s"),
        "estermann.self_s": (self_s["estermann"], "s"),
        "estermann.estermann_series.calls": (calls["estermann.estermann_series"], "count"),
        "estermann.estermann_series.self_s": (self_s["estermann.estermann_series"], "s"),
        "estermann.estermann_series.target_misses": (misses["estermann.estermann_series"], "count"),
        "estermann.estermann_hurwitz.self_s": (self_s["estermann.estermann_hurwitz"], "s"),
        "cli.invocations": (calls["cli.main"], "count"),
        "cli.self_s": (self_s["cli.main"], "s"),
        "cli.output_bytes": (sum(e.output_bytes for e in traced.executed), "bytes"),
        # Both passes run the same requests, so the wall-time ratio is the
        # ratio of untraced to traced checks_per_s.
        "trace.overhead_ratio": (traced.busy_s / untraced.busy_s, "ratio"),
    }
    return out


def setup_probe_times(run_py: str, workload: str) -> list[float]:
    """Set-up time of fresh processes, each timed by itself from its first
    statement through ``import cotzeta`` and one warm-up of the workload, and
    scaled by the median calibration loops run before and after it."""
    samples = []
    for _ in range(SETUP_PROBES):
        before = calibration_median_s()
        proc = subprocess.run([sys.executable, run_py, "--setup-probe", "--workload", workload],
                              check=True, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        after = calibration_median_s()
        raw = float(proc.stdout.strip().splitlines()[-1])
        samples.append(raw * CALIBRATION_REF_S * 2 / (before + after))
    return samples


def environment() -> dict:
    import os

    import mpmath
    return {
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }
