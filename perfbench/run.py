"""cotzeta benchmark: seeded verification workloads timed from outside.

    python3 perfbench/run.py --workload line --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --seed 1 --seconds 20     # every workload

With ``--workload`` one workload runs in this process and the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  Without ``--workload`` every workload
runs in a fresh process of its own, untraced and then traced, and every
metric is printed by name and unit.  The exit code is non-zero when any
result disagrees with its oracle by more than the error it claims (a wrong
answer); refusals and FAIL verdicts are counted in ``failed`` only.

The program is imported from ``src/`` next to this directory, never from an
installed copy.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()  # before cotzeta is imported: setup probes report from here

import argparse
import json
import os
import resource
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
NAMES = ("line", "sweep", "twisted")
# Rounds in each pass of a traced run: a fixed amount of work, so that every
# count repeats exactly for a seed.
TRACE_ROUNDS = {"line": 8, "sweep": 20, "twisted": 3}


def _import_program():
    """Put the checkout's src/ first on the path and import cotzeta from it."""
    if not os.path.isfile(os.path.join(SRC, "cotzeta", "__init__.py")):
        sys.exit(f"error: no cotzeta sources under {SRC}")
    sys.path.insert(0, SRC)
    import cotzeta
    if os.path.dirname(os.path.dirname(os.path.abspath(cotzeta.__file__))) != SRC:
        sys.exit(f"error: cotzeta was imported from {cotzeta.__file__}, not {SRC}")


def _print_metrics(metrics: dict, beside: dict | None = None):
    for name, (value, unit) in metrics.items():
        print(f"  {name:45s} {value:>16.6g} {unit}")
    for key, value in (beside or {}).items():
        print(f"  ({key}: {value})")


def _result_line(tally: dict, metrics: dict) -> str:
    return json.dumps({
        "correct": tally["wrong"] == 0,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def _report_failures(p, limit: int = 10):
    shown = 0
    for item in p.executed:
        for c in item.bad:
            if shown < limit:
                print(f"  [{c.status}] {item.request.kind} {item.request.params}: {c.label} {c.detail}")
                shown += 1


def _probe_defect(workload) -> str | None:
    probe = getattr(workload, "probe_defect", None)
    return probe() if probe else None


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    import harness
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    if trace:
        from tracer import Tracer
        workload.warmup()
        untraced = harness.run_pass(workload, seed, rounds=TRACE_ROUNDS[name], check=False)
        tracer = Tracer()
        with tracer.installed():
            traced = harness.run_pass(workload, seed, rounds=TRACE_ROUNDS[name], tracer=tracer)
            defect = _probe_defect(workload)
        tally = harness.tally(traced)
        metrics = harness.per_layer(tracer.summary(), traced, untraced)
        checks = tally["attempted"] - tally["refused"]
        beside = {"traced_checks_per_s": checks / traced.busy_s,
                  "untraced_checks_per_s": checks / untraced.busy_s,
                  "rounds": TRACE_ROUNDS[name], "spans": len(tracer.spans)}
    else:
        setup = harness.setup_probe_times(os.path.abspath(__file__), name)
        workload.warmup()
        p = harness.run_pass(workload, seed, seconds=seconds, calibrate=True)
        tally = harness.tally(p)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics, beside = harness.end_to_end(p, setup, rss_mb)
        traced = p
        defect = _probe_defect(workload)
    print(f"workload {name} seed {seed} trace {int(trace)}")
    print(f"  environment: {json.dumps(harness.environment(), sort_keys=True)}")
    print(f"  checks: {json.dumps(tally, sort_keys=True)}")
    _report_failures(traced)
    if defect:
        print(f"  known defect, probed outside the timed requests: {defect}")
    _print_metrics(metrics, beside)
    print(_result_line(tally, metrics), flush=True)
    return 0 if tally["wrong"] == 0 else 1


def run_all(seed: int, seconds: float) -> int:
    """Every workload, each in a fresh process, untraced then traced."""
    worst = 0
    for name in NAMES:
        results = {}
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode not in (0, 1) or not lines:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                return 2
            results[trace] = json.loads(lines[-1])
            worst = max(worst, proc.returncode)
            if proc.returncode:
                print("\n".join(lines[:-1]))
        print(f"== {name} (correct={results[0]['correct'] and results[1]['correct']}, "
              f"attempted={results[0]['attempted']}, failed={results[0]['failed']})")
        for trace in (0, 1):
            _print_metrics({k: (m["value"], m["unit"]) for k, m in results[trace]["metrics"].items()})
    print(json.dumps({"correct": worst == 0}))
    return worst


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=NAMES)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="import cotzeta, warm the workload up once and exit")
    args = ap.parse_args(argv)

    _import_program()
    if args.setup_probe:
        from workloads import WORKLOADS
        WORKLOADS[args.workload].warmup()
        print(time.perf_counter() - _STARTED)
        return 0
    if args.workload is None:
        return run_all(args.seed, args.seconds)
    start = time.perf_counter()
    code = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"run took {time.perf_counter() - start:.1f} s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
