"""The benchmark's tracer wraps cotzeta functions by name; each must exist.

``python3 perfbench/run.py`` always runs a traced pass, which looks up every
name in ``perfbench/tracer.py``'s ``WRAPPED`` on its module and wraps the CLI
group's ``main`` method.  A missing name makes the benchmark exit 2, so
deleting or renaming a traced function must fail here first.  Each nested
counter in ``NESTED_COUNTS`` must also count something when its span runs, so
that a change in how the layer reaches the counted mpmath function cannot
leave the counter silently at 0.
"""

import sys
from pathlib import Path

import pytest

import cotzeta
from cotzeta import PrecisionConfig, QuadratureConfig, RationalArg, cli

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from tracer import NESTED_COUNTS, WRAPPED, Tracer  # noqa: E402


@pytest.mark.parametrize("layer,name", [(layer, name) for layer, names in WRAPPED.items()
                                        for name in names])
def test_traced_name_resolves(layer, name):
    assert callable(getattr(getattr(cotzeta, layer), name))


def test_cli_main_is_wrappable():
    assert callable(cli.main.main)


# A tiny call of each span that opens a nested counter.
NESTED_OPENER_CALLS = {
    "recip.cot_product_line_integral": lambda fn: fn(
        3, (1, 2), (0, 0), QuadratureConfig(target_abs_err=1e-4)),
}


@pytest.mark.parametrize("counter", sorted(NESTED_COUNTS))
def test_nested_counter_counts(counter):
    opener, _counted = NESTED_COUNTS[counter]
    layer, name = opener.split(".", 1)
    tracer = Tracer()
    with tracer.installed():
        NESTED_OPENER_CALLS[opener](getattr(getattr(cotzeta, layer), name))
    assert tracer.nested[counter] >= 1


def test_estermann_kernels_are_traced():
    # The twisted workload's kernels and the divisor sieve must be reached
    # through module attributes; a ``from ... import`` of any of them would
    # hide its span from ``--trace 1``.
    cfg = PrecisionConfig(30, 1e-9, 2_500)
    tracer = Tracer()
    with tracer.installed():
        pt = cotzeta.estermann.EstermannPoint(6, RationalArg(2, 7), 0)
        cotzeta.estermann.estermann_series(pt, cfg)
        cotzeta.estermann.estermann_hurwitz(pt, cfg)
    calls = tracer.summary()["calls"]
    for name in ("estermann.estermann_hurwitz", "estermann.estermann_series",
                 "specfn._sigma_prefix_mpc"):
        assert calls[name] >= 1, name
