"""The benchmark's tracer wraps cotzeta functions by name; each must exist.

``python3 perfbench/run.py`` always runs a traced pass, which looks up every
name in ``perfbench/tracer.py``'s ``WRAPPED`` on its module and wraps the CLI
group's ``main`` method.  A missing name makes the benchmark exit 2, so
deleting or renaming a traced function must fail here first.
"""

import sys
from pathlib import Path

import pytest

import cotzeta
from cotzeta import cli

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from tracer import WRAPPED  # noqa: E402


@pytest.mark.parametrize("layer,name", [(layer, name) for layer, names in WRAPPED.items()
                                        for name in names])
def test_traced_name_resolves(layer, name):
    assert callable(getattr(getattr(cotzeta, layer), name))


def test_cli_main_is_wrappable():
    assert callable(cli.main.main)
