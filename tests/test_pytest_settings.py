"""The suite's own pytest settings must let a failing property test report.

A failing ``@given`` test goes through hypothesis' report hook, which must
not trip the suite's warning filters: the run has to end as an ordinary
failure (exit 1) that prints the falsifying example.
"""

from pathlib import Path

pytest_plugins = ["pytester"]

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_failing_property_test_prints_its_example(pytester):
    pytester.makefile(".toml", pyproject=PYPROJECT.read_text())
    pytester.makepyfile(test_inline="""
        from hypothesis import given, settings, strategies as st

        @settings(derandomize=True, database=None)
        @given(st.integers())
        def test_small(x):
            assert x < 10
    """)
    result = pytester.runpytest_subprocess("test_inline.py")
    assert result.ret == 1, result.stdout.str()
    result.stdout.fnmatch_lines(["*Falsifying example*"])
