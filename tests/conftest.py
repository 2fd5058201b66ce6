"""Shared test settings.

Property tests draw the same examples on every run (``derandomize``), so a
run's outcome depends only on the code, and they have no per-example
deadline, since timing on a shared host says nothing about correctness.
"""

from hypothesis import settings

settings.register_profile("cotzeta", derandomize=True, deadline=None)
settings.load_profile("cotzeta")
