"""Shared test settings.

Hypothesis runs from a fixed seed sequence (``derandomize``) and without
a per-example deadline, so property tests give the same examples on
every run and do not fail on a slow machine.
"""

from hypothesis import settings

settings.register_profile("twobell", derandomize=True, deadline=None)
settings.load_profile("twobell")
