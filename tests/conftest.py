"""Shared test settings.

Hypothesis runs from a fixed seed sequence (``derandomize``) and without
a per-example deadline, so property tests give the same examples on
every run and do not fail on a slow machine.
"""

import sys

import pytest
from hypothesis import settings

settings.register_profile("twobell", derandomize=True, deadline=None)
settings.load_profile("twobell")


@pytest.fixture
def patch_bindings(monkeypatch):
    """``patch(real, wrapped)`` replaces every binding of the function
    ``real`` in the loaded twobell modules by ``wrapped``, and returns the
    (module, name) pairs it patched.  A module that imports a function by
    name calls its own binding, which patching the defining module misses."""
    def patch(real, wrapped):
        patched = []
        for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "twobell"]:
            for name, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, name, wrapped)
                    patched.append((module.__name__, name))
        return patched

    return patch
