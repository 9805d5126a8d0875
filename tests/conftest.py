"""Shared test settings and helpers.

Hypothesis runs from a fixed seed sequence (``derandomize``) and without
a per-example deadline, so property tests give the same examples on
every run and do not fail on a slow machine.  The helpers that more than
one test module uses live here; a module imports them with
``from conftest import ...``.
"""

import hashlib
import sys

import numpy as np
import pytest
from hypothesis import settings

from twobell.channels import load_calibration, packaged_calibration_path
from twobell.protocols import GeneralizedBellTypeState
from twobell.qstate import StateVector

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


def assert_same_text(got: str, want: str):
    """Fail unless ``got == want``, as strictly as that ``assert``, but quickly:
    pytest's assertion rewriting diffs two unequal texts, which can take
    minutes on a document of megabytes (and again on each of hypothesis'
    shrink steps).  The failure names both lengths and
    sha256 digests, the first differing offset, and the text around it."""
    if got == want:
        return
    at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
    digests = [hashlib.sha256(t.encode(errors="surrogatepass")).hexdigest() for t in (got, want)]
    lo = max(0, at - 20)
    pytest.fail(f"texts differ at offset {at}: got {len(got)} characters (sha256 {digests[0]}), "
                f"want {len(want)} (sha256 {digests[1]})\n"
                f"  got:  {got[lo:at + 20]!r}\n  want: {want[lo:at + 20]!r}", pytrace=False)


def random_pair(rng):
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    v /= np.linalg.norm(v)
    return v[0], v[1]


def random_bell_type(n, rng):
    a, b = random_pair(rng)
    return GeneralizedBellTypeState(n, int(rng.integers(0, 2 ** n)), a, b)


def random_state(num_qubits, rng):
    v = rng.normal(size=2 ** num_qubits) + 1j * rng.normal(size=2 ** num_qubits)
    return StateVector(num_qubits, v / np.linalg.norm(v))


def table_records():
    return load_calibration(packaged_calibration_path())
