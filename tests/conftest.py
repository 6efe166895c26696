"""Shared test plumbing.

The acceptance tests append ``(number, label, ok, detail)`` tuples to
``ACCEPTANCE_RESULTS``; after the run a summary section prints one PASS/FAIL
line per criterion so the verdicts are visible even under output capture.
``relative_residual`` is the solve tests' independent residual oracle,
``moved`` the scale properties' exact power-of-two rescaling, and
``linalg_calls`` the one recorder of ``np.linalg`` calls.
"""

import numpy as np
import pytest
from hypothesis import assume

ACCEPTANCE_RESULTS = []


def moved(A, n):
    """``A 2^n``, exact: the example is dropped unless every nonzero real and
    imaginary part of ``A`` stays normal."""
    parts = np.ascontiguousarray(A, dtype=np.complex128).view(np.float64)
    exponents = np.frexp(np.abs(parts[parts != 0.0]))[1]
    assume(exponents.min() - 1 + n >= -1022 and exponents.max() + n <= 1024)
    return np.ldexp(parts, n).view(np.complex128)


def _pow2(A):
    """``(A 2^-n, n)``: a nonzero ``A`` with its largest real or imaginary
    part moved into ``[1/2, 1)``, exactly."""
    parts = np.ascontiguousarray(A, dtype=np.complex128).view(np.float64)
    n = int(np.frexp(np.abs(parts).max())[1]) if parts.any() else 0
    return np.ldexp(parts, -n).view(np.complex128), n


def relative_residual(T, f, g):
    """``||g - T T* f|| / ||g||`` for a synthesis matrix ``T``, computed on
    ``T``, ``f`` and ``g`` each scaled by a power of two, so that no
    product or norm under- or overflows where the residual itself is
    representable; ``inf`` when ``T T* f`` is far larger than ``g``."""
    (T, a), (f, b), (g, c) = _pow2(T), _pow2(f), _pow2(g)
    with np.errstate(over="ignore"):
        Sf = np.ldexp((T @ (T.conj().T @ f)).view(np.float64), 2 * a + b - c).view(np.complex128)
    return float(np.linalg.norm(g - Sf) / np.linalg.norm(g))


@pytest.fixture
def linalg_calls(monkeypatch):
    """``record(*names)``: patch each named ``np.linalg`` function (by
    default ``svd``, ``eigh`` and ``eigvalsh``) to append ``(name, copy of
    its first argument)`` to a list, and return that list.  The name
    ``"norm2"`` records the calls of ``np.linalg.norm`` that run an SVD
    (``ord`` 2, -2 or ``"nuc"``)."""
    def record(*names):
        calls = []
        for name in names or ("svd", "eigh", "eigvalsh"):
            if name == "norm2":
                def recorded(x, ord=None, *args, _original=np.linalg.norm, **kwargs):
                    if ord in (2, -2, "nuc"):
                        calls.append(("norm2", np.array(x)))
                    return _original(x, ord, *args, **kwargs)
                monkeypatch.setattr(np.linalg, "norm", recorded)
            else:
                def recorded(a, *args, _name=name, _original=getattr(np.linalg, name), **kwargs):
                    calls.append((_name, np.array(a)))
                    return _original(a, *args, **kwargs)
                monkeypatch.setattr(np.linalg, name, recorded)
        return calls
    return record


def record_criterion(number, label, ok, detail):
    """Record an acceptance verdict and assert it."""
    ACCEPTANCE_RESULTS.append((number, label, bool(ok), detail))
    assert ok, f"acceptance criterion {number} ({label}) failed: {detail}"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number, label, ok, detail in sorted(ACCEPTANCE_RESULTS):
        status = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"[criterion {number:2d}] {status} {label}: {detail}")
