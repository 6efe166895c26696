"""Shared test plumbing.

The acceptance tests append ``(number, label, ok, detail)`` tuples to
``ACCEPTANCE_RESULTS``; after the run a summary section prints one PASS/FAIL
line per criterion so the verdicts are visible even under output capture.
``relative_residual`` is the solve tests' independent residual oracle, and
``moved`` the scale properties' exact power-of-two rescaling.
"""

import numpy as np
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
