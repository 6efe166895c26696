"""Dense complex operator kernel: validation, positivity certificates,
Hermitian square roots, pseudo-inverses, and Loewner-order comparisons.

Conventions
-----------
Vectors live in ``C^d`` with the inner product ``<f, g> = sum_i f[i] *
conj(g[i])`` — linear in the first argument, conjugate-linear in the second.
Operators act by left multiplication and adjoints are conjugate transposes.
Every predicate takes a :class:`Tolerances` bundle so numerical slack is
explicit and configurable rather than hidden in library defaults.

Scale
-----
Each operand carries one power-of-two exponent from :func:`_pow2_scaled`:
the family ``T~ = 2^-e T``, with ``S~ = T~ T~* = 2^-s S`` and ``s = 2e``;
the controller ``C~ = 2^-c C``; ``K~ = 2^-k K``; the right-hand side
``g~ = 2^-j g``; and each probe column.  The exponent is ``0`` while the
operand's largest real or imaginary part lies in the window ``[2^-128,
2^128)``, where products of entries neither underflow nor overflow, and
otherwise brings that part into ``[1/2, 1)``.  A power of two moves only
the float exponent, so the scaling is exact while no part leaves the
normal range, as in LAPACK's balancing (B. N. Parlett and C. Reinsch,
Numer. Math. 13 (1969)): a verdict read off the scaled operands is that of
the given ones at every scale, and a value computed on them is scaled back
by their exponents.  A value beyond the float range is reported as ``inf``
or ``0.0`` (:func:`_scaled_back`, :func:`_times_pow2`), and as ``null`` in
JSON.  A result that must keep its exact value (the frame operator, the
``lower_opt`` of the restricted inequalities, a solve's solution) is
refused with :class:`InvalidParametersError` unless it is a normal float
(:func:`_is_normal`).

Caching
-------
A frame or a controller holds a read-only copy of its matrix and computes
each operand derived from it once, on first use, read-only
(:func:`_cached_read_only`); only arrays that it owns are frozen.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DimensionMismatchError,
    IndefiniteOperatorError,
    InvalidParametersError,
    NonHermitianComparisonError,
    NotHermitianError,
    NotPositiveDefiniteError,
)

__all__ = [
    "Tolerances",
    "DEFAULT_TOL",
    "OperatorBounds",
    "as_vector",
    "as_operator",
    "is_hermitian",
    "hermitian_part",
    "positive_definite_bounds",
    "operator_sqrt",
    "spectral_function",
    "pseudo_inverse",
    "numerical_rank",
    "range_basis",
    "operator_leq",
    "inverse_bounds",
]


@dataclass(frozen=True)
class Tolerances:
    """Numerical slack used by every predicate in the package.

    Every slack is ``tol`` times the compared operands' own norm, with no
    absolute floor: a predicate decides the same way when its operands are
    rescaled, and zero operands compare exactly.

    Attributes
    ----------
    rel_eq : float
        Relative tolerance for equality of operators and vectors.
    psd_slack : float
        Relative slack, times the operands' norm, granted when testing
        positive (semi-)definiteness and Loewner order.
    rank_rel : float or None
        Relative singular-value cutoff for numerical rank.  ``None`` selects
        the dimension-aware default ``1e-12 * d``.
    """

    rel_eq: float = 1e-9
    psd_slack: float = 1e-9
    rank_rel: float | None = None

    def __post_init__(self):
        for name in ("rel_eq", "psd_slack"):
            value = getattr(self, name)
            if not (0.0 < value < 1.0):
                raise InvalidParametersError(f"{name} must lie in (0, 1), got {value!r}")
        if self.rank_rel is not None and not (0.0 < self.rank_rel < 1.0):
            raise InvalidParametersError(f"rank_rel must lie in (0, 1), got {self.rank_rel!r}")

    def rank_cutoff(self, dim: int) -> float:
        """Relative rank cutoff for a problem of dimension ``dim``."""
        if self.rank_rel is not None:
            return self.rank_rel
        return 1e-12 * dim


DEFAULT_TOL = Tolerances()


@dataclass(frozen=True)
class OperatorBounds:
    """Two-sided spectral bounds ``lower * I <= T <= upper * I``."""

    lower: float
    upper: float

    def __post_init__(self):
        ok = np.isfinite(self.lower) and np.isfinite(self.upper)
        if not ok or not (0.0 < self.lower <= self.upper):
            raise InvalidParametersError(
                f"bounds must satisfy 0 < lower <= upper, got ({self.lower!r}, {self.upper!r})"
            )

    @property
    def condition(self) -> float:
        return self.upper / self.lower


def as_vector(x, dim: int | None = None) -> np.ndarray:
    """Validate ``x`` as a finite complex vector, optionally of length ``dim``."""
    v = np.asarray(x, dtype=np.complex128)
    if v.ndim != 1 or v.size == 0:
        raise InvalidParametersError(f"expected a nonempty vector, got shape {v.shape}")
    if dim is not None and v.shape[0] != dim:
        raise DimensionMismatchError(f"expected a vector of length {dim}, got {v.shape[0]}")
    if not np.isfinite(v).all():
        raise InvalidParametersError("vector has non-finite entries")
    return v


def _validated_rectangular(U) -> np.ndarray:
    """``U`` as a finite, nonempty, two-dimensional complex array: the
    package's one array validation."""
    M = np.asarray(U, dtype=np.complex128)
    if M.ndim != 2 or M.size == 0:
        raise InvalidParametersError(f"expected a nonempty matrix, got shape {M.shape}")
    if not np.isfinite(M).all():
        raise InvalidParametersError("matrix has non-finite entries")
    return M


def as_operator(T, dim: int | None = None) -> np.ndarray:
    """Validate ``T`` as a finite square complex matrix, optionally ``dim x dim``."""
    M = _validated_rectangular(T)
    if M.shape[0] != M.shape[1]:
        raise InvalidParametersError(f"expected a square operator, got shape {M.shape}")
    if dim is not None and M.shape[0] != dim:
        raise DimensionMismatchError(f"expected a {dim} x {dim} operator, got {M.shape[0]} x {M.shape[1]}")
    return M


def _checked_integer(name: str, value, minimum: int) -> None:
    """Refuse ``value`` unless it is an integer ``>= minimum`` (a bool is not
    one): the package's one integer-parameter check."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise InvalidParametersError(f"{name} must be an integer >= {minimum}, got {value!r}")


def _checked_real(name: str, value, rule: str, holds) -> None:
    """Refuse ``value`` unless it is a real number (a bool is not one) for
    which ``holds(value)`` is true: the package's one real-parameter check.
    ``rule`` completes the message ``{name} must ...``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not holds(value):
        raise InvalidParametersError(f"{name} must {rule}, got {value!r}")


def _read_only(value):
    """``value``, an array or a tuple, with its arrays made read-only in place."""
    for a in value if isinstance(value, tuple) else (value,):
        if isinstance(a, np.ndarray):
            a.setflags(write=False)
    return value


def _cached_read_only(method):
    """``method`` as a cached property whose value is :func:`_read_only`."""
    return cached_property(lambda self: _read_only(method(self)))


def hermitian_part(T) -> np.ndarray:
    """``(T + T*) / 2``.  Used to scrub rounding asymmetry, never to hide a defect."""
    M = np.asarray(T, dtype=np.complex128)
    return 0.5 * (M + M.conj().T)


def is_hermitian(T, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Whether ``||T - T*||_F <= rel_eq * ||T||_F``, decided on ``T~``."""
    M, _ = _pow2_scaled(as_operator(T))
    defect = np.linalg.norm(M - M.conj().T)
    return bool(defect <= tol.rel_eq * np.linalg.norm(M))


_WINDOW_LOW, _WINDOW_HIGH = 2.0**-128, 2.0**128


def _pow2_scaled(A):
    """``(A 2^-e, e)`` for a complex ``A``, with the exponent ``e`` of the
    module's Scale section (``0`` for a zero ``A``); ``A`` itself in the window."""
    parts = np.ascontiguousarray(A).view(np.float64)
    m = max(parts.max(), -parts.min())
    if _WINDOW_LOW <= m < _WINDOW_HIGH:
        return A, 0
    e = math.frexp(m)[1]
    return _times_pow2(A, -e), e


def _pow2_scaled_columns(V) -> np.ndarray:
    """``V`` with each column scaled as :func:`_pow2_scaled` scales an
    array, by the exponent of its own largest part, in one ``np.ldexp``."""
    parts = np.ascontiguousarray(V).view(np.float64).reshape(*V.shape, 2)
    m = np.abs(parts).max(axis=(0, 2))
    exponents = np.where((_WINDOW_LOW <= m) & (m < _WINDOW_HIGH), 0, np.frexp(m)[1])
    return np.ldexp(parts, -exponents[:, None]).view(np.complex128)[..., 0]


def _times_pow2(A, n: int) -> np.ndarray:
    """``A 2^n`` for a complex ``A``, part by part: exact while no part
    leaves the normal range, ``inf`` beyond the largest float, no warning."""
    with np.errstate(over="ignore"):
        return np.ldexp(np.ascontiguousarray(A).view(np.float64), n).view(np.complex128)


def _scaled_back(x: float, e: int) -> float:
    """``x 2^e``: ``inf`` with the sign of ``x`` above the largest float,
    ``0.0`` below the smallest."""
    try:
        return math.ldexp(x, e)
    except OverflowError:
        return math.copysign(math.inf, x)


def _is_normal(x) -> bool:
    """Whether ``x`` is a normal float: finite and at least the smallest
    normal one (``nan`` is not)."""
    return bool(np.finfo(np.float64).tiny <= x < math.inf)


def _checked_hermitian(T, tol: Tolerances) -> np.ndarray:
    """``hermitian_part(T)``, refused unless ``T`` is Hermitian within tolerance.
    :func:`is_hermitian` validates ``T``."""
    if not is_hermitian(T, tol):
        raise NotHermitianError("operator is not Hermitian within tolerance")
    return hermitian_part(T)


def _positivity_slack(w, tol: Tolerances) -> float:
    """``psd_slack * max|w|`` for an ascending spectrum ``w``: the package's one
    positivity rule.  Eigenvalues at or below it count as zero."""
    return tol.psd_slack * float(max(abs(w[0]), abs(w[-1])))


def _spectrum_bounds(w, tol: Tolerances) -> OperatorBounds:
    """``(w[0], w[-1])`` of an ascending spectrum once ``w[0]`` clears
    :func:`_positivity_slack`."""
    slack = _positivity_slack(w, tol)
    if w[0] <= slack:
        raise NotPositiveDefiniteError(
            f"smallest eigenvalue {w[0]:.6e} does not clear the positivity slack {slack:.3e}"
        )
    return OperatorBounds(float(w[0]), float(w[-1]))


def _apply_spectrum(w, Q, fn) -> np.ndarray:
    """``Q diag(fn(w)) Q*`` for the eigenpairs ``(w, Q)`` of a Hermitian operator."""
    return hermitian_part((Q * fn(w)) @ Q.conj().T)


def positive_definite_bounds(T, tol: Tolerances = DEFAULT_TOL) -> OperatorBounds:
    """Certify ``T`` as Hermitian positive definite and return optimal bounds.

    The returned pair ``(m, M)`` consists of the extreme eigenvalues, so it is
    the tightest pair with ``m * I <= T <= M * I``; ``M`` equals the operator
    norm of ``T`` and the whole spectrum lies in ``[m, M]``.  Equivalently,
    ``T`` has an invertible Hermitian square root (see :func:`operator_sqrt`).

    Raises
    ------
    NotHermitianError
        If ``T`` is not Hermitian within tolerance.
    NotPositiveDefiniteError
        If the smallest eigenvalue does not clear ``psd_slack * ||T||``.
    """
    return _spectrum_bounds(np.linalg.eigvalsh(_checked_hermitian(T, tol)), tol)


def operator_sqrt(T, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Hermitian square root of a positive semi-definite operator.

    Eigenvalues in ``[-psd_slack * ||T||, 0)`` are treated as rounding noise
    and clamped to zero; anything more negative raises.  For positive definite
    input the root is invertible with condition number ``sqrt(M / m)``.
    """
    w, Q = np.linalg.eigh(_checked_hermitian(T, tol))
    slack = _positivity_slack(w, tol)
    if w[0] < -slack:
        raise IndefiniteOperatorError(f"eigenvalue {w[0]:.6e} is below the clamping window -{slack:.3e}")
    return _apply_spectrum(w, Q, lambda v: np.sqrt(np.clip(v, 0.0, None)))


def spectral_function(op, fn, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Apply ``fn`` to the eigenvalues of a Hermitian operator.

    Raises :class:`NotHermitianError` if ``op`` is not Hermitian within
    tolerance.
    """
    return _apply_spectrum(*np.linalg.eigh(_checked_hermitian(op, tol)), fn)


def _rank(s, shape, tol: Tolerances) -> int:
    """Number of the descending singular values ``s`` of a ``shape`` matrix
    above ``rank_cutoff(max(shape)) * s[0]``: the package's one rank rule.
    An all-zero ``s`` has rank zero."""
    return int((s > tol.rank_cutoff(max(shape)) * s[0]).sum())


def pseudo_inverse(U, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Moore-Penrose pseudo-inverse via SVD with a relative rank cutoff.

    Singular values below ``rank_cutoff(max(shape)) * sigma_max`` are treated
    as exactly zero.  The result satisfies the four Penrose identities, and
    ``U @ pinv(U)`` is the orthogonal projector onto range(U), so
    ``U pinv(U) x = x`` for every ``x`` in range(U).
    """
    M = _validated_rectangular(U)
    Us, s, Vh = np.linalg.svd(M, full_matrices=False)
    inv_s = np.zeros_like(s)
    r = _rank(s, M.shape, tol)
    inv_s[:r] = 1.0 / s[:r]
    return (Vh.conj().T * inv_s) @ Us.conj().T


def numerical_rank(U, tol: Tolerances = DEFAULT_TOL) -> int:
    """Number of singular values above the relative rank cutoff."""
    M = _validated_rectangular(U)
    return _rank(np.linalg.svd(M, compute_uv=False), M.shape, tol)


def range_basis(U, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of range(U) as the columns of a ``d x rank`` matrix."""
    M = _validated_rectangular(U)
    Us, s, _ = np.linalg.svd(M, full_matrices=False)
    return Us[:, :_rank(s, M.shape, tol)]


def operator_leq(T1, T2, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Loewner comparison ``T1 <= T2`` with explicit slack.

    True iff ``lambda_min(T2 - T1) >= -psd_slack * max(||T1||_F, ||T2||_F)``,
    so the comparison takes one decomposition, of ``T2 - T1``.  Both operands
    must be Hermitian; comparing non-Hermitian operators is a category error,
    not a numerical question, and raises :class:`NonHermitianComparisonError`.
    Decided on the pair scaled by one shared exponent.
    """
    A = as_operator(T1)
    B = as_operator(T2, dim=A.shape[0])
    (A, B), _ = _pow2_scaled(np.stack([A, B]))
    if not is_hermitian(A, tol) or not is_hermitian(B, tol):
        raise NonHermitianComparisonError("Loewner comparison requires Hermitian operands")
    gap = float(np.linalg.eigvalsh(hermitian_part(B) - hermitian_part(A))[0])
    slack = tol.psd_slack * max(np.linalg.norm(A), np.linalg.norm(B))
    return bool(gap >= -slack)


def _scaled_leq(A: float, p: int, W, P, tol: Tolerances) -> bool:
    """Loewner comparison ``A 2^p W <= P`` of scaled operands, without
    forming ``A 2^p``: with ``A = m 2^a``, ``m`` in ``[1/2, 1)``, the
    exponent ``q = a + p`` goes on whichever side it shrinks, ``m W <= 2^-q
    P`` for ``q > 0``, else ``2^q m W <= P``.  A candidate ``A`` that is not
    finite and positive is refused with :class:`InvalidParametersError`,
    the one rule of the three Loewner checks that call this.
    """
    if not 0.0 < A < math.inf:
        raise InvalidParametersError(f"the candidate lower bound must be positive, got {A!r}")
    m, a = math.frexp(A)
    q = a + p
    W, P = (m * W, _times_pow2(P, -q)) if q > 0 else (_times_pow2(m * W, q), P)
    return operator_leq(W, P, tol)


def inverse_bounds(bounds: OperatorBounds) -> OperatorBounds:
    """Optimal bounds of the inverse: ``(1/upper, 1/lower)``."""
    return OperatorBounds(1.0 / bounds.upper, 1.0 / bounds.lower)
