"""Dense complex operator kernel: validation, positivity certificates,
Hermitian square roots, pseudo-inverses, and Loewner-order comparisons.

Conventions
-----------
Vectors live in ``C^d`` with the inner product ``<f, g> = sum_i f[i] *
conj(g[i])`` — linear in the first argument, conjugate-linear in the second.
Operators act by left multiplication and adjoints are conjugate transposes.
Every predicate takes a :class:`Tolerances` bundle so numerical slack is
explicit and configurable rather than hidden in library defaults.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    "operator_norm",
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

    Attributes
    ----------
    rel_eq : float
        Relative tolerance for equality of operators and vectors.
    psd_slack : float
        Slack, scaled by operator norm, granted when testing positive
        (semi-)definiteness.
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


def as_operator(T, dim: int | None = None) -> np.ndarray:
    """Validate ``T`` as a finite square complex matrix, optionally ``dim x dim``."""
    M = np.asarray(T, dtype=np.complex128)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] == 0:
        raise InvalidParametersError(f"expected a square operator, got shape {M.shape}")
    if dim is not None and M.shape[0] != dim:
        raise DimensionMismatchError(f"expected a {dim} x {dim} operator, got {M.shape[0]} x {M.shape[1]}")
    if not np.isfinite(M).all():
        raise InvalidParametersError("operator has non-finite entries")
    return M


def operator_norm(T) -> float:
    """Spectral norm (largest singular value)."""
    M = np.asarray(T, dtype=np.complex128)
    if M.size == 0:
        return 0.0
    return float(np.linalg.norm(M, 2))


def hermitian_part(T) -> np.ndarray:
    """``(T + T*) / 2``.  Used to scrub rounding asymmetry, never to hide a defect."""
    M = np.asarray(T, dtype=np.complex128)
    return 0.5 * (M + M.conj().T)


def is_hermitian(T, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Whether ``||T - T*||_F <= rel_eq * max(1, ||T||_F)``."""
    M = as_operator(T)
    defect = np.linalg.norm(M - M.conj().T)
    return bool(defect <= tol.rel_eq * max(1.0, np.linalg.norm(M)))


def _checked_hermitian(T, tol: Tolerances) -> np.ndarray:
    """``hermitian_part(T)``, refused unless ``T`` is Hermitian within tolerance."""
    M = as_operator(T)
    if not is_hermitian(M, tol):
        raise NotHermitianError("operator is not Hermitian within tolerance")
    return hermitian_part(M)


def _spectrum_bounds(w, tol: Tolerances) -> OperatorBounds:
    """``(w[0], w[-1])`` of an ascending spectrum once ``w[0]`` clears the
    positivity slack ``psd_slack * max|w|``; the package's one positivity rule."""
    scale = float(max(abs(w[0]), abs(w[-1])))
    if w[0] <= 0.0 or w[0] <= tol.psd_slack * scale:
        raise NotPositiveDefiniteError(
            f"smallest eigenvalue {w[0]:.6e} does not clear the positivity slack "
            f"{tol.psd_slack * scale:.3e}"
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
    scale = float(max(abs(w[0]), abs(w[-1])))
    if w[0] < -tol.psd_slack * scale:
        raise IndefiniteOperatorError(
            f"eigenvalue {w[0]:.6e} is below the clamping window -{tol.psd_slack * scale:.3e}"
        )
    return _apply_spectrum(w, Q, lambda v: np.sqrt(np.clip(v, 0.0, None)))


def spectral_function(op, fn, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Apply ``fn`` to the eigenvalues of a Hermitian operator."""
    return _apply_spectrum(*np.linalg.eigh(hermitian_part(np.asarray(op, dtype=np.complex128))), fn)


def _validated_rectangular(U) -> np.ndarray:
    M = np.asarray(U, dtype=np.complex128)
    if M.ndim != 2 or M.size == 0:
        raise InvalidParametersError(f"expected a nonempty matrix, got shape {M.shape}")
    if not np.isfinite(M).all():
        raise InvalidParametersError("matrix has non-finite entries")
    return M


def pseudo_inverse(U, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Moore-Penrose pseudo-inverse via SVD with a relative rank cutoff.

    Singular values below ``rank_cutoff(max(shape)) * sigma_max`` are treated
    as exactly zero.  The result satisfies the four Penrose identities, and
    ``U @ pinv(U)`` is the orthogonal projector onto range(U), so
    ``U pinv(U) x = x`` for every ``x`` in range(U).
    """
    M = _validated_rectangular(U)
    Us, s, Vh = np.linalg.svd(M, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((M.shape[1], M.shape[0]), dtype=np.complex128)
    keep = s > tol.rank_cutoff(max(M.shape)) * s[0]
    inv_s = np.where(keep, 1.0 / np.where(keep, s, 1.0), 0.0)
    return (Vh.conj().T * inv_s) @ Us.conj().T


def numerical_rank(U, tol: Tolerances = DEFAULT_TOL) -> int:
    """Number of singular values above the relative rank cutoff."""
    M = _validated_rectangular(U)
    s = np.linalg.svd(M, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int((s > tol.rank_cutoff(max(M.shape)) * s[0]).sum())


def range_basis(U, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of range(U) as the columns of a ``d x rank`` matrix."""
    M = _validated_rectangular(U)
    Us, s, _ = np.linalg.svd(M, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((M.shape[0], 0), dtype=np.complex128)
    r = int((s > tol.rank_cutoff(max(M.shape)) * s[0]).sum())
    return Us[:, :r]


def operator_leq(T1, T2, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Loewner comparison ``T1 <= T2`` with explicit slack.

    True iff ``lambda_min(T2 - T1) >= -psd_slack * max(1, ||T1||, ||T2||)``.
    Both operands must be Hermitian; comparing non-Hermitian operators is a
    category error, not a numerical question, and raises
    :class:`NonHermitianComparisonError`.
    """
    A = as_operator(T1)
    B = as_operator(T2, dim=A.shape[0])
    if not is_hermitian(A, tol) or not is_hermitian(B, tol):
        raise NonHermitianComparisonError("Loewner comparison requires Hermitian operands")
    gap = float(np.linalg.eigvalsh(hermitian_part(B) - hermitian_part(A))[0])
    slack = tol.psd_slack * max(1.0, operator_norm(A), operator_norm(B))
    return bool(gap >= -slack)


def inverse_bounds(bounds: OperatorBounds) -> OperatorBounds:
    """Optimal bounds of the inverse: ``(1/upper, 1/lower)``."""
    return OperatorBounds(1.0 / bounds.upper, 1.0 / bounds.lower)
