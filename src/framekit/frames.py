"""Finite frame sequences in ``C^d``.

A sequence of vectors is stored as the columns of its synthesis matrix.  The
analysis map sends ``f`` to its coefficient sequence ``<f, f_n>``, the frame
operator is ``S = T T*``, and the optimal frame bounds are the extreme
eigenvalues of ``S``.  Every finite family is Bessel, so the only verdict to
settle is whether the lower bound clears zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, InvalidParametersError, NotPositiveDefiniteError
from .operators import (
    DEFAULT_TOL, Tolerances, _cached_read_only, _is_normal, _pow2_scaled, _read_only, _scaled_back,
    _spectrum_bounds, _times_pow2, _validated_rectangular, as_vector, hermitian_part,
)

__all__ = [
    "FrameSequence",
    "FrameBounds",
    "synthesis",
    "analysis",
    "frame_operator",
    "frame_bounds",
]


@dataclass(frozen=True)
class FrameSequence:
    """A finite vector family in ``C^d``, held as a ``d x n`` synthesis matrix.

    It caches ``(T~, e)``, ``(S~, s)`` with ``S~ = T~ T~*`` and ``s = 2e``,
    and the ascending eigenpairs of ``S~`` (see :mod:`framekit.operators`).
    """

    matrix: np.ndarray

    def __post_init__(self):
        # np.array copies the input once; the validator keeps that copy
        M = _validated_rectangular(np.array(self.matrix, dtype=np.complex128))
        object.__setattr__(self, "matrix", _read_only(M))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def count(self) -> int:
        return self.matrix.shape[1]

    @_cached_read_only
    def _scaled_matrix(self) -> tuple[np.ndarray, int]:
        return _pow2_scaled(self.matrix)

    @_cached_read_only
    def _scaled(self) -> tuple[np.ndarray, int]:
        T, e = self._scaled_matrix
        return hermitian_part(T @ T.conj().T), 2 * e

    @_cached_read_only
    def _eigh(self) -> tuple[np.ndarray, np.ndarray]:
        return np.linalg.eigh(self._scaled[0])


@dataclass(frozen=True)
class FrameBounds:
    """Optimal bounds report.

    ``upper`` is always the optimal Bessel bound ``lambda_max(S)``.  ``lower``
    is the optimal lower frame bound when the family is a frame and ``None``
    when it is Bessel-only (frame operator numerically singular).
    """

    upper: float
    lower: float | None

    @property
    def is_frame(self) -> bool:
        return self.lower is not None


def synthesis(frame: FrameSequence, coefficients) -> np.ndarray:
    """``sum_n a[n] f_n`` for a coefficient sequence ``a``."""
    a = as_vector(coefficients)
    if a.shape[0] != frame.count:
        raise DimensionMismatchError(
            f"expected {frame.count} coefficients, got {a.shape[0]}"
        )
    return frame.matrix @ a


def analysis(frame: FrameSequence, f) -> np.ndarray:
    """Coefficient sequence ``(<f, f_n>)_n``, i.e. ``T* f``."""
    v = as_vector(f, dim=frame.dim)
    return frame.matrix.conj().T @ v


def frame_operator(frame: FrameSequence) -> np.ndarray:
    """``S = T T*``, acting as ``S f = sum_n <f, f_n> f_n``.

    ``S~`` scaled back by ``2^s``, read-only; no verdict or solver calls
    it.  Raises :class:`InvalidParametersError` unless its largest part is
    a normal float.
    """
    S, s = frame._scaled
    if s:
        S = _read_only(_times_pow2(S, s))
        if not _is_normal(np.abs(S.view(np.float64)).max()):
            size = "large" if s > 0 else "small"
            raise InvalidParametersError(f"the frame operator lies outside the float range: the frame vectors are too {size}")
    return S


def frame_bounds(frame: FrameSequence, tol: Tolerances = DEFAULT_TOL) -> FrameBounds:
    """Optimal frame bounds from the spectrum of the frame operator.

    The upper bound is ``lambda_max(S)``.  If ``lambda_min(S)`` clears the
    positivity slack the family is an ordinary frame with optimal lower bound
    ``lambda_min(S)``; otherwise the report is Bessel-only.  Both extremes are
    attained by the corresponding eigenvectors, so the bounds are tight.
    Read off the spectrum of ``S~``, scaled back by ``2^s``.
    """
    w, s = frame._eigh[0], frame._scaled[1]
    try:
        lower = _scaled_back(_spectrum_bounds(w, tol).lower, s)
    except NotPositiveDefiniteError:
        lower = None
    return FrameBounds(upper=_scaled_back(float(w[-1]), s), lower=lower)
