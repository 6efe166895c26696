"""Finite frame sequences in ``C^d``.

A sequence of vectors is stored as the columns of its synthesis matrix.  The
analysis map sends ``f`` to its coefficient sequence ``<f, f_n>``, the frame
operator is ``S = T T*``, and the optimal frame bounds are the extreme
eigenvalues of ``S``.  Every finite family is Bessel, so the only verdict to
settle is whether the lower bound clears zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatchError, InvalidParametersError, NotPositiveDefiniteError
from .operators import DEFAULT_TOL, Tolerances, _spectrum_bounds, as_vector, hermitian_part

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

    The frame operator and its ascending spectrum are computed on first use
    and cached read-only, so every check on one family shares them.
    """

    matrix: np.ndarray

    def __post_init__(self):
        M = np.array(self.matrix, dtype=np.complex128, copy=True)
        if M.ndim != 2 or M.shape[0] == 0 or M.shape[1] == 0:
            raise InvalidParametersError(
                f"a frame sequence needs a nonempty d x n matrix, got shape {M.shape}"
            )
        if not np.isfinite(M).all():
            raise InvalidParametersError("frame vectors have non-finite entries")
        M.setflags(write=False)
        object.__setattr__(self, "matrix", M)

    @classmethod
    def from_vectors(cls, vectors) -> "FrameSequence":
        """Build from an iterable of length-``d`` vectors."""
        cols = [as_vector(v) for v in vectors]
        if not cols:
            raise InvalidParametersError("a frame sequence needs at least one vector")
        return cls(np.stack(cols, axis=1))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def count(self) -> int:
        return self.matrix.shape[1]

    @cached_property
    def _operator(self) -> np.ndarray:
        S = hermitian_part(self.matrix @ self.matrix.conj().T)
        S.setflags(write=False)
        return S

    @cached_property
    def _spectrum(self) -> np.ndarray:
        w = np.linalg.eigvalsh(self._operator)
        w.setflags(write=False)
        return w


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

    The array is cached on ``frame`` and read-only; copy it before writing.
    """
    return frame._operator


def frame_bounds(frame: FrameSequence, tol: Tolerances = DEFAULT_TOL) -> FrameBounds:
    """Optimal frame bounds from the spectrum of the frame operator.

    The upper bound is ``lambda_max(S)``.  If ``lambda_min(S)`` clears the
    positivity slack the family is an ordinary frame with optimal lower bound
    ``lambda_min(S)``; otherwise the report is Bessel-only.  Both extremes are
    attained by the corresponding eigenvectors, so the bounds are tight.
    """
    w = frame._spectrum
    try:
        lower = _spectrum_bounds(w, tol).lower
    except NotPositiveDefiniteError:
        lower = None
    return FrameBounds(upper=float(w[-1]), lower=lower)
