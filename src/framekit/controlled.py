"""Controlled K-frames: a positive invertible controller ``C`` commuting with
``K`` reweights the frame inequality through the form ``<C S f, f>``.

The controlled operator is the one-sided product ``L = C S`` — deliberately
not symmetrized.  When ``C`` commutes with ``S`` the product is Hermitian and
the form is real; when it does not, the Hermiticity check fails loudly rather
than silently averaging away the defect.  The lower inequality compares the
form against ``||C^{1/2} K* f||^2 = <K C K* f, f>``, so the certified optimum
is a generalized eigenvalue problem for the pencil ``(C S, K C K*)`` on
``range(K)``, exactly parallel to the uncontrolled case.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import CommutationError, NonRealFormError
from .frames import FrameSequence, frame_operator
from .kframes import _lower_verdict
from .operators import (
    DEFAULT_TOL,
    OperatorBounds,
    Tolerances,
    _apply_spectrum,
    _checked_hermitian,
    _spectrum_bounds,
    as_operator,
    as_vector,
    hermitian_part,
    is_hermitian,
    operator_leq,
)

__all__ = [
    "Controller",
    "ControlledReport",
    "make_controller",
    "identity_controller",
    "commutes",
    "controlled_operator",
    "controlled_form",
    "controlled_kframe_check",
    "controlled_operator_inequality",
    "sandwich_inequality_check",
    "bounds_to_kframe",
    "bounds_to_controlled",
    "interchange_identity_check",
]


@dataclass(frozen=True)
class Controller:
    """A certified positive invertible operator with one cached eigendecomposition.

    ``_eigh`` holds the ascending eigenpairs ``(w, Q)`` of ``matrix``.
    ``bounds`` are the extreme eigenvalues, and ``sqrt``, ``inv`` and
    ``inv_sqrt`` are built from the same eigenpairs on first use, so they
    commute with ``matrix`` to rounding and stay mutually consistent.
    """

    matrix: np.ndarray
    _eigh: tuple = field(repr=False, compare=False)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def bounds(self) -> OperatorBounds:
        w = self._eigh[0]
        return OperatorBounds(float(w[0]), float(w[-1]))

    @property
    def condition(self) -> float:
        return self.bounds.condition

    @cached_property
    def sqrt(self) -> np.ndarray:
        return _apply_spectrum(*self._eigh, np.sqrt)

    @cached_property
    def inv(self) -> np.ndarray:
        return _apply_spectrum(*self._eigh, lambda w: 1.0 / w)

    @cached_property
    def inv_sqrt(self) -> np.ndarray:
        return _apply_spectrum(*self._eigh, lambda w: 1.0 / np.sqrt(w))


def make_controller(C, tol: Tolerances = DEFAULT_TOL) -> Controller:
    """Validate ``C`` as Hermitian positive definite from one eigendecomposition."""
    M = as_operator(C)
    w, Q = np.linalg.eigh(_checked_hermitian(M, tol))
    _spectrum_bounds(w, tol)          # raises unless positive definite
    return Controller(M, (w, Q))


def identity_controller(dim: int) -> Controller:
    eye = np.eye(dim, dtype=np.complex128)
    return Controller(eye, (np.ones(dim), eye))


def commutes(ctrl: Controller, K, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Whether ``||C K - K C||_F <= rel_eq * ||C||_F * ||K||_F``."""
    Kop = as_operator(K, dim=ctrl.dim)
    defect = np.linalg.norm(ctrl.matrix @ Kop - Kop @ ctrl.matrix)
    scale = np.linalg.norm(ctrl.matrix) * np.linalg.norm(Kop)
    return bool(defect <= tol.rel_eq * max(1.0, scale))


def controlled_operator(frame: FrameSequence, ctrl: Controller) -> np.ndarray:
    """``L = C S``, one-sided by design; Hermiticity is checked, never imposed."""
    return ctrl.matrix @ frame_operator(frame)


def controlled_form(frame: FrameSequence, ctrl: Controller, f, tol: Tolerances = DEFAULT_TOL) -> float:
    """The quadratic form ``<C S f, f>``, required to be real.

    Equals the coefficient pairing ``sum_n <f, f_n> conj(<f, C f_n>)``.  The
    imaginary part must stay below ``rel_eq * ||C|| * ||S|| * ||f||^2``;
    a larger one means ``C S`` is materially non-Hermitian and the controlled
    theory does not apply to the pair.
    """
    v = as_vector(f, dim=frame.dim)
    value = complex(np.vdot(v, ctrl.matrix @ (frame_operator(frame) @ v)))
    limit = tol.rel_eq * ctrl.bounds.upper * float(frame._spectrum[-1]) * float(np.vdot(v, v).real)
    if abs(value.imag) > max(limit, np.finfo(float).tiny):
        raise NonRealFormError(
            f"form has imaginary part {value.imag:.3e} beyond the admissible {limit:.3e}; "
            "C S is not Hermitian for this pair"
        )
    return float(value.real)


@dataclass(frozen=True)
class ControlledReport:
    """Verdict and certified constants for one ``(family, K, C)`` triple.

    Mirrors the uncontrolled report: ``lower_opt`` is the minimal quotient
    ``<C S f, f> / ||C^{1/2} K* f||^2`` over ``range(K)``; ``upper_opt`` is
    ``lambda_max(C S)``.  ``vacuous`` marks rank-zero ``K``.
    """

    commutes_with_k: bool
    form_is_real: bool
    is_controlled_kframe: bool
    lower_opt: float
    upper_opt: float
    rank_k: int
    vacuous: bool


def _require_real_product(ctrl: Controller, S, tol: Tolerances) -> np.ndarray:
    """``C S``, refused with :class:`NonRealFormError` unless it is Hermitian.

    The one Hermiticity check on ``C S``: the controlled verdict, the
    controlled solve and the interchange identity go through it, and the
    Loewner comparisons leave the check to :func:`operator_leq`.
    """
    L = ctrl.matrix @ S
    if not is_hermitian(L, tol):
        defect = np.linalg.norm(L - L.conj().T) / max(1.0, np.linalg.norm(L))
        raise NonRealFormError(
            f"C S is not Hermitian (relative defect {defect:.3e}); "
            "the controlled form would not be real-valued"
        )
    return L


def controlled_kframe_check(frame: FrameSequence, K, ctrl: Controller, tol: Tolerances = DEFAULT_TOL) -> ControlledReport:
    """Decide the controlled K-frame property and certify optimal constants.

    Requires ``C K = K C`` and ``C S`` Hermitian; failing either is an error,
    not a negative verdict, because the controlled inequality is not even
    well-posed then.  The lower constant comes from the pencil
    ``(Q* C S Q, Q* K C K* Q)`` on an orthonormal basis ``Q`` of ``range(K)``.
    Scaling ``C`` by ``c > 0`` scales ``upper_opt`` by ``c`` and leaves
    ``lower_opt`` and the verdict unchanged.
    """
    Kop = as_operator(K, dim=frame.dim)
    if not commutes(ctrl, Kop, tol):
        raise CommutationError("controller does not commute with K within tolerance")
    Lh = hermitian_part(_require_real_product(ctrl, frame_operator(frame), tol))
    upper = float(np.linalg.eigvalsh(Lh)[-1])
    # <K C K* f, f> = ||C^(1/2) K* f||^2
    rank, lower, _, verdict = _lower_verdict(Lh, Kop, upper, tol, C=ctrl.matrix)
    return ControlledReport(
        commutes_with_k=True, form_is_real=True, is_controlled_kframe=verdict,
        lower_opt=lower, upper_opt=upper, rank_k=rank, vacuous=rank == 0,
    )


def controlled_operator_inequality(frame: FrameSequence, K, ctrl: Controller, A: float, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Operator-inequality verdict: ``A * C K K* <= C S`` in the Loewner order.

    Both sides must be Hermitian — true whenever ``C`` commutes with ``K`` and
    with ``S`` — otherwise :func:`operator_leq` refuses the comparison.
    """
    Kop = as_operator(K, dim=frame.dim)
    left = A * (ctrl.matrix @ Kop @ Kop.conj().T)
    return operator_leq(left, controlled_operator(frame, ctrl), tol)


def sandwich_inequality_check(frame: FrameSequence, K, ctrl: Controller, A: float, B: float, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Two-sided operator inequality ``A * K C K* <= C S <= B * I``.

    This is the operator form of the controlled frame inequality: the weight
    ``K C K*`` reproduces ``||C^{1/2} K* f||^2`` as a quadratic form.  With the
    certified optimal ``(A, B)`` from :func:`controlled_kframe_check` both
    comparisons hold with equality attained at the extremal directions.
    """
    Kop = as_operator(K, dim=frame.dim)
    L = controlled_operator(frame, ctrl)
    weight = hermitian_part(Kop @ ctrl.matrix @ Kop.conj().T)
    eye = np.eye(frame.dim, dtype=np.complex128)
    return operator_leq(A * weight, L, tol) and operator_leq(L, B * eye, tol)


def bounds_to_kframe(A: float, B: float, ctrl: Controller) -> tuple[float, float]:
    """Transfer controlled bounds ``(A, B)`` to uncontrolled K-frame bounds.

    Returns ``(A / ||C^{1/2}||^2, B * ||C^{-1/2}||^2)``, read off the
    controller's spectrum as ``||C^{1/2}||^2 = lambda_max(C)`` and
    ``||C^{-1/2}||^2 = 1 / lambda_min(C)``.  The upper transfer is always
    valid.  The lower transfer divides by ``lambda_max(C)``, so it is a valid
    (not optimal) lower K-frame bound whenever ``lambda_max(C) >= 1``; the
    commuting-family generator normalizes controllers to satisfy that, and
    callers supplying their own controllers with ``||C|| < 1`` should rescale
    first — scaling ``C`` never changes the controlled verdict.
    """
    return (A / ctrl.bounds.upper, B / ctrl.bounds.lower)


def bounds_to_controlled(
    A_prime: float,
    B_prime: float,
    ctrl: Controller,
    K=None,
    tol: Tolerances = DEFAULT_TOL,
) -> tuple[float, float]:
    """Transfer K-frame bounds ``(A', B')`` to controlled bounds ``(A', B' * ||C||)``.

    ``||C|| = lambda_max(C)`` is read off the controller's spectrum.  Pass
    ``K`` to have the commutation hypothesis checked; the arithmetic itself
    needs only the controller.
    """
    if K is not None and not commutes(ctrl, K, tol):
        raise CommutationError("controller does not commute with K within tolerance")
    return (A_prime, B_prime * ctrl.bounds.upper)


def interchange_identity_check(frame: FrameSequence, ctrl: Controller, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Whether the controller may change sides in the weighted sum.

    The two weighted synthesis sums are the actions of ``C S`` and ``S C``, so
    the identity is exactly commutation:
    ``||C S - S C||_F <= rel_eq * ||C||_F * ||S||_F``.  Requires the form to
    be real-valued in the first place (``C S`` Hermitian); a materially
    non-Hermitian product raises instead of returning a verdict, because then
    neither sum defines a controlled frame expression.
    """
    S = frame_operator(frame)
    _require_real_product(ctrl, S, tol)
    return commutes(ctrl, S, tol)
