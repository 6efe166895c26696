"""Controlled K-frames: a positive invertible controller ``C`` commuting with
``K`` reweights the frame inequality through the form ``<C S f, f>``.

The controlled operator is the one-sided product ``L = C S`` — deliberately
not symmetrized.  When ``C`` commutes with ``S`` the product is Hermitian and
the form is real; when it does not, the Hermiticity check fails loudly rather
than silently averaging away the defect.  The lower inequality compares the
form against ``||C^{1/2} K* f||^2``, i.e. ``A K C K* <= C S``.

Equivalence theorem: controlled K-frames are K-frames.  Under the checked
hypotheses ``C K = K C`` and ``C S`` Hermitian (so ``C S = S C``),
congruence by ``C^{-1/2}`` maps ``A K C K* <= C S`` exactly onto
``A K K* <= S``, and the controlled quotient at ``C^{-1/2} f`` equals the
plain quotient ``<S f, f> / ||K* f||^2`` at ``f``.  So the optimal
controlled lower constant is the plain Douglas optimum, and the controlled
minimiser is the plain witness pulled back through ``C^{-1/2}``.  The
controlled verdict *is* the plain verdict: it reuses the frame's K-frame
report and adds only ``lambda_max(C S)``, so rescaling ``C`` never changes
it.  The hypotheses are checked to ``rel_eq``, so for a controller that
commutes only to within that tolerance the true controlled optimum may
differ from the plain one at the ``rel_eq`` level.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import CommutationError, NonRealFormError
from .frames import FrameSequence, frame_operator
from .kframes import kframe_check
from .operators import (
    DEFAULT_TOL,
    OperatorBounds,
    Tolerances,
    _apply_spectrum,
    _checked_hermitian,
    _pow2_scaled,
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
    """Whether ``||C K - K C||_F <= rel_eq * ||C||_F * ||K||_F``.

    The test is homogeneous in ``C`` and in ``K``, so each is first scaled by
    an exact power of two (see :func:`framekit.operators._pow2_scaled`): a huge
    or tiny operator neither overflows nor underflows the norms.
    """
    C, _ = _pow2_scaled(ctrl.matrix)
    Kop, _ = _pow2_scaled(as_operator(K, dim=ctrl.dim))
    defect = np.linalg.norm(C @ Kop - Kop @ C)
    return bool(defect <= tol.rel_eq * np.linalg.norm(C) * np.linalg.norm(Kop))


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
    limit = tol.rel_eq * ctrl.bounds.upper * float(frame._eigh[0][-1]) * float(np.vdot(v, v).real)
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
    ``<C S f, f> / ||C^{1/2} K* f||^2`` over every ``f`` with ``K* f != 0``;
    ``upper_opt`` is ``lambda_max(C S)``.  ``vacuous`` marks rank-zero ``K``.
    ``witness`` is a unit vector attaining ``lower_opt``: the plain K-frame
    witness pulled back through ``C^{-1/2}`` (``None`` when vacuous).
    """

    commutes_with_k: bool
    form_is_real: bool
    is_controlled_kframe: bool
    lower_opt: float
    upper_opt: float
    vacuous: bool
    witness: np.ndarray | None


def _require_real_product(ctrl: Controller, S, tol: Tolerances) -> np.ndarray:
    """``C S``, refused with :class:`NonRealFormError` unless it is Hermitian.

    The one Hermiticity check on ``C S``: the controlled verdict, the
    controlled solve and the interchange identity go through it, and the
    Loewner comparisons leave the check to :func:`operator_leq`.
    """
    L = ctrl.matrix @ S
    if not is_hermitian(L, tol):
        M, _ = _pow2_scaled(L)  # the relative defect, free of overflow
        defect = np.linalg.norm(M - M.conj().T) / np.linalg.norm(M)
        raise NonRealFormError(
            f"C S is not Hermitian (relative defect {defect:.3e}); "
            "the controlled form would not be real-valued"
        )
    return L


def controlled_kframe_check(frame: FrameSequence, K, ctrl: Controller, tol: Tolerances = DEFAULT_TOL) -> ControlledReport:
    """Decide the controlled K-frame property and certify optimal constants.

    Requires ``C K = K C`` and ``C S`` Hermitian; failing either is an error,
    not a negative verdict, because the controlled inequality is not even
    well-posed then.  By the equivalence theorem (module docstring) the
    verdict, lower constant and witness come from :func:`kframe_check`
    of ``(frame, K)``, memoised on ``frame``, with the witness ``w`` pulled
    back to ``C^{-1/2} w`` through the controller's eigenpairs; ``upper_opt``
    is ``lambda_max(C S)`` from one ``eigvalsh``.  Near the commutation
    tolerance the true controlled optimum may differ from this one at the
    ``rel_eq`` level.  Scaling ``C`` by ``c > 0`` scales ``upper_opt`` by
    ``c`` and changes neither ``lower_opt`` nor the verdict.
    """
    Kop = as_operator(K, dim=frame.dim)
    if not commutes(ctrl, Kop, tol):
        raise CommutationError("controller does not commute with K within tolerance")
    L = _require_real_product(ctrl, frame_operator(frame), tol)
    upper = float(np.linalg.eigvalsh(hermitian_part(L))[-1])
    plain = kframe_check(frame, Kop, tol)
    witness = plain.witness
    if witness is not None:
        w, Q = ctrl._eigh
        # A controller with tiny eigenvalues makes the pulled-back vector
        # huge: an exact power-of-two scaling keeps its norm finite.
        witness, _ = _pow2_scaled(Q @ ((Q.conj().T @ witness) / np.sqrt(w)))
        witness /= np.linalg.norm(witness)
    return ControlledReport(
        commutes_with_k=True, form_is_real=True, is_controlled_kframe=plain.is_kframe,
        lower_opt=plain.lower_opt, upper_opt=upper, vacuous=plain.vacuous, witness=witness,
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

    Returns ``(A, B * ||C^{-1/2}||^2)``, with ``||C^{-1/2}||^2 = 1 /
    lambda_min(C)`` read off the controller's spectrum.  Both transfers hold
    for every positive ``C`` under the hypotheses the controlled check
    verifies (``C K = K C``, ``C S`` Hermitian): congruence by ``C^{-1/2}``
    maps ``A K C K* <= C S`` onto ``A K K* <= S``, so a controlled lower
    bound is a plain one as it is.  Scaling ``C`` never changes the
    controlled verdict, which is the plain K-frame verdict.
    """
    return (A, B / ctrl.bounds.lower)


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
