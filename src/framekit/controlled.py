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

import math
from dataclasses import dataclass

import numpy as np

from .errors import CommutationError, InvalidParametersError, NonRealFormError, NotHermitianError
from .frames import FrameSequence
from .kframes import kframe_check
from .operators import (
    DEFAULT_TOL,
    OperatorBounds,
    Tolerances,
    _cached_read_only,
    _pow2_scaled,
    _read_only,
    _scaled_back,
    _scaled_leq,
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
    """A positive invertible operator with its scale and eigendecomposition cached.

    ``matrix``, a read-only copy of the operator given, is all it holds.  It
    caches ``(C~, c)`` and the ascending eigenpairs ``_eigh = eigh(hermitian_part(C~))``
    (see :mod:`framekit.operators`); ``bounds`` are their extremes scaled
    back by ``2^c``.  The constructor certifies nothing: :func:`make_controller` does.
    """

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _read_only(np.array(self.matrix, dtype=np.complex128)))  # the one copy

    @_cached_read_only
    def _scaled(self) -> tuple[np.ndarray, int]:
        return _pow2_scaled(self.matrix)

    @_cached_read_only
    def _eigh(self) -> tuple[np.ndarray, np.ndarray]:
        return np.linalg.eigh(hermitian_part(self._scaled[0]))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def bounds(self) -> OperatorBounds:
        w, c = self._eigh[0], self._scaled[1]
        return OperatorBounds(_scaled_back(float(w[0]), c), _scaled_back(float(w[-1]), c))

    @property
    def condition(self) -> float:
        return self.bounds.condition


def make_controller(C, tol: Tolerances = DEFAULT_TOL) -> Controller:
    """Certify ``C`` as Hermitian positive definite and wrap it in a :class:`Controller`.

    Raises :class:`NotHermitianError` unless ``C`` is Hermitian within
    ``rel_eq``, and :class:`NotPositiveDefiniteError` unless its smallest
    eigenvalue clears the positivity slack.  The positivity test reads the
    controller's own eigenpairs, so the one eigendecomposition it runs is
    the one the controller caches.
    """
    M = as_operator(C)
    if not is_hermitian(M, tol):
        raise NotHermitianError("operator is not Hermitian within tolerance")
    ctrl = Controller(M)
    _spectrum_bounds(ctrl._eigh[0], tol)  # raises unless positive definite
    return ctrl


def identity_controller(dim: int) -> Controller:
    return Controller(np.eye(dim, dtype=np.complex128))


def commutes(ctrl: Controller, K, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Whether ``||C K - K C||_F <= rel_eq * ||C||_F * ||K||_F``, decided
    on ``C~`` and ``K~``."""
    C = ctrl._scaled[0]
    Kop, _ = _pow2_scaled(as_operator(K, dim=ctrl.dim))
    defect = np.linalg.norm(C @ Kop - Kop @ C)
    return bool(defect <= tol.rel_eq * np.linalg.norm(C) * np.linalg.norm(Kop))


def controlled_form(frame: FrameSequence, ctrl: Controller, f, tol: Tolerances = DEFAULT_TOL) -> float:
    """The quadratic form ``<C S f, f>``, required to be real.

    Equals the coefficient pairing ``sum_n <f, f_n> conj(<f, C f_n>)``.  The
    imaginary part must stay below ``rel_eq * ||C|| * ||S|| * ||f||^2``;
    a larger one means ``C S`` is materially non-Hermitian and the controlled
    theory does not apply to the pair.  Decided on ``C~``, ``S~`` and
    ``f~ = 2^-b f``; the real part is scaled back by ``2^(c + s + 2b)``.
    """
    v, b = _pow2_scaled(as_vector(f, dim=frame.dim))
    (C, c), (S, s) = ctrl._scaled, frame._scaled
    value = complex(np.vdot(v, C @ (S @ v)))
    norms = float(ctrl._eigh[0][-1]) * float(frame._eigh[0][-1])
    limit = tol.rel_eq * norms * float(np.vdot(v, v).real)
    if abs(value.imag) > limit:
        raise NonRealFormError(
            f"the form's imaginary part is {abs(value.imag) / limit:.3e} times the admissible "
            "rel_eq * ||C|| * ||S|| * ||f||^2; C S is not Hermitian for this pair"
        )
    return _scaled_back(value.real, c + s + 2 * b)


@dataclass(frozen=True)
class ControlledReport:
    """Verdict and certified constants for one ``(family, K, C)`` triple.

    Mirrors the uncontrolled report: ``lower_opt`` is the minimal quotient
    ``<C S f, f> / ||C^{1/2} K* f||^2`` over every ``f`` with ``K* f != 0``;
    ``upper_opt`` is ``lambda_max(C S)``.  ``vacuous`` marks rank-zero ``K``.
    ``witness`` is a read-only unit vector attaining ``lower_opt``: the plain
    K-frame witness pulled back through ``C^{-1/2}`` (``None`` when vacuous).
    No field records the hypotheses ``C K = K C`` and ``C S`` Hermitian: when
    one fails, :func:`controlled_kframe_check` raises instead.
    """

    is_controlled_kframe: bool
    lower_opt: float
    upper_opt: float
    vacuous: bool
    witness: np.ndarray | None


def _require_real_product(frame: FrameSequence, ctrl: Controller, tol: Tolerances) -> tuple[np.ndarray, int]:
    """``(H, x)``: the Hermitian part ``H`` of ``C~ S~ = 2^-x C S``, with
    ``x = c + s``, refused with :class:`NonRealFormError` unless the product
    is Hermitian.

    The one Hermiticity check on ``C S``: the controlled verdict, the
    controlled solve, the benchmark cells and the interchange identity go
    through it, and take the spectrum of ``C~ S~`` from ``H`` with
    ``eigvalsh``.  The Loewner comparisons leave it to :func:`operator_leq`.
    """
    (C, c), (S, s) = ctrl._scaled, frame._scaled
    L = C @ S
    if not is_hermitian(L, tol):
        defect = np.linalg.norm(L - L.conj().T) / np.linalg.norm(L)
        raise NonRealFormError(
            f"C S is not Hermitian (relative defect {defect:.3e}); "
            "the controlled form would not be real-valued"
        )
    return hermitian_part(L), c + s


def controlled_kframe_check(frame: FrameSequence, K, ctrl: Controller, tol: Tolerances = DEFAULT_TOL) -> ControlledReport:
    """Decide the controlled K-frame property and certify optimal constants.

    Requires ``C K = K C`` and ``C S`` Hermitian; failing either is an error,
    not a negative verdict, because the controlled inequality is not even
    well-posed then.  By the equivalence theorem (module docstring) the
    verdict, lower constant and witness come from :func:`kframe_check`
    of ``(frame, K)``, memoised on ``frame``, with the witness ``w`` pulled
    back to ``C^{-1/2} w`` through the controller's eigenpairs; ``upper_opt``
    is ``lambda_max(C S)`` from one ``eigvalsh`` of ``C~ S~``, scaled back
    by ``2^(c + s)``.  Near the commutation tolerance the true controlled
    optimum may differ from this one at the ``rel_eq`` level.  Scaling
    ``C`` by ``t > 0`` scales ``upper_opt`` by ``t`` and changes neither
    ``lower_opt`` nor the verdict.
    """
    Kop = as_operator(K, dim=frame.dim)
    if not commutes(ctrl, Kop, tol):
        raise CommutationError("controller does not commute with K within tolerance")
    H, x = _require_real_product(frame, ctrl, tol)
    upper = _scaled_back(float(np.linalg.eigvalsh(H)[-1]), x)
    plain = kframe_check(frame, Kop, tol)
    witness = plain.witness
    if witness is not None:
        w, Q = ctrl._eigh
        # Tiny eigenvalues of C make the pulled-back vector huge.
        witness, _ = _pow2_scaled(Q @ ((Q.conj().T @ witness) / np.sqrt(w)))
        witness /= np.linalg.norm(witness)
    return ControlledReport(is_controlled_kframe=plain.is_kframe, lower_opt=plain.lower_opt,
                            upper_opt=upper, vacuous=plain.vacuous, witness=_read_only(witness))


def controlled_operator_inequality(frame: FrameSequence, K, ctrl: Controller, A: float, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Operator-inequality verdict: ``A * C K K* <= C S`` in the Loewner order.

    Both sides must be Hermitian — true whenever ``C`` commutes with ``K`` and
    with ``S`` — otherwise :func:`operator_leq` refuses the comparison.
    Decided on ``C~``, ``S~`` and ``K~`` with ``A`` moved by ``2^(2k - s)``
    (see :func:`framekit.operators._scaled_leq`).
    """
    Kop, k = _pow2_scaled(as_operator(K, dim=frame.dim))
    (C, _), (S, s) = ctrl._scaled, frame._scaled
    return _scaled_leq(A, 2 * k - s, C @ Kop @ Kop.conj().T, C @ S, tol)


def sandwich_inequality_check(frame: FrameSequence, K, ctrl: Controller, A: float, B: float, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Two-sided operator inequality ``A * K C K* <= C S <= B * I``.

    This is the operator form of the controlled frame inequality: the weight
    ``K C K*`` reproduces ``||C^{1/2} K* f||^2`` as a quadratic form.  With the
    certified optimal ``(A, B)`` from :func:`controlled_kframe_check` both
    comparisons hold with equality attained at the extremal directions.
    Decided as :func:`controlled_operator_inequality` decides, with ``B``
    moved by ``2^-(c + s)``; a moved ``B`` of ``inf`` bounds every operator.
    A ``B`` that is not positive (``nan`` included) raises
    :class:`InvalidParametersError`; ``inf`` is allowed.
    """
    if not B > 0:
        raise InvalidParametersError(f"the candidate upper bound must be positive, got {B!r}")
    Kop, k = _pow2_scaled(as_operator(K, dim=frame.dim))
    (C, c), (S, s) = ctrl._scaled, frame._scaled
    L = C @ S
    lower_holds = _scaled_leq(A, 2 * k - s, hermitian_part(Kop @ C @ Kop.conj().T), L, tol)
    upper = _scaled_back(B, -c - s)
    return lower_holds and (upper == math.inf or operator_leq(L, upper * np.eye(frame.dim), tol))


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
    ``||C S - S C||_F <= rel_eq * ||C||_F * ||S||_F``, decided on ``S~``.
    Requires the form to be real-valued in the first place (``C S``
    Hermitian); a materially non-Hermitian product raises instead of
    returning a verdict, because then neither sum defines a controlled frame
    expression.
    """
    _require_real_product(frame, ctrl, tol)
    return commutes(ctrl, frame._scaled[0], tol)
