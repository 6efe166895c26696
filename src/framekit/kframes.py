"""Frame sequences relative to the range of a bounded operator ``K``.

A Bessel family ``{f_n}`` is a K-frame when some ``A > 0`` satisfies

    A ||K* f||^2  <=  sum_n |<f, f_n>|^2        for the admissible ``f``,

together with the usual Bessel upper bound.  Equivalently (and this is what
the verdict computes) the frame operator dominates ``A K K*`` in the Loewner
order.  The optimal lower constant is quantified over ``range(K)``: the
directions annihilated by ``K*`` put no constraint on ``A``, and restricting
to ``range(K)`` excludes exactly ``null(K*)``.  The instance generators in
:mod:`framekit.instances` keep ``range(K)`` invariant under the frame
operator, which makes this restricted optimum agree with the global operator
inequality; for arbitrary hand-built inputs with cross-coupling between
``range(K)`` and its complement the global inequality can be strictly more
demanding, and the two verdict styles are both exposed so callers can compare.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (
    DimensionMismatchError,
    InvalidParametersError,
    NotOrthonormalError,
    PreconditionFailedError,
    RangeDeficiencyError,
)
from .frames import FrameSequence, frame_operator
from .operators import (
    DEFAULT_TOL,
    Tolerances,
    as_operator,
    hermitian_part,
    operator_leq,
    operator_norm,
    pseudo_inverse,
    range_basis,
)

__all__ = [
    "KFrameReport",
    "AtomicReport",
    "kframe_check",
    "kframe_operator_inequality",
    "rayleigh_quotients",
    "atomic_system_constant",
    "bessel_dual_check",
    "interchange_dual",
    "construct_kframe",
    "restricted_operator_inequalities",
]


@dataclass(frozen=True)
class KFrameReport:
    """Verdict and certified constants for one ``(family, K)`` pair.

    ``lower_opt`` is the smallest generalized Rayleigh quotient
    ``<S f, f> / ||K* f||^2`` over ``range(K)`` and ``upper_opt`` the optimal
    Bessel bound ``lambda_max(S)``.  ``vacuous`` flags the rank-zero ``K``,
    where the lower inequality quantifies over nothing and the verdict is true
    by convention; ``lower_opt`` is reported as ``0.0`` there and must not be
    fed into arithmetic.  ``witness`` is a unit vector in ``range(K)``
    attaining the minimal quotient (``None`` when vacuous).
    """

    is_bessel: bool
    is_kframe: bool
    lower_opt: float
    upper_opt: float
    rank_k: int
    vacuous: bool
    witness: np.ndarray | None


def _pencil_minimum(S, KK, Q):
    """Smallest generalized eigenpair of (Q* S Q, Q* KK Q) on span(Q)."""
    M1 = hermitian_part(Q.conj().T @ S @ Q)
    M2 = hermitian_part(Q.conj().T @ KK @ Q)
    vals, vecs = scipy.linalg.eigh(M1, M2)
    direction = Q @ vecs[:, 0]
    norm = np.linalg.norm(direction)
    if norm > 0:
        direction = direction / norm
    return float(vals[0]), direction


def _lower_verdict(S, Kop, upper: float, tol: Tolerances, C=None):
    """Lower-bound tail shared by the plain and the controlled verdict.

    Minimizes the pencil ``(S, K C K*)`` on ``range(K)`` (``C = I`` when
    omitted) and returns ``(rank, lower, witness, verdict)``.  Rank zero is
    the vacuous case ``(0, 0.0, None, True)``; otherwise the verdict is
    whether ``lower`` clears ``psd_slack * max(1, upper)``.
    """
    Q = range_basis(Kop, tol)
    rank = Q.shape[1]
    if rank == 0:
        return 0, 0.0, None, True
    Kh = Kop.conj().T
    weight = Kop @ Kh if C is None else Kop @ C @ Kh
    lower, witness = _pencil_minimum(S, weight, Q)
    return rank, lower, witness, bool(lower > tol.psd_slack * max(1.0, upper))


def kframe_check(frame: FrameSequence, K, tol: Tolerances = DEFAULT_TOL) -> KFrameReport:
    """Decide the K-frame property and certify optimal constants.

    The upper constant is ``lambda_max(S)``.  The lower constant is the
    smallest generalized eigenvalue of the pencil ``(Q* S Q, Q* K K* Q)``
    where the columns of ``Q`` span ``range(K)`` orthonormally.  The verdict
    is positive when that eigenvalue clears the positivity slack.  Finite
    families are always Bessel.
    """
    Kop = as_operator(K, dim=frame.dim)
    upper = float(frame._spectrum[-1])
    rank, lower, witness, verdict = _lower_verdict(frame_operator(frame), Kop, upper, tol)
    return KFrameReport(
        is_bessel=True, is_kframe=verdict, lower_opt=lower, upper_opt=upper,
        rank_k=rank, vacuous=rank == 0, witness=witness,
    )


def kframe_operator_inequality(frame: FrameSequence, K, A: float, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Operator-inequality verdict: ``A * K K* <= S`` in the Loewner order.

    This is the global form of the lower K-frame inequality, quantified over
    the whole space.  On instances where the frame operator leaves ``range(K)``
    invariant it flips exactly at ``lower_opt`` from :func:`kframe_check`.
    """
    if not (np.isfinite(A) and A > 0.0):
        raise InvalidParametersError(f"the candidate lower bound must be positive, got {A!r}")
    Kop = as_operator(K, dim=frame.dim)
    S = frame_operator(frame)
    return operator_leq(A * hermitian_part(Kop @ Kop.conj().T), S, tol)


def rayleigh_quotients(frame: FrameSequence, K, vectors) -> np.ndarray:
    """``<S f, f> / ||K* f||^2`` column-wise for probe vectors with ``K* f != 0``.

    Columns annihilated by ``K*`` yield ``inf`` rather than an error so bulk
    sampling stays simple.
    """
    Kop = as_operator(K, dim=frame.dim)
    V = np.asarray(vectors, dtype=np.complex128)
    if V.ndim == 1:
        V = V[:, None]
    S = frame_operator(frame)
    numerators = np.einsum("ij,ij->j", V.conj(), S @ V).real
    denominators = np.linalg.norm(Kop.conj().T @ V, axis=0) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(denominators > 0.0, numerators / np.where(denominators > 0, denominators, 1.0), np.inf)
    return out


@dataclass(frozen=True)
class AtomicReport:
    """Certificate that every ``K x`` is synthesizable with norm-controlled coefficients.

    With minimal-norm coefficients ``a_x = T^+ K x`` the smallest constant in
    ``||a_x|| <= C ||x||`` equals the operator norm of the coefficient map, so
    ``constant`` and ``coefficient_map_norm`` carry the same value; both are
    kept so reports remain explicit about what was measured.
    """

    constant: float
    coefficient_map_norm: float


def atomic_system_constant(frame: FrameSequence, K, tol: Tolerances = DEFAULT_TOL) -> AtomicReport:
    """Smallest constant for the coefficient map ``x -> T^+ K x``.

    Requires ``range(K)`` to lie in the span of the family; otherwise some
    ``K x`` is not synthesizable at all and a witness direction is attached to
    the error.  On success the factorization ``T (T^+ K) = K`` holds within
    ``rel_eq``, which is the matrix form of ``K x = synthesis(frame, a_x)``
    for every ``x``.
    """
    Kop = as_operator(K, dim=frame.dim)
    T = frame.matrix
    T_pinv = pseudo_inverse(T, tol)
    residual = Kop - T @ (T_pinv @ Kop)
    scale = max(1.0, operator_norm(Kop))
    if operator_norm(residual) > tol.rel_eq * scale:
        _, _, Vh = np.linalg.svd(residual)
        raise RangeDeficiencyError(
            "range(K) is not contained in the span of the family; "
            "K x cannot be synthesized for the attached witness x",
            witness=Vh[0].conj(),
        )
    norm = operator_norm(T_pinv @ Kop)
    return AtomicReport(constant=norm, coefficient_map_norm=norm)


def bessel_dual_check(frame_f: FrameSequence, frame_g: FrameSequence, K, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Whether ``K f = sum_n <f, g_n> f_n`` for all ``f``, i.e. ``K == F G*``.

    The position of the two families matters: swapping them checks a different
    identity, and the swap genuinely fails for rank-deficient ``K`` (see the
    built-in C^3 example).
    """
    Kop = as_operator(K, dim=frame_f.dim)
    if frame_f.count != frame_g.count:
        raise DimensionMismatchError(
            f"paired families must have equal length, got {frame_f.count} and {frame_g.count}"
        )
    if frame_g.dim != frame_f.dim:
        raise DimensionMismatchError(
            f"paired families must share the ambient dimension, got {frame_f.dim} and {frame_g.dim}"
        )
    defect = np.linalg.norm(Kop - frame_f.matrix @ frame_g.matrix.conj().T)
    return bool(defect <= tol.rel_eq * max(1.0, np.linalg.norm(Kop)))


def interchange_dual(
    frame_g: FrameSequence,
    K,
    tol: Tolerances = DEFAULT_TOL,
    frame_f: FrameSequence | None = None,
) -> FrameSequence:
    """Dual system on ``range(K)``: ``h_n = (K^+)* g_n``.

    ``frame_f`` defaults to ``{K g_n}``.  Requires the factorization
    ``K == F G*`` (see :func:`bessel_dual_check`); then for every ``f`` in
    ``range(K)`` both reconstructions hold:

        f = sum_n <f, h_n> f_n      and      f = sum_n <f, f_n> h_n.

    The global Moore-Penrose inverse stands in for the inverse of ``K``
    restricted to ``range(K)``: ``(K^+)*`` maps into ``range(K)`` already, so
    the action on the quantified vectors is identical.
    """
    Kop = as_operator(K, dim=frame_g.dim)
    if frame_f is None:
        frame_f = FrameSequence(Kop @ frame_g.matrix)
    if not bessel_dual_check(frame_f, frame_g, Kop, tol):
        defect = Kop - frame_f.matrix @ frame_g.matrix.conj().T
        _, _, Vh = np.linalg.svd(defect)
        raise PreconditionFailedError(
            "the pair does not factor K (K != F G*); the dual system would not reconstruct",
            witness=Vh[0].conj(),
        )
    return FrameSequence(pseudo_inverse(Kop, tol).conj().T @ frame_g.matrix)


def construct_kframe(
    source: FrameSequence,
    K,
    T=None,
    tol: Tolerances = DEFAULT_TOL,
    require_orthonormal: bool = False,
) -> tuple[FrameSequence, np.ndarray]:
    """Push a family through an operator and name the operator it now frames.

    With ``T`` omitted the result is ``{K f_n}``, a K-frame whenever the
    source is an ordinary frame (orthonormal bases included — set
    ``require_orthonormal`` to have that hypothesis checked).  With ``T``
    given the source is taken to be a K-frame and the result is ``{T f_n}``,
    a ``T K``-frame.  Returns the transformed family together with the
    operator against which it is certified (``K`` or ``T @ K``), so callers
    can feed the pair straight into :func:`kframe_check`.
    """
    Kop = as_operator(K, dim=source.dim)
    if require_orthonormal:
        if source.count != source.dim:
            raise NotOrthonormalError(
                f"an orthonormal basis of C^{source.dim} needs exactly {source.dim} vectors, "
                f"got {source.count}"
            )
        gram = source.matrix.conj().T @ source.matrix
        if np.linalg.norm(gram - np.eye(source.count)) > tol.rel_eq * max(1.0, source.count):
            raise NotOrthonormalError("source vectors are not orthonormal within tolerance")
    if T is None:
        return FrameSequence(Kop @ source.matrix), Kop
    Top = as_operator(T, dim=source.dim)
    return FrameSequence(Top @ source.matrix), Top @ Kop


def restricted_operator_inequalities(
    frame: FrameSequence,
    K,
    tol: Tolerances = DEFAULT_TOL,
    samples: int = 500,
    seed: int = 0,
) -> bool:
    """Norm inequalities on ``range(K)`` and its image under ``S``.

    For a K-frame with certified bounds ``(A, B)`` and ``k = ||K^+||``, every
    ``f`` in ``range(K)`` satisfies

        (A / k^2) ||f||  <=  ||S f||  <=  B ||f||,
        ||K* f||^2  >=  ||f||^2 / k^2,

    and every ``g = S f`` in ``S(range(K))`` satisfies

        ||g|| / B  <=  ||S^{-1} g||  <=  (k^2 / A) ||g||,

    where ``S^{-1}`` means the inverse of ``S`` restricted to ``range(K)``,
    realized as ``Q (S Q)^+`` for an orthonormal range basis ``Q``.  Checked
    on ``samples`` random directions with slack ``rel_eq * scale``; returns
    True when every sampled inequality holds.

    Raises :class:`PreconditionFailedError` when the pair is not a K-frame
    (the inequalities are statements about K-frames only).
    """
    report = kframe_check(frame, K, tol)
    if not report.is_kframe or report.vacuous:
        raise PreconditionFailedError(
            "restricted inequalities presuppose a K-frame with nonzero rank",
            witness=report.witness,
        )
    Kop = as_operator(K, dim=frame.dim)
    S = frame_operator(frame)
    A, B = report.lower_opt, report.upper_opt
    k_norm = operator_norm(pseudo_inverse(Kop, tol))
    Q = range_basis(Kop, tol)
    inv_on_image = Q @ pseudo_inverse(S @ Q, tol)

    rng = np.random.default_rng(seed)
    coeffs = rng.normal(size=(Q.shape[1], samples)) + 1j * rng.normal(size=(Q.shape[1], samples))
    F = Q @ coeffs                     # columns lie in range(K)
    norms_f = np.linalg.norm(F, axis=0)
    SF = S @ F
    norms_sf = np.linalg.norm(SF, axis=0)
    norms_inv = np.linalg.norm(inv_on_image @ SF, axis=0)
    norms_kf_sq = np.linalg.norm(Kop.conj().T @ F, axis=0) ** 2

    def leq(lhs, rhs):
        slack = tol.rel_eq * np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
        return bool(np.all(lhs <= rhs + slack))

    ok = leq((A / k_norm**2) * norms_f, norms_sf)
    ok = ok and leq(norms_sf, B * norms_f)
    ok = ok and leq(norms_sf / B, norms_inv)
    ok = ok and leq(norms_inv, (k_norm**2 / A) * norms_sf)
    ok = ok and leq(norms_f**2 / k_norm**2, norms_kf_sq)
    return ok
