"""Frame sequences relative to the range of a bounded operator ``K``.

A Bessel family ``{f_n}`` is a K-frame when some ``A > 0`` satisfies

    A ||K* f||^2  <=  sum_n |<f, f_n>|^2        for every ``f``,

together with the usual Bessel upper bound.  Equivalently the frame operator
dominates ``A K K*`` in the Loewner order.  By Douglas' lemma such an ``A``
exists iff ``range(K)`` lies in ``range(S)``, and the optimal one is
``1 / ||S^{+1/2} K||^2``; the verdict reads both off the cached
eigendecomposition of ``S``.  That range test is the verdict rule, so
rescaling the family or ``K`` never changes the verdict.  The optimum is
global: it agrees with :func:`kframe_operator_inequality` for every input,
whether or not ``S`` leaves ``range(K)`` invariant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidParametersError,
    NotOrthonormalError,
    PreconditionFailedError,
    RangeDeficiencyError,
)
from .frames import FrameSequence
from .operators import (
    DEFAULT_TOL,
    Tolerances,
    _positivity_slack,
    _is_normal,
    _pow2_scaled,
    _pow2_scaled_columns,
    _rank,
    _read_only,
    _scaled_back,
    _scaled_leq,
    _times_pow2,
    as_operator,
    hermitian_part,
    pseudo_inverse,
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

    ``lower_opt`` is the optimal lower constant, the smallest quotient
    ``<S f, f> / ||K* f||^2`` over every ``f`` with ``K* f != 0``, and
    ``upper_opt`` the optimal Bessel bound ``lambda_max(S)``.  ``is_kframe``
    is Douglas' range test: true exactly when the optimal lower constant is
    positive (or ``vacuous``), whatever its size: a positive ``lower_opt``
    that underflows to ``0.0`` keeps it true.  ``vacuous`` flags the
    rank-zero ``K``, where the lower inequality quantifies over nothing and
    the verdict is true by convention; ``lower_opt`` is reported as ``0.0``
    there and must not be fed into arithmetic.  ``witness`` is a unit vector
    attaining the minimal quotient, not necessarily in ``range(K)``; when
    ``is_kframe`` is false it is a null vector of ``S`` that ``K*`` does not
    annihilate (``None`` when vacuous).  No field says the family is Bessel:
    every finite family is.
    """

    is_kframe: bool
    lower_opt: float
    upper_opt: float
    vacuous: bool
    witness: np.ndarray | None


def _top_eigenpair(G, tol: Tolerances):
    """The largest eigenvalue of a Hermitian positive semi-definite ``G`` and
    a unit eigenvector for it.

    The value comes from ``eigvalsh`` and the vector from one step of inverse
    iteration, ``x = (G - top I)^{-1} 1`` normalised.  The vector is accepted
    only when it is finite and its residual ``||G x - top x||`` is at most
    ``rel_eq * top``; otherwise (an exactly singular shift included) the pair
    is the top one of a full ``eigh`` of ``G``.
    """
    top = np.linalg.eigvalsh(G)[-1]
    try:
        x = np.linalg.solve(G - top * np.eye(len(G)), np.ones(len(G)))
    except np.linalg.LinAlgError:
        x = None
    if x is not None:
        size = np.linalg.norm(x)
        if np.isfinite(size) and size > 0.0:
            x = x / size
            if np.linalg.norm(G @ x - top * x) <= tol.rel_eq * top:
                return top, x
    vals, vecs = np.linalg.eigh(G)
    return vals[-1], vecs[:, -1]


def _douglas_lower(w, U, W, tol: Tolerances, s: int = 0):
    """``sup {A : A W W* <= 2^s P}`` and a minimizer, from the eigenpairs
    ``(w, U)`` of a positive semi-definite ``P``.

    Douglas' lemma: the supremum is positive iff ``range(W)`` lies in
    ``range(P)``, and then equals ``1 / ||P^{+1/2} W||^2``.  Eigenvalues at or
    below the positivity slack span ``null(P)``.  Returns ``(lower, witness)``
    where ``witness`` is a unit vector whose quotient ``<P f, f> / ||W* f||^2``
    is the supremum: a null eigenvector that ``W*`` does not annihilate when
    ``W`` has more than ``rel_eq`` of its weight on ``null(P)``, else the
    top left singular vector of ``M = P^{+1/2} W`` pulled back through
    ``P^{+1/2}``.  The top singular pair is the top eigenpair of the Gram
    matrix ``M M*``: its value from ``eigvalsh`` and its vector from one
    inverse-iteration step, checked by its residual, with a full ``eigh``
    of the Gram matrix as the fallback (see :func:`_top_eigenpair`).

    ``P`` is a frame's ``S~``.  ``W``, ``M`` and the witness each carry
    their own exponent, as a kept eigenvalue of ``P`` may be subnormal.
    ``lower`` is ``None`` only when the supremum is zero, not when it
    underflows.  The witness is a new array that shares no memory with ``U``.
    """
    W, k = _pow2_scaled(W)
    null = w <= _positivity_slack(w, tol)
    Wc = U.conj().T @ W
    null_weight = np.linalg.norm(Wc[null], axis=1)
    if np.linalg.norm(null_weight) > tol.rel_eq * np.linalg.norm(Wc):
        return None, U[:, np.flatnonzero(null)[np.argmax(null_weight)]].copy()
    root = np.sqrt(w[~null])
    M, f = _pow2_scaled(Wc[~null] / root[:, None])
    top, x = _top_eigenpair(M @ M.conj().T, tol)
    witness, _ = _pow2_scaled(U[:, ~null] @ (x / root))
    return _scaled_back(1.0 / top, s - 2 * (k + f)), witness / np.linalg.norm(witness)


def kframe_check(frame: FrameSequence, K, tol: Tolerances = DEFAULT_TOL) -> KFrameReport:
    """Decide the K-frame property and certify optimal constants.

    The upper constant is ``lambda_max(S)`` and the lower constant the
    Douglas optimum ``1 / ||S^{+1/2} K||^2`` (zero when ``range(K)`` escapes
    ``range(S)``), both from the eigendecomposition of ``S~`` and scaled
    back by ``2^s``; the Douglas optimum takes one ``eigvalsh`` and one
    linear solve on a Gram matrix (see :func:`_douglas_lower`).  The verdict
    is the range test alone: positive exactly when the lower constant is,
    with ``range(S)`` spanned by the eigenvalues above ``psd_slack *
    lambda_max(S)`` and ``K`` allowed ``rel_eq`` of its weight off it.  A
    zero ``K`` is vacuous, and is the only ``K`` of numerical rank zero,
    since the rank counts singular values above a fraction below one of the
    largest.  Finite families are always Bessel.

    The check runs no SVD of ``K``; :func:`framekit.operators.numerical_rank`
    gives its rank.  The report for the last ``(K, tol)`` is memoised on
    ``frame``, keyed by the exact bytes of ``K``, so a controlled check of
    the same pair reuses it instead of repeating the Douglas computation.
    The report's ``witness`` is read-only; copy it before writing.
    """
    Kop = as_operator(K, dim=frame.dim)
    key = (Kop.tobytes(), tol)
    memo = frame.__dict__.get("_kframe_memo")
    if memo and memo[0] == key:
        return memo[1]
    (w, U), s = frame._eigh, frame._scaled[1]
    vacuous = not Kop.any()
    lower, witness = (0.0, None) if vacuous else _douglas_lower(w, U, Kop, tol, s)
    report = KFrameReport(is_kframe=lower is not None, lower_opt=lower or 0.0,
                          upper_opt=_scaled_back(float(w[-1]), s), vacuous=vacuous, witness=_read_only(witness))
    frame.__dict__["_kframe_memo"] = (key, report)
    return report


def kframe_operator_inequality(frame: FrameSequence, K, A: float, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Operator-inequality verdict: ``A * K K* <= S`` in the Loewner order.

    This is the lower K-frame inequality in operator form, quantified over
    the whole space.  It flips exactly at ``lower_opt`` from
    :func:`kframe_check`.  Decided on ``S~`` and ``K~`` with ``A`` moved
    by ``2^(2k - s)`` (see :func:`framekit.operators._scaled_leq`).
    """
    Kop, k = _pow2_scaled(as_operator(K, dim=frame.dim))
    S, s = frame._scaled
    return _scaled_leq(A, 2 * k - s, hermitian_part(Kop @ Kop.conj().T), S, tol)


def rayleigh_quotients(frame: FrameSequence, K, vectors) -> np.ndarray:
    """``<S f, f> / ||K* f||^2`` column-wise for probe vectors with ``K* f != 0``.

    Columns annihilated by ``K*`` yield ``inf`` rather than an error so bulk
    sampling stays simple.  Taken on ``S~``, ``K~`` and each column at its
    own exponent, as a quotient does not depend on the scale of its
    column, and scaled back by ``2^(s - 2k)``.
    """
    Kop, k = _pow2_scaled(as_operator(K, dim=frame.dim))
    V = _pow2_scaled_columns(np.asarray(vectors, dtype=np.complex128).reshape(len(vectors), -1))  # a vector is one column
    S, s = frame._scaled
    numerators = np.einsum("ij,ij->j", V.conj(), S @ V).real
    denominators = np.linalg.norm(Kop.conj().T @ V, axis=0) ** 2
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return np.ldexp(np.where(denominators > 0.0, numerators / denominators, np.inf), s - 2 * k)


@dataclass(frozen=True)
class AtomicReport:
    """Certificate that every ``K x`` is synthesizable with norm-controlled coefficients.

    With minimal-norm coefficients ``a_x = T^+ K x`` the smallest constant in
    ``||a_x|| <= C ||x||`` is ``constant``, the operator norm of the
    coefficient map ``T^+ K``.
    """

    constant: float


def atomic_system_constant(frame: FrameSequence, K, tol: Tolerances = DEFAULT_TOL) -> AtomicReport:
    """Smallest constant for the coefficient map ``x -> T^+ K x``.

    Requires ``range(K)`` to lie in the span of the family; otherwise some
    ``K x`` is not synthesizable at all and a witness direction is attached to
    the error.  On success the factorization ``T (T^+ K) = K`` holds within
    ``rel_eq``, which is the matrix form of ``K x = synthesis(frame, a_x)``
    for every ``x``: the residual ``K - T T^+ K`` is measured in the
    Frobenius norm against ``||K||_F``, as :func:`bessel_dual_check` does.
    One SVD ``T = U_r Sigma_r V_r*`` gives both the projector ``T T^+ =
    U_r U_r*`` and the constant ``||T^+ K|| = ||Sigma_r^{-1} U_r* K||``.
    Decided on ``T~`` and ``K~``; the constant is scaled back by ``2^(k - e)``.
    """
    Kop, k = _pow2_scaled(as_operator(K, dim=frame.dim))
    T, e = frame._scaled_matrix
    U, s, _ = np.linalg.svd(T, full_matrices=False)
    r = _rank(s, T.shape, tol)
    coeffs = U[:, :r].conj().T @ Kop
    residual = Kop - U[:, :r] @ coeffs
    if np.linalg.norm(residual) > tol.rel_eq * np.linalg.norm(Kop):
        raise RangeDeficiencyError(
            "range(K) is not contained in the span of the family; "
            "K x cannot be synthesized for the attached witness x",
            witness=np.linalg.svd(residual)[2][0].conj(),
        )
    return AtomicReport(constant=_scaled_back(float(np.linalg.norm(coeffs / s[:r, None], 2)), k - e))


def bessel_dual_check(frame_f: FrameSequence, frame_g: FrameSequence, K, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Whether ``K f = sum_n <f, g_n> f_n`` for all ``f``, i.e. ``K == F G*``.

    The position of the two families matters: swapping them checks a different
    identity, and the swap genuinely fails for rank-deficient ``K`` (see the
    built-in C^3 example).
    """
    return _factor_check(frame_f, frame_g, as_operator(K, dim=frame_f.dim), tol)[0]


def _factor_check(frame_f: FrameSequence, frame_g: FrameSequence, Kop, tol: Tolerances):
    """``(K == F G*, defect)``: the verdict of :func:`bessel_dual_check` and
    the defect ``K - F G*`` it was decided on, times one exact power of two.

    ``F~ = 2^-a F`` and ``G~ = 2^-b G`` meet ``K`` moved by ``2^-(a + b)``;
    the defect and that ``K`` then share one more exponent.  The defect is
    ``None`` when the moved ``K`` is ``inf`` while ``F~ G~*`` stays below
    ``count 2^256``: the relative defect is about 1, and the verdict false.
    """
    if frame_f.count != frame_g.count:
        raise DimensionMismatchError(
            f"paired families must have equal length, got {frame_f.count} and {frame_g.count}"
        )
    if frame_g.dim != frame_f.dim:
        raise DimensionMismatchError(
            f"paired families must share the ambient dimension, got {frame_f.dim} and {frame_g.dim}"
        )
    (F, a), (G, b) = frame_f._scaled_matrix, frame_g._scaled_matrix
    Ks = _times_pow2(Kop, -(a + b))
    if not np.isfinite(Ks).all():
        return False, None
    (defect, Ks), _ = _pow2_scaled(np.stack([Ks - F @ G.conj().T, Ks]))
    return bool(np.linalg.norm(defect) <= tol.rel_eq * np.linalg.norm(Ks)), defect


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
        frame_f, _ = construct_kframe(frame_g, Kop)
    factors, defect = _factor_check(frame_f, frame_g, Kop, tol)
    if not factors:
        witness = None if defect is None else np.linalg.svd(defect)[2][0].conj()
        raise PreconditionFailedError(
            "the pair does not factor K (K != F G*); the dual system would not reconstruct",
            witness=witness,
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
    can feed the pair straight into :func:`kframe_check`.  Both products
    are formed from scaled factors and scaled back; a family beyond the
    float range is refused with :class:`InvalidParametersError`.
    """
    Kop = as_operator(K, dim=source.dim)
    if require_orthonormal:
        if source.count != source.dim:
            raise NotOrthonormalError(
                f"an orthonormal basis of C^{source.dim} needs exactly {source.dim} vectors, "
                f"got {source.count}"
            )
        gram = source.matrix.conj().T @ source.matrix
        if np.linalg.norm(gram - np.eye(source.count)) > tol.rel_eq * source.count:
            raise NotOrthonormalError("source vectors are not orthonormal within tolerance")
    Top = Kop if T is None else as_operator(T, dim=source.dim)
    (W, w), (G, e), (Ks, k) = _pow2_scaled(Top), source._scaled_matrix, _pow2_scaled(Kop)
    return FrameSequence(_times_pow2(W @ G, w + e)), Kop if T is None else _times_pow2(W @ Ks, w + k)


def restricted_operator_inequalities(
    frame: FrameSequence,
    K,
    tol: Tolerances = DEFAULT_TOL,
) -> bool:
    """Norm inequalities on ``range(K)`` and its image under ``S``.

    For a K-frame with certified bounds ``(A, B)`` and ``k = ||K^+||``, every
    ``f`` in ``range(K)`` satisfies

        (A / k^2) ||f||  <=  ||S f||  <=  B ||f||,
        ||K* f||^2  >=  ||f||^2 / k^2,

    and every ``g = S f`` in ``S(range(K))`` satisfies

        ||g|| / B  <=  ||S^{-1} g||  <=  (k^2 / A) ||g||,

    where ``S^{-1}`` means the inverse of ``S`` restricted to ``range(K)``.
    Each inequality is an extreme-singular-value statement on an orthonormal
    basis ``Q`` of ``range(K)``, so all of them are decided exactly from

        sigma_min(S Q) >= A / k^2,   sigma_max(S Q) <= B,
        sigma_min(K* Q)^2 >= 1 / k^2;

    the two ``S^{-1}`` inequalities are the first pair restated for
    ``g = S f``.  ``Q`` and ``k = 1 / sigma_r(K)`` come from one SVD of
    ``K``.  Each comparison allows ``rel_eq`` times the larger side.
    Decided on ``S~`` and ``K~ = 2^-j K``: ``B`` is ``lambda_max(S~)`` and
    ``A`` is ``lower_opt`` moved by ``2^(2j - s)``.

    Raises :class:`PreconditionFailedError` when the pair is not a K-frame
    (the inequalities are statements about K-frames only), and
    :class:`InvalidParametersError` when ``lower_opt`` is not normal.
    """
    report = kframe_check(frame, K, tol)
    if not report.is_kframe or report.vacuous:
        raise PreconditionFailedError(
            "restricted inequalities presuppose a K-frame with nonzero rank",
            witness=report.witness,
        )
    if not _is_normal(report.lower_opt):
        raise InvalidParametersError(f"the K-frame bound lower_opt = {report.lower_opt!r} lies outside the float range")
    Kop, j = _pow2_scaled(as_operator(K, dim=frame.dim))
    (S, s), w = frame._scaled, frame._eigh[0]
    A, B = _scaled_back(report.lower_opt, 2 * j - s), float(w[-1])
    U, s_k, _ = np.linalg.svd(Kop, full_matrices=False)
    r = _rank(s_k, Kop.shape, tol)
    Q, k_sq = U[:, :r], (1.0 / s_k[r - 1]) ** 2
    s_s = np.linalg.svd(S @ Q, compute_uv=False)
    s_k = np.linalg.svd(Kop.conj().T @ Q, compute_uv=False)
    pairs = ((A / k_sq, s_s[-1]), (s_s[0], B), (1.0 / k_sq, s_k[-1] ** 2))
    return all(lhs <= rhs + tol.rel_eq * max(lhs, rhs) for lhs, rhs in pairs)
