"""Iterative inversion of frame operators, plain and controlled.

The workhorse is relaxed Richardson iteration

    f_{k+1} = f_k + lam * (g - Op f_k),

whose error contracts at rate ``(B - A) / (B + A)`` for a Hermitian positive
definite ``Op`` with spectral bounds ``(A, B)`` and the optimal relaxation
``lam = 2 / (A + B)``.  The controlled variant runs the same iteration on the
preconditioned system ``C S f = C g``, whose contraction is governed by the
condition of ``C S`` instead of ``S`` — that is the quantitative sense in
which a controller is a preconditioner.  Residuals are always measured
against the original system ``S f = g`` so iteration counts stay honest about
the problem the caller actually posed.

Both Richardson solvers are the one-column case of one private kernel,
``_richardson_stack``, which iterates a stack of ``T`` systems by the
residual recurrence

    r_{k+1} = M r_k,    M = I - lam S C    (C = I for the plain iteration),

so each iteration is one matrix-vector product, written into preallocated
blocks; ``M`` is formed once per stack.  A solve passes the scaled operands
with the relaxation moved by their exponent, which form the same ``M``.
Two or more active columns run as ``(A, d, 1)`` operands through stacked
``matmul``; a lone column (every public solve, and the tail of a bench
stack) runs as 2-D/1-D operands through ``np.dot``, which skips the
gufunc's per-call overhead.  The layout is chosen whenever the stack is
(re)built.

The iterations run in blocks of 1, 2, 4, ... up to 64 updates, so block ends
fall after updates 1, 3, 7, 15, 31, 63, 127, 191, ... whatever the stack
holds, and a solve that ends after 1 or 15 iterations (an exact-inverse or a
Jacobi controller) computes no iteration past its end.  Iterates are formed
only at block ends and at stops, as ``f = f_start + lam C (r_0 + ... +
r_{k-1})``.  At each block end the true residual ``g - S f`` replaces the
recurrence's and the next block starts from it ("residual replacement",
H. A. van der Vorst and Q. Ye, SIAM J. Sci. Comput. 22 (2000)), so the
recurrence never runs more than 64 updates away from a true residual.

The residual norms of a whole block are taken at once after it.  A column
stops at its first non-finite residual (diverged: a relaxation that does not
contract has overflowed), not converged.  A recurrence residual at or below
the tolerance is a candidate stop, confirmed only if the true residual of
its iterate is at or below the tolerance too; that true value ends the
history, so ``converged`` means the returned iterate meets the tolerance on
``S f = g``.  A refused candidate hands the rest of its block to true
residuals: the column stops at the first of them that meets the tolerance,
or runs on from the block end.  A capped column ends on the true residual
of its returned iterate.  Residuals and iterates before the last one differ
from those of a loop that recomputes ``g - S f`` at every step at rounding
level; on every grid tested the counts and verdicts did not.

A column's arithmetic does not depend on the stack around it: both operand
layouts reach the same BLAS kernels, the block sums add in the order of the
updates, and the norms are ``sqrt(re.re + im.im)``.  The kernel tests
compare it bit for bit with a per-column loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .controlled import Controller, _require_real_product
from .errors import InvalidParametersError, NotHermitianError
from .frames import FrameSequence
from .operators import (
    DEFAULT_TOL,
    OperatorBounds,
    Tolerances,
    _is_normal,
    _pow2_scaled,
    _scaled_back,
    _spectrum_bounds,
    _times_pow2,
    as_operator,
    as_vector,
    is_hermitian,
)

__all__ = [
    "SolverConfig",
    "ConvergenceTrace",
    "richardson_solve",
    "controlled_richardson_solve",
]


@dataclass(frozen=True)
class SolverConfig:
    """Iteration parameters.

    ``relaxation=None`` selects the optimal ``2 / (A + B)`` from the certified
    bounds.  ``residual_tol`` lies in ``[2^-52, 1)``: a float64 relative
    residual cannot be certified below the machine epsilon ``2^-52``.
    ``seed`` does not affect the iterations themselves (they start from zero
    deterministically); it is the base seed harnesses use to draw instances
    and right-hand sides.
    """

    relaxation: float | None = None
    residual_tol: float = 1e-8
    max_iter: int = 100_000
    seed: int = 0

    def __post_init__(self):
        if self.relaxation is not None and not (np.isfinite(self.relaxation) and self.relaxation > 0):
            raise InvalidParametersError(f"relaxation must be positive, got {self.relaxation!r}")
        if not (2.0**-52 <= self.residual_tol < 1.0):  # the float64 machine epsilon
            raise InvalidParametersError(f"residual_tol must lie in [2^-52, 1), got {self.residual_tol!r}")
        if self.max_iter < 1:
            raise InvalidParametersError(f"max_iter must be at least 1, got {self.max_iter!r}")


@dataclass(frozen=True)
class ConvergenceTrace:
    """Residual history of one solve.

    ``residuals[k]`` is the relative residual of the iterate after update
    ``k + 1``, measured against the original system.  The iteration stops at
    its first non-finite residual, so a solve diverged exactly when its last
    residual is not finite.  ``empirical_rate`` is the geometric-mean
    contraction over the final (up to) ten iterations.  ``kappa_report``
    discloses the worst-case factor by which a controlled solve's stopping
    criterion could be off for the original system; it is ``1.0`` for plain
    solves and ``cond(C)`` for controlled ones (the solver stops on the
    original residual, so the achieved residual never uses the allowance —
    the factor is reported, not spent).
    """

    iterations: int
    residuals: list[float] = field(repr=False)
    converged: bool
    empirical_rate: float
    kappa_report: float = 1.0


def _empirical_rate(residuals: list[float]) -> float:
    n = len(residuals)
    if n == 0:
        return 0.0
    # The last (up to) ten updates; the start's relative residual 1.0 heads a short history.
    window = min(10, n)
    head, tail = residuals[-11] if n > 10 else 1.0, residuals[-1]
    if tail == 0.0:
        return 0.0
    if head == 0.0:
        return 1.0
    return float((tail / head) ** (1.0 / window))


def _coerce_bounds(bounds) -> OperatorBounds:
    if isinstance(bounds, OperatorBounds):
        return bounds
    try:
        lower, upper = (float(b) for b in bounds)
    except (TypeError, ValueError) as exc:
        raise InvalidParametersError(f"bounds must be an OperatorBounds or a (lower, upper) pair: {exc}")
    return OperatorBounds(lower, upper)  # raises unless 0 < lower <= upper, both finite


_BLOCK_MAX = 64


def _norms(X) -> np.ndarray:
    """Euclidean norms over the last axis, ``sqrt(re.re + im.im)``.

    This is the formula ``np.linalg.norm`` applies to one complex vector, and
    a row-times-column ``matmul`` reaches the same BLAS dot, so each norm is
    bitwise the one ``np.linalg.norm`` gives for that vector alone.
    (``np.vecdot`` would too, but it needs numpy 2.)
    """
    re, im = X.real[..., None], X.imag[..., None]
    return np.sqrt(np.swapaxes(re, -1, -2) @ re + np.swapaxes(im, -1, -2) @ im)[..., 0, 0]


def _column_iterates(sums, f0, lam, C, S, rhs, norm_g):
    """Iterates ``f0 + lam C s`` of one column, one per row ``s`` of
    ``sums``, and their true relative residuals ``|rhs - S f| / norm_g``.

    ``sums`` holds real pairs, ``(m, 2d)``; ``C`` (``None`` for the plain
    iteration) and ``S`` are ``(d, d)``.  Each product is a matrix-vector
    product, as at a block end, so an iterate formed here is bitwise the one
    a block end forms.
    """
    sums = sums.view(f0.dtype)
    F = f0 + lam * (sums if C is None else np.matmul(C, sums[..., None])[..., 0])
    return F, _norms(rhs - np.matmul(S, F[..., None])[..., 0]) / norm_g


def _stops_in_block(res, tol, Rf, f_end, stack):
    """Where the columns of a block stop, each stop confirmed on a true residual.

    ``res`` is the block's ``(n, A)`` relative residuals, its last row true;
    ``Rf`` holds the block's residuals as real pairs, ``(n + 1, A, 2d)``; and
    ``stack`` is ``(f_start, lam, C, S, rhs, norm_g)`` of its ``A`` columns.
    A column stops at its first residual at or below ``tol`` or non-finite.
    A recurrence residual at or below ``tol`` inside the block is only a
    candidate: the true residual of its iterate confirms it, or refuses it,
    and then the rest of the block takes true residuals too.  True residuals
    overwrite ``res``, and the iterate of a stop inside the block overwrites
    its column of ``f_end``.  Returns the ``(n, A)`` mask of stopping rows.
    """
    stop = (res <= tol) | ~np.isfinite(res)
    n = len(res)
    for j in np.flatnonzero(stop[:-1].any(axis=0)):
        k = stop[:, j].argmax()
        column = [None if x is None else x[j] for x in stack]
        F, true = _column_iterates(np.cumsum(Rf[: k + 1, j], axis=0)[k:], *column)
        if res[k, j] <= tol and not true[0] <= tol:
            F, true = _column_iterates(np.cumsum(Rf[: n - 1, j], axis=0)[k:], *column)
            res[k : n - 1, j] = true
            stop[k:, j] = (res[k:, j] <= tol) | ~np.isfinite(res[k:, j])
        elif res[k, j] <= tol:
            res[k, j] = true[0]
        i = stop[:, j].argmax()
        if stop[i, j] and i < n - 1:
            f_end[j] = F[i - k]
    return stop


def _richardson_stack(S, rhs, lam, config: SolverConfig, C=None):
    """The one Richardson loop, run on a stack of ``T`` systems at once.

    ``S`` is ``(T, d, d)``, ``rhs`` is ``(T, d)``, ``lam`` is ``(T,)`` and
    ``C``, when given, is ``(T, d, d)``.  Each column iterates its residual
    ``r_{k+1} = M r_k`` with ``M = I - lam S C`` (``C = None`` is the plain
    iteration, ``M = I - lam S``) and forms its iterate
    ``f = f_start + lam C (r_0 + ... + r_{k-1})`` only at block ends and
    stops.  At each block end the true residual ``rhs - S f`` replaces the
    recurrence's, and the next block starts from it.  A column stops as
    :func:`_stops_in_block` says, or after ``max_iter`` updates.  Overflow
    of a diverging column raises no numpy warning: its trace reports it.

    Returns ``(f, histories, converged)``: the ``(T, d)`` final iterates, one
    ``float64`` array of relative residuals per column, and a ``(T,)`` mask.
    A zero right-hand side gives the zero iterate, an empty history and
    ``converged``.
    """
    T, d = rhs.shape
    tol = config.residual_tol
    norm_g = _norms(rhs)
    f_now, r_now = np.zeros_like(rhs), rhs.copy()
    converged = norm_g == 0.0
    pieces: list[list[np.ndarray]] = [[] for _ in range(T)]
    active = np.flatnonzero(~converged)
    R = None
    done, size = 0, 1
    with np.errstate(over="ignore", invalid="ignore"):
        M = np.eye(d) - lam[:, None, None] * (S if C is None else S @ C)
        while active.size and done < config.max_iter:
            if R is None:
                # (Re)build the stack of the active columns; the residuals of
                # a block live in R.  A lone column takes 2-D/1-D operands
                # through np.dot, several take stacked matmul.
                A = active.size
                mm, mat, vec = (np.dot, (d, d), (d,)) if A == 1 else (np.matmul, (A, d, d), (A, d, 1))
                S3, C3 = S[active], None if C is None else C[active]
                M_a, S_a = M[active].reshape(mat), S3.reshape(mat)
                C_a = None if C is None else C3.reshape(mat)
                rhs_a, g_a, lam_a = rhs[active], norm_g[active], lam[active, None]
                R = np.empty((_BLOCK_MAX + 1, *vec), dtype=rhs.dtype)
                # The block as (k, column, d) whatever the operand layout, and
                # as real pairs, so that a sum over k adds in the order of k.
                R3 = R.reshape(-1, A, d)
                Rf = R3.view(np.float64)
                R3[0], f_a = r_now[active], f_now[active]
                Rk = list(R)
            n = min(size, config.max_iter - done)
            done += n
            size = min(2 * size, _BLOCK_MAX)
            for r0, r1 in zip(Rk[:n], Rk[1 : n + 1]):
                mm(M_a, r0, r1)
            total = Rf[:n].sum(axis=0).view(rhs.dtype)
            f_end = f_a + lam_a * (total if C_a is None else mm(C_a, total.reshape(vec)).reshape(A, d))
            mm(S_a, f_end.reshape(vec), R[n])
            np.subtract(rhs_a.reshape(vec), R[n], R[n])
            res = _norms(R3[1 : n + 1]) / g_a
            stop = None
            if not (tol < res.min() and res.max() < np.inf):
                stop = _stops_in_block(res, tol, Rf, f_end, (f_a, lam_a, C3, S3, rhs_a, g_a))
            if stop is None or not stop.any():
                for j, col in enumerate(active):
                    pieces[col].append(res[:, j])
                R[0], f_a = R[n], f_end
                continue
            stopped = stop.any(axis=0)
            ends = np.where(stopped, stop.argmax(axis=0) + 1, n)
            for j, col in enumerate(active):
                pieces[col].append(res[: ends[j], j])
            converged[active] = stopped & (res[ends - 1, np.arange(A)] <= tol)
            f_now[active], r_now[active] = f_end, R3[n]
            active, R = active[~stopped], None
        if R is not None:
            f_now[active] = f_a
    histories = [np.concatenate(p) if p else np.zeros(0) for p in pieces]
    return f_now, histories, converged


def _solve_one(S, rhs, lam: float, config: SolverConfig, C=None, kappa: float = 1.0, x: int = 0):
    """The ``T = 1`` case of :func:`_richardson_stack` as ``(f, ConvergenceTrace)``.

    ``S`` is ``2^-x`` times the operator of the system.  The kernel runs on
    ``g~ = 2^-j rhs`` and the iterate is scaled back by ``2^(j - x)``.  A
    solve that did not diverge, of a nonzero ``rhs``, whose solution's
    largest part is not a normal float raises :class:`InvalidParametersError`.
    """
    scaled, j = _pow2_scaled(rhs)
    f, (history,), (converged,) = _richardson_stack(
        S[None], scaled[None], np.array([lam]), config, None if C is None else C[None]
    )
    f = _times_pow2(f[0], j - x)
    if rhs.any() and np.isfinite(history[-1]) and not _is_normal(np.abs(f.view(np.float64)).max()):
        raise InvalidParametersError("the solution lies outside the float range")
    residuals = history.tolist()
    return f, ConvergenceTrace(
        len(residuals), residuals, bool(converged), _empirical_rate(residuals), kappa_report=kappa
    )


def _relaxation(config: SolverConfig, lower: float, upper: float, x: int = 0) -> float:
    """The relaxation of a kernel that runs on ``2^-x`` times the system's
    operator, from the bounds of the operator it runs on: their optimal
    ``2 / (lower + upper)``, or the fixed relaxation moved by ``2^x``."""
    return 2.0 / (lower + upper) if config.relaxation is None else _scaled_back(config.relaxation, x)


def _controlled_relaxation(frame: FrameSequence, ctrl: Controller | None, config: SolverConfig, tol: Tolerances):
    """``(lam~, bounds)``: the relaxation with which the kernel runs on
    ``S~`` and ``C~``, and the certified bounds of ``C~ S~ = 2^-x C S`` (see
    :func:`framekit.controlled._require_real_product`).  ``ctrl=None`` is
    the plain iteration: the bounds of ``S~`` from the frame's cached
    eigenvalues, and ``x = s``.
    """
    if ctrl is None:
        w, x = frame._eigh[0], frame._scaled[1]
    else:
        H, x = _require_real_product(frame, ctrl, tol)
        w = np.linalg.eigvalsh(H)
    bounds = _spectrum_bounds(w, tol)
    return _relaxation(config, bounds.lower, bounds.upper, x), bounds


def richardson_solve(op, g, bounds, config: SolverConfig = SolverConfig(), tol: Tolerances = DEFAULT_TOL):
    """Solve ``Op f = g`` by relaxed Richardson iteration, run on ``Op~ =
    2^-x Op`` and ``g~`` with the bounds moved by ``2^-x``.

    Parameters
    ----------
    op : array_like
        Hermitian positive definite operator.
    g : array_like
        Right-hand side.
    bounds : OperatorBounds or (lower, upper)
        Certified spectral bounds of ``op``.  A pair is checked once, by
        building an :class:`OperatorBounds`: one that is not finite with
        ``0 < lower <= upper`` raises :class:`InvalidParametersError`.
    config : SolverConfig
        Relaxation, stopping tolerance and iteration cap.

    Returns
    -------
    (f, ConvergenceTrace)
        ``converged`` is False when the iteration cap is reached; the iterate
        and its trace are still returned so the caller can inspect the tail.
        A solution outside the float range raises
        :class:`InvalidParametersError`.
    """
    Op = as_operator(op)
    rhs = as_vector(g, dim=Op.shape[0])
    if not is_hermitian(Op, tol):
        raise NotHermitianError("Richardson iteration requires a Hermitian operator")
    (Op, x), bounds = _pow2_scaled(Op), _coerce_bounds(bounds)
    lam = _relaxation(config, _scaled_back(bounds.lower, -x), _scaled_back(bounds.upper, -x), x)
    return _solve_one(Op, rhs, lam, config, x=x)


def controlled_richardson_solve(
    frame: FrameSequence,
    ctrl: Controller | None,
    g,
    config: SolverConfig = SolverConfig(),
    tol: Tolerances = DEFAULT_TOL,
):
    """Solve ``S f = g`` by Richardson iteration on the controlled system ``C S f = C g``.

    The controller must form a valid controlled instance with the frame:
    ``C S`` Hermitian.  The solve inverts ``S``, so it takes no ``K``; the
    commutation ``C K = K C`` is a hypothesis of the controlled K-frame
    verdict, not of the iteration.  The relaxation comes from the certified
    bounds of ``C S``, so the iteration count is governed by ``cond(C S)``;
    the stopping criterion is the relative residual of the *original*
    system, making counts directly comparable with :func:`richardson_solve`.
    ``ctrl=None`` is the plain iteration, with the bounds of ``S``; with
    ``C = I`` the arithmetic — and hence the trace — is identical to it.
    The iteration runs on ``S~``, ``C~`` and ``g~``; only a solution
    outside the float range is refused, with :class:`InvalidParametersError`.
    """
    rhs = as_vector(g, dim=frame.dim)
    lam, _ = _controlled_relaxation(frame, ctrl, config, tol)
    C, kappa = (None, 1.0) if ctrl is None else (ctrl._scaled[0], ctrl.condition)
    S, s = frame._scaled
    return _solve_one(S, rhs, lam, config, C=C, kappa=kappa, x=s)
