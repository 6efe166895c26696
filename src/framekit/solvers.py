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

Conjugate gradients is included as a second, parameter-free solver; in exact
arithmetic it terminates within ``dim`` iterations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .controlled import Controller, _require_real_product, commutes
from .errors import (
    CommutationError,
    IndefiniteOperatorError,
    InvalidParametersError,
    NotHermitianError,
)
from .frames import FrameSequence, frame_operator
from .operators import (
    DEFAULT_TOL,
    OperatorBounds,
    Tolerances,
    as_operator,
    as_vector,
    is_hermitian,
    positive_definite_bounds,
)

__all__ = [
    "SolverConfig",
    "ConvergenceTrace",
    "richardson_solve",
    "controlled_richardson_solve",
    "cg_solve",
]


@dataclass(frozen=True)
class SolverConfig:
    """Iteration parameters.

    ``relaxation=None`` selects the optimal ``2 / (A + B)`` from the certified
    bounds.  ``seed`` does not affect the iterations themselves (they start
    from zero deterministically); it is the base seed harnesses use to draw
    instances and right-hand sides.
    """

    relaxation: float | None = None
    residual_tol: float = 1e-8
    max_iter: int = 100_000
    seed: int = 0

    def __post_init__(self):
        if self.relaxation is not None and not (np.isfinite(self.relaxation) and self.relaxation > 0):
            raise InvalidParametersError(f"relaxation must be positive, got {self.relaxation!r}")
        if not (0.0 < self.residual_tol < 1.0):
            raise InvalidParametersError(f"residual_tol must lie in (0, 1), got {self.residual_tol!r}")
        if self.max_iter < 1:
            raise InvalidParametersError(f"max_iter must be at least 1, got {self.max_iter!r}")


@dataclass(frozen=True)
class ConvergenceTrace:
    """Residual history of one solve.

    ``residuals[k]`` is the relative residual of the iterate after update
    ``k + 1``, measured against the original system.  ``empirical_rate`` is
    the geometric-mean contraction over the final (up to) ten iterations.
    ``kappa_report`` discloses the worst-case factor by which a controlled
    solve's stopping criterion could be off for the original system; it is
    ``1.0`` for plain solves and ``cond(C)`` for controlled ones (the solver
    stops on the original residual, so the achieved residual never uses the
    allowance — the factor is reported, not spent).
    """

    iterations: int
    residuals: list[float] = field(repr=False)
    converged: bool
    empirical_rate: float
    kappa_report: float = 1.0


def _empirical_rate(residuals: list[float]) -> float:
    path = [1.0] + list(residuals)
    if len(path) < 2:
        return 0.0
    window = min(10, len(path) - 1)
    head, tail = path[-1 - window], path[-1]
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
    if not (np.isfinite(lower) and np.isfinite(upper)) or lower <= 0.0 or upper < lower:
        raise IndefiniteOperatorError(
            f"Richardson iteration needs certified bounds 0 < lower <= upper, got ({lower!r}, {upper!r})"
        )
    return OperatorBounds(lower, upper)


def _richardson(S, rhs, lam: float, config: SolverConfig, C=None, kappa: float = 1.0):
    """The one Richardson loop: ``f += lam * (C r)`` with ``r = rhs - S f``.

    ``C=None`` is the plain iteration.  Residuals are always those of
    ``S f = rhs``; ``kappa`` is passed through to the trace.
    """
    norm_g = float(np.linalg.norm(rhs))
    if norm_g == 0.0:
        return np.zeros_like(rhs), ConvergenceTrace(0, [], True, 0.0, kappa_report=kappa)

    f = np.zeros_like(rhs)
    r = rhs.copy()                 # residual of the zero iterate
    residuals: list[float] = []
    converged = False
    for _ in range(config.max_iter):
        f = f + lam * (r if C is None else C @ r)
        r = rhs - S @ f            # exact residual of the new iterate
        res = float(np.linalg.norm(r)) / norm_g
        residuals.append(res)
        if res <= config.residual_tol:
            converged = True
            break
    return f, ConvergenceTrace(len(residuals), residuals, converged, _empirical_rate(residuals), kappa_report=kappa)


def _relaxation(config: SolverConfig, bounds: OperatorBounds) -> float:
    return config.relaxation if config.relaxation is not None else 2.0 / (bounds.lower + bounds.upper)


def richardson_solve(op, g, bounds, config: SolverConfig = SolverConfig(), tol: Tolerances = DEFAULT_TOL):
    """Solve ``Op f = g`` by relaxed Richardson iteration.

    Parameters
    ----------
    op : array_like
        Hermitian positive definite operator.
    g : array_like
        Right-hand side.
    bounds : OperatorBounds or (lower, upper)
        Certified spectral bounds of ``op``.
    config : SolverConfig
        Relaxation, stopping tolerance and iteration cap.

    Returns
    -------
    (f, ConvergenceTrace)
        ``converged`` is False when the iteration cap is reached; the iterate
        and its trace are still returned so the caller can inspect the tail.
    """
    Op = as_operator(op)
    rhs = as_vector(g, dim=Op.shape[0])
    if not is_hermitian(Op, tol):
        raise NotHermitianError("Richardson iteration requires a Hermitian operator")
    return _richardson(Op, rhs, _relaxation(config, _coerce_bounds(bounds)), config)


def controlled_richardson_solve(
    frame: FrameSequence,
    ctrl: Controller,
    g,
    config: SolverConfig = SolverConfig(),
    K=None,
    tol: Tolerances = DEFAULT_TOL,
):
    """Solve ``S f = g`` by Richardson iteration on the controlled system ``C S f = C g``.

    The controller must form a valid controlled instance: ``C S`` Hermitian
    (and ``C K = K C`` when ``K`` is supplied).  The relaxation comes from the
    certified bounds of ``C S``, so the iteration count is governed by
    ``cond(C S)``; the stopping criterion is the relative residual of the
    *original* system, making counts directly comparable with
    :func:`richardson_solve`.  With ``C = I`` the arithmetic — and hence the
    trace — is identical to the plain solve.
    """
    S = frame_operator(frame)
    rhs = as_vector(g, dim=frame.dim)
    if K is not None and not commutes(ctrl, K, tol):
        raise CommutationError("controller does not commute with K within tolerance")
    certified = positive_definite_bounds(_require_real_product(ctrl, S, tol), tol)
    return _richardson(S, rhs, _relaxation(config, certified), config, C=ctrl.matrix, kappa=ctrl.condition)


def cg_solve(op, g, config: SolverConfig = SolverConfig(), tol: Tolerances = DEFAULT_TOL):
    """Conjugate gradients for Hermitian positive definite systems.

    Parameter-free and exact within ``dim`` iterations in exact arithmetic;
    included as the fast alternative when no spectral bounds are at hand.
    """
    Op = as_operator(op)
    rhs = as_vector(g, dim=Op.shape[0])
    if not is_hermitian(Op, tol):
        raise NotHermitianError("conjugate gradients requires a Hermitian operator")

    norm_g = float(np.linalg.norm(rhs))
    if norm_g == 0.0:
        return np.zeros_like(rhs), ConvergenceTrace(0, [], True, 0.0)

    f = np.zeros_like(rhs)
    r = rhs.copy()
    p = r.copy()
    rho = float(np.vdot(r, r).real)
    residuals: list[float] = []
    converged = False
    for _ in range(config.max_iter):
        q = Op @ p
        denom = complex(np.vdot(p, q))
        if denom.real <= 0.0:
            raise IndefiniteOperatorError(
                f"search direction has non-positive curvature ({denom.real:.3e}); operator is not positive definite"
            )
        alpha = rho / denom.real
        f = f + alpha * p
        r = r - alpha * q
        res = float(np.linalg.norm(r)) / norm_g
        residuals.append(res)
        if res <= config.residual_tol:
            converged = True
            break
        rho_next = float(np.vdot(r, r).real)
        p = r + (rho_next / rho) * p
        rho = rho_next
    return f, ConvergenceTrace(len(residuals), residuals, converged, _empirical_rate(residuals))
