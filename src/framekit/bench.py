"""Preconditioning benchmark: plain versus controlled Richardson on a grid.

Each cell generates one instance, draws one right-hand side, and solves the
same system twice — once with plain Richardson on ``S`` and once with the
controlled iteration on ``C S`` — so the iteration counts are directly
comparable.  Controller strategies:

``identity``
    ``C = I``; the control row.  Identical arithmetic to the plain solve.
``exact-inverse``
    ``C = S^{-1}``; the controlled system is perfectly conditioned and the
    solve finishes in one iteration.
``jacobi``
    The reciprocal of ``diag(S)``, with each diagonal entry first snapped to
    the nearest power of two.  The snapping keeps it an honest *approximate*
    inverse (each entry within a factor ``sqrt(2)``), so on instances with a
    diagonal frame operator it bounds ``cond(C S)`` by 2 without collapsing
    the experiment into the exact-inverse case.  Diagonal times diagonal
    commutes, so the controlled theory applies exactly on the
    ``ill-conditioned`` family.

Rows are computed cell-by-cell with per-cell seeds ``base_seed + cell_index``
and assembled in index order, so the CSV is byte-identical for a fixed seed
regardless of ``workers``.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import product

import numpy as np

from .controlled import Controller, identity_controller, make_controller
from .errors import InvalidParametersError, NotPositiveDefiniteError, ToolkitError
from .frames import frame_operator
from .instances import generate_instance
from .operators import (
    DEFAULT_TOL,
    Tolerances,
    _apply_spectrum,
    _spectrum_bounds,
    hermitian_part,
    positive_definite_bounds,
)
from .solvers import SolverConfig, controlled_richardson_solve, richardson_solve

__all__ = [
    "CONTROLLER_STRATEGIES",
    "CSV_COLUMNS",
    "BenchRow",
    "controller_for",
    "run_benchmark",
    "rows_to_csv",
]

CONTROLLER_STRATEGIES = ("identity", "exact-inverse", "jacobi")

CSV_COLUMNS = (
    "instance_id",
    "dim",
    "n",
    "cond_S",
    "cond_precond",
    "iters_plain",
    "iters_controlled",
    "speedup",
    "converged_plain",
    "converged_controlled",
)


@dataclass(frozen=True)
class BenchRow:
    """One grid cell.  ``speedup = iters_plain / iters_controlled`` when both
    solves converged, NaN otherwise."""

    instance_id: str
    dim: int
    n_vectors: int
    cond_s: float
    cond_precond: float
    iters_plain: int
    iters_controlled: int
    speedup: float
    converged_plain: bool
    converged_controlled: bool


def controller_for(strategy: str, S, tol: Tolerances = DEFAULT_TOL) -> Controller:
    """Build the benchmark controller for a frame operator ``S``."""
    S = np.asarray(S, dtype=np.complex128)
    dim = S.shape[0]
    if strategy == "identity":
        return identity_controller(dim)
    if strategy == "exact-inverse":
        w, Q = np.linalg.eigh(hermitian_part(S))
        if w[0] <= 0:
            raise NotPositiveDefiniteError("exact-inverse controller needs a positive definite S")
        return make_controller(_apply_spectrum(w, Q, lambda v: 1.0 / v), tol)
    if strategy == "jacobi":
        diag = np.diag(S).real
        if np.any(diag <= 0):
            raise NotPositiveDefiniteError("jacobi controller needs positive diagonal entries")
        snapped = np.exp2(np.round(np.log2(diag)))
        return make_controller(np.diag(1.0 / snapped).astype(np.complex128), tol)
    raise InvalidParametersError(
        f"unknown controller strategy {strategy!r}; expected one of {CONTROLLER_STRATEGIES}"
    )


def _run_cell(index, kind, dim, cond_target, trial, controller, config, tol):
    seed = config.seed + index
    instance_id = f"{kind}-d{dim}-c{'na' if cond_target is None else format(cond_target, 'g')}-t{trial}"
    count = 2 * dim
    try:
        frame, _, _ = generate_instance(kind, dim, count, cond_target, seed=seed, tol=tol)
        S = frame_operator(frame)
        bounds = _spectrum_bounds(np.linalg.eigvalsh(S), tol)
        rng = np.random.default_rng(seed + 1_000_003)
        g = rng.normal(size=dim) + 1j * rng.normal(size=dim)

        _, plain = richardson_solve(S, g, bounds, config, tol)
        ctrl = controller_for(controller, S, tol)
        precond_bounds = positive_definite_bounds(hermitian_part(ctrl.matrix @ S), tol)
        _, controlled = controlled_richardson_solve(frame, ctrl, g, config, tol=tol)

        both = plain.converged and controlled.converged
        speedup = plain.iterations / controlled.iterations if both and controlled.iterations else float("nan")
        return BenchRow(
            instance_id=instance_id,
            dim=dim,
            n_vectors=count,
            cond_s=bounds.condition,
            cond_precond=precond_bounds.condition,
            iters_plain=plain.iterations,
            iters_controlled=controlled.iterations,
            speedup=speedup,
            converged_plain=plain.converged,
            converged_controlled=controlled.converged,
        )
    except ToolkitError:
        # An unusable cell (e.g. singular frame operator) is reported, not fatal.
        return BenchRow(
            instance_id=instance_id, dim=dim, n_vectors=count,
            cond_s=float("nan"), cond_precond=float("nan"),
            iters_plain=0, iters_controlled=0, speedup=float("nan"),
            converged_plain=False, converged_controlled=False,
        )


def run_benchmark(
    kinds,
    dims,
    cond_targets,
    trials: int,
    config: SolverConfig = SolverConfig(),
    controller: str = "jacobi",
    workers: int = 1,
    tol: Tolerances = DEFAULT_TOL,
) -> list[BenchRow]:
    """Run the full grid ``kinds x dims x cond_targets x trials``.

    Deterministic for a fixed ``config.seed``: cell seeds are
    ``seed + cell_index`` and rows are assembled in grid order, so the output
    is identical whether cells run serially or on a thread pool.
    """
    kinds = list(kinds)
    dims = [int(d) for d in dims]
    cond_targets = list(cond_targets)
    if trials < 1:
        raise InvalidParametersError(f"trials must be at least 1, got {trials}")
    if workers < 1:
        raise InvalidParametersError(f"workers must be at least 1, got {workers}")
    cells = [
        (index, kind, dim, cond, trial)
        for index, (kind, dim, cond, trial) in enumerate(
            product(kinds, dims, cond_targets, range(trials))
        )
    ]
    if workers == 1:
        return [_run_cell(*cell, controller, config, tol) for cell in cells]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(_run_cell, *cell, controller, config, tol) for cell in cells]
        return [future.result() for future in futures]


def _csv_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def rows_to_csv(rows) -> str:
    """Serialize rows with shortest round-trip float formatting (deterministic)."""
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        lines.append(
            ",".join(
                _csv_value(value)
                for value in (
                    row.instance_id, row.dim, row.n_vectors, row.cond_s, row.cond_precond,
                    row.iters_plain, row.iters_controlled, row.speedup,
                    row.converged_plain, row.converged_controlled,
                )
            )
        )
    return "\n".join(lines) + "\n"
