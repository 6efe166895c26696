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

Each cell is prepared with its own seed ``base_seed + cell_index``: the
instance, its scaled ``S~`` and the bounds of ``S~``, the right-hand side,
the controller and the bounds of ``C~ S~``; both solves run on ``S~``.  The
cells of one dimension are then solved together, all plain solves as one
stack and all controlled solves as another (see
``solvers._richardson_stack``); each column stops on its own residual, so
every count equals that of a separate solve.  Rows are assembled in grid
order, so the CSV is byte-identical for a fixed seed.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import astuple, dataclass
from itertools import product

import numpy as np

from .controlled import Controller, identity_controller
from .errors import InvalidParametersError, NotPositiveDefiniteError, ToolkitError
from .instances import generate_instance
from .operators import (
    DEFAULT_TOL,
    Tolerances,
    _apply_spectrum,
    _spectrum_bounds,
    hermitian_part,
)
from .solvers import SolverConfig, _controlled_relaxation, _relaxation, _richardson_stack

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
    """Build the benchmark controller for a frame operator ``S``.

    Each strategy passes the controller only its matrix (see
    :class:`framekit.controlled.Controller`) and refuses a controller that
    would not be positive definite with :class:`NotPositiveDefiniteError`.
    ``identity`` and ``jacobi`` decompose nothing; ``exact-inverse`` runs
    one ``eigh``, of ``S``.
    """
    S = np.asarray(S, dtype=np.complex128)
    if strategy == "identity":
        return identity_controller(S.shape[0])
    if strategy == "exact-inverse":
        w, Q = np.linalg.eigh(hermitian_part(S))
        _spectrum_bounds(w, tol)  # S clears the positivity slack exactly when S^{-1} does
        return Controller(_apply_spectrum(w, Q, lambda v: 1.0 / v))
    if strategy == "jacobi":
        diag = np.diag(S).real
        if np.any(diag <= 0):
            raise NotPositiveDefiniteError("jacobi controller needs positive diagonal entries")
        inverse = 1.0 / np.exp2(np.round(np.log2(diag)))
        _spectrum_bounds(np.sort(inverse), tol)  # a diagonal matrix's spectrum is its sorted entries
        return Controller(np.diag(inverse))  # Controller keeps a complex copy
    raise InvalidParametersError(
        f"unknown controller strategy {strategy!r}; expected one of {CONTROLLER_STRATEGIES}"
    )


def _prepare_cell(index, kind, dim, cond_target, controller, config, tol):
    """The inputs of one cell's two solves, or ``None`` for an unusable cell."""
    seed = config.seed + index
    try:
        frame, _, _ = generate_instance(kind, dim, 2 * dim, cond_target, seed=seed, tol=tol)
        S, s = frame._scaled
        bounds = _spectrum_bounds(np.linalg.eigvalsh(S), tol)
        rng = np.random.default_rng(seed + 1_000_003)
        g = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        ctrl = controller_for(controller, S, tol)
        # One decomposition of C S serves cond_precond and the controlled relaxation.
        controlled_lam, precond_bounds = _controlled_relaxation(frame, ctrl, config, tol)
    except ToolkitError:
        # An unusable cell (e.g. singular frame operator) is reported, not fatal.
        return None
    return S, g, ctrl._scaled[0], bounds, precond_bounds, _relaxation(config, bounds.lower, bounds.upper, s), controlled_lam


def _solve_group(prepared, config):
    """Plain and controlled solves of equal-dimension cells, each run as one stack.

    Returns ``(iters_plain, converged_plain, iters_controlled,
    converged_controlled)`` per cell, in the order of ``prepared``.
    """
    S, g, C, _, _, plain_lam, controlled_lam = zip(*prepared)
    S, g = np.stack(S), np.stack(g)
    _, plain, plain_ok = _richardson_stack(S, g, np.array(plain_lam), config)
    _, controlled, controlled_ok = _richardson_stack(S, g, np.array(controlled_lam), config, C=np.stack(C))
    return [
        (p.size, bool(p_ok), c.size, bool(c_ok))
        for p, p_ok, c, c_ok in zip(plain, plain_ok, controlled, controlled_ok)
    ]


def _row(cell, prepared, counts) -> BenchRow:
    """The row of one cell; an unusable cell (``prepared is None``) has NaN
    conditions and no iterations."""
    kind, dim, cond_target, trial = cell
    instance_id = f"{kind}-d{dim}-c{'na' if cond_target is None else format(cond_target, 'g')}-t{trial}"
    if prepared is None:
        conditions, counts = (float("nan"), float("nan")), (0, False, 0, False)
    else:
        conditions = (prepared[3].condition, prepared[4].condition)
    iters_plain, converged_plain, iters_controlled, converged_controlled = counts
    both = converged_plain and converged_controlled
    speedup = iters_plain / iters_controlled if both and iters_controlled else float("nan")
    return BenchRow(
        instance_id, dim, 2 * dim, *conditions, iters_plain, iters_controlled, speedup,
        converged_plain, converged_controlled,
    )


def _check_grid(dims, cond_targets) -> None:
    """Refuse a grid no cell of which could be generated, before any cell runs."""
    for i, dim in enumerate(dims):
        if isinstance(dim, bool) or not isinstance(dim, numbers.Integral) or dim < 1:
            raise InvalidParametersError(f"dims[{i}] must be an integer >= 1, got {dim!r}")
    for i, cond in enumerate(cond_targets):
        if cond is not None and not (isinstance(cond, numbers.Real) and math.isfinite(cond) and cond >= 1):
            raise InvalidParametersError(
                f"cond_targets[{i}] must be a finite number >= 1 or None, got {cond!r}"
            )


def run_benchmark(
    kinds,
    dims,
    cond_targets,
    trials: int,
    config: SolverConfig = SolverConfig(),
    controller: str = "jacobi",
    tol: Tolerances = DEFAULT_TOL,
) -> list[BenchRow]:
    """Run the full grid ``kinds x dims x cond_targets x trials``.

    Deterministic for a fixed ``config.seed`` (see the module docstring).  A
    grid with a dim below 1, a cond target that is not a finite number >= 1
    (or ``None``), or fewer than one trial raises ``InvalidParametersError``
    before any cell runs; a cell whose instance is unusable becomes a NaN
    row.
    """
    kinds = list(kinds)
    dims = list(dims)
    cond_targets = list(cond_targets)
    _check_grid(dims, cond_targets)
    dims = [int(d) for d in dims]
    if trials < 1:
        raise InvalidParametersError(f"trials must be at least 1, got {trials}")
    cells = list(product(kinds, dims, cond_targets, range(trials)))
    prepared = [
        _prepare_cell(index, kind, dim, cond, controller, config, tol)
        for index, (kind, dim, cond, _) in enumerate(cells)
    ]
    counts = {}
    for dim in dict.fromkeys(dims):
        group = [i for i, cell in enumerate(cells) if cell[1] == dim and prepared[i] is not None]
        if group:
            counts.update(zip(group, _solve_group([prepared[i] for i in group], config)))
    return [_row(cell, prepared[i], counts.get(i)) for i, cell in enumerate(cells)]


def _csv_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def rows_to_csv(rows) -> str:
    """Serialize rows with shortest round-trip float formatting (deterministic).

    Each line holds a row's fields in :class:`BenchRow` order, the order of
    ``CSV_COLUMNS``.
    """
    lines = [",".join(CSV_COLUMNS)]
    lines += (",".join(map(_csv_value, astuple(row))) for row in rows)
    return "\n".join(lines) + "\n"
