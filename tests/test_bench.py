import re

import numpy as np
import pytest

from framekit import (
    CSV_COLUMNS,
    BenchRow,
    InvalidParametersError,
    SolverConfig,
    ToolkitError,
    controlled_richardson_solve,
    controller_for,
    frame_operator,
    positive_definite_bounds,
    richardson_solve,
    rows_to_csv,
    run_benchmark,
)
from framekit.instances import generate_instance
from framekit.operators import hermitian_part


def test_controller_for_identity():
    ctrl = controller_for("identity", np.diag([2.0, 5.0]))
    np.testing.assert_array_equal(ctrl.matrix, np.eye(2))


def test_controller_for_exact_inverse():
    inst, _, _ = generate_instance("ill-conditioned", 6, cond_target=50.0, seed=1)
    S = frame_operator(inst)
    ctrl = controller_for("exact-inverse", S)
    np.testing.assert_allclose(ctrl.matrix @ S, np.eye(6), atol=1e-9)


def test_controller_for_exact_inverse_decomposes_s_once(monkeypatch):
    inst, _, _ = generate_instance("ill-conditioned", 6, cond_target=50.0, seed=1)
    S = frame_operator(inst)
    calls = []
    for name in ("svd", "eigh", "eigvalsh"):
        def recorded(a, *args, _name=name, _original=getattr(np.linalg, name), **kwargs):
            calls.append((_name, np.array(a)))
            return _original(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, recorded)
    ctrl = controller_for("exact-inverse", S)
    assert [name for name, _ in calls] == ["eigh"]
    np.testing.assert_allclose(calls[0][1], S, rtol=0, atol=1e-12)
    w, Q = ctrl._eigh
    assert np.all(np.diff(w) >= 0)
    np.testing.assert_allclose((Q * w) @ Q.conj().T, ctrl.matrix, atol=1e-9)


def test_controller_for_jacobi_snaps_to_powers_of_two():
    inst, _, _ = generate_instance("ill-conditioned", 8, cond_target=1e3, seed=2)
    S = frame_operator(inst)
    ctrl = controller_for("jacobi", S)
    diag = np.diag(ctrl.matrix).real
    exponents = np.log2(1.0 / diag)
    np.testing.assert_allclose(exponents, np.round(exponents), atol=1e-12)
    # snapping keeps each entry within a factor sqrt(2) of the exact reciprocal
    ratio = diag * np.diag(S).real
    assert np.all(ratio >= 1 / np.sqrt(2) - 1e-12)
    assert np.all(ratio <= np.sqrt(2) + 1e-12)
    # on a diagonal S that bounds the preconditioned condition number by 2
    bounds = positive_definite_bounds(hermitian_part(ctrl.matrix @ S))
    assert bounds.condition <= 2.0 + 1e-9


def test_controller_for_unknown_strategy():
    with pytest.raises(InvalidParametersError):
        controller_for("newton", np.eye(2))


def test_run_benchmark_grid_shape_and_ids():
    rows = run_benchmark(
        kinds=["ill-conditioned"], dims=[4, 6], cond_targets=[10.0],
        trials=2, config=SolverConfig(seed=11),
    )
    assert len(rows) == 4
    assert rows[0].instance_id == "ill-conditioned-d4-c10-t0"
    assert rows[-1].instance_id == "ill-conditioned-d6-c10-t1"
    for row in rows:
        assert row.converged_plain and row.converged_controlled
        assert row.n_vectors == 2 * row.dim
        assert row.speedup > 1.0  # jacobi beats plain on these instances
        assert row.cond_precond < row.cond_s


def test_run_benchmark_identity_controller_matches_plain_exactly():
    rows = run_benchmark(
        kinds=["ill-conditioned"], dims=[5], cond_targets=[100.0],
        trials=3, config=SolverConfig(seed=4), controller="identity",
    )
    for row in rows:
        assert row.iters_plain == row.iters_controlled
        assert row.speedup == 1.0


def test_run_benchmark_reruns_are_identical():
    kwargs = dict(
        kinds=["ill-conditioned"], dims=[4, 5],
        cond_targets=[50.0], trials=2, config=SolverConfig(seed=21),
    )
    first = run_benchmark(**kwargs)
    again = run_benchmark(**kwargs)
    assert first == again
    assert rows_to_csv(first) == rows_to_csv(again)

    # a grid with failed cells (NaN metrics) still serializes identically
    kwargs = dict(
        kinds=["ill-conditioned", "random-frame"], dims=[4],
        cond_targets=[50.0], trials=2, config=SolverConfig(seed=21),
    )
    assert rows_to_csv(run_benchmark(**kwargs)) == rows_to_csv(run_benchmark(**kwargs))


def test_run_benchmark_validation():
    with pytest.raises(InvalidParametersError):
        run_benchmark(["random-frame"], [4], [None], trials=0)


def test_failed_cells_become_nan_rows_not_crashes():
    rows = run_benchmark(
        kinds=["random-frame"], dims=[4], cond_targets=[None],
        trials=2, config=SolverConfig(seed=8), controller="not-a-strategy",
    )
    assert len(rows) == 2
    for row in rows:
        assert not row.converged_plain and not row.converged_controlled
        assert np.isnan(row.speedup)


def test_csv_header_is_pinned():
    assert ",".join(CSV_COLUMNS) == (
        "instance_id,dim,n,cond_S,cond_precond,iters_plain,iters_controlled,"
        "speedup,converged_plain,converged_controlled"
    )


def test_csv_rows_round_trip_floats():
    rows = run_benchmark(
        kinds=["ill-conditioned"], dims=[4], cond_targets=[25.0],
        trials=1, config=SolverConfig(seed=31),
    )
    text = rows_to_csv(rows)
    lines = text.splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert text.endswith("\n")
    fields = lines[1].split(",")
    assert fields[-2:] == ["true", "true"]
    # shortest round-trip float formatting: parsing recovers the exact value
    assert float(fields[3]) == rows[0].cond_s
    assert float(fields[7]) == rows[0].speedup
    assert int(fields[5]) == rows[0].iters_plain


def test_run_benchmark_matches_cell_by_cell_public_solves():
    """The dim-grouped stacks give the rows of separate solves, in grid order."""
    kinds, dims, conds, trials = ["ill-conditioned", "random-frame"], [8, 4], [10.0, 100.0], 2
    # cond 100 needs about 900 plain iterations, so those columns hit the cap
    # while cond 10 columns of the same stack converge.
    config = SolverConfig(seed=17, max_iter=500)
    expected = []
    index = 0
    for kind in kinds:
        for dim in dims:
            for cond in conds:
                for trial in range(trials):
                    seed = config.seed + index
                    index += 1
                    instance_id = f"{kind}-d{dim}-c{cond:g}-t{trial}"
                    try:
                        frame, _, _ = generate_instance(kind, dim, 2 * dim, cond, seed=seed)
                        S = frame_operator(frame)
                        bounds = positive_definite_bounds(S)
                        rng = np.random.default_rng(seed + 1_000_003)
                        g = rng.normal(size=dim) + 1j * rng.normal(size=dim)
                        _, plain = richardson_solve(S, g, bounds, config)
                        ctrl = controller_for("jacobi", S)
                        _, controlled = controlled_richardson_solve(frame, ctrl, g, config)
                        precond = positive_definite_bounds(hermitian_part(ctrl.matrix @ S))
                    except ToolkitError:
                        nan = float("nan")
                        expected.append(BenchRow(instance_id, dim, 2 * dim, nan, nan, 0, 0, nan, False, False))
                        continue
                    both = plain.converged and controlled.converged
                    expected.append(BenchRow(
                        instance_id, dim, 2 * dim, bounds.condition, precond.condition,
                        plain.iterations, controlled.iterations,
                        plain.iterations / controlled.iterations if both else float("nan"),
                        plain.converged, controlled.converged,
                    ))
    rows = run_benchmark(kinds, dims, conds, trials, config=config)
    assert rows_to_csv(rows) == rows_to_csv(expected)
    # the grid held converged, capped and unusable cells
    assert {r.converged_plain for r in rows if np.isfinite(r.cond_s)} == {True, False}
    assert any(np.isnan(r.cond_s) for r in rows)


@pytest.mark.parametrize("kind", ["ill-conditioned", "random-frame", "commuting-family"])
@pytest.mark.parametrize("dims, conds, where", [
    ([0], [10.0], "dims[0]"),
    ([4, -3], [10.0], "dims[1]"),
    ([4.0], [10.0], "dims[0]"),
    ([True], [10.0], "dims[0]"),
    ([4], [0.5], "cond_targets[0]"),
    ([4], [None, float("nan")], "cond_targets[1]"),
    ([4], [float("inf")], "cond_targets[0]"),
    ([4], ["1e4"], "cond_targets[0]"),
])
def test_an_invalid_grid_is_refused_before_any_cell_runs(monkeypatch, kind, dims, conds, where):
    import framekit.bench

    def no_cell(*args, **kwargs):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(framekit.bench, "generate_instance", no_cell)
    with pytest.raises(InvalidParametersError, match=rf"^{re.escape(where)} must be"):
        run_benchmark([kind], dims, conds, trials=1)


def test_grid_bounds_themselves_are_valid():
    rows = run_benchmark(
        ["ill-conditioned", "random-frame"], [np.int64(1), 2], [None, 1, 1.0], trials=1,
        config=SolverConfig(seed=3, max_iter=50),
    )
    assert [r.instance_id for r in rows[:3]] == [
        "ill-conditioned-d1-cna-t0", "ill-conditioned-d1-c1-t0", "ill-conditioned-d1-c1-t0",
    ]
    # an ill-conditioned cell without a cond target is unusable, not an invalid grid
    assert np.isnan(rows[0].cond_s) and np.isfinite(rows[1].cond_s)
    assert all(type(r.dim) is int for r in rows)
