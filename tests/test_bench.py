import re
from dataclasses import fields

import numpy as np
import pytest

import framekit.controlled
import framekit.operators

from framekit import (
    CSV_COLUMNS,
    BenchRow,
    InvalidParametersError,
    NotPositiveDefiniteError,
    SolverConfig,
    ToolkitError,
    controlled_richardson_solve,
    controller_for,
    frame_operator,
    make_controller,
    positive_definite_bounds,
    richardson_solve,
    rows_to_csv,
    run_benchmark,
)
from framekit.bench import _csv_value
from framekit.instances import generate_instance
from framekit.operators import _apply_spectrum, hermitian_part


def test_controller_for_identity():
    ctrl = controller_for("identity", np.diag([2.0, 5.0]))
    np.testing.assert_array_equal(ctrl.matrix, np.eye(2))


def test_controller_for_exact_inverse():
    inst, _, _ = generate_instance("ill-conditioned", 6, cond_target=50.0, seed=1)
    S = frame_operator(inst)
    ctrl = controller_for("exact-inverse", S)
    np.testing.assert_allclose(ctrl.matrix @ S, np.eye(6), atol=1e-9)


def test_controller_for_exact_inverse_decomposes_s_once(linalg_calls):
    inst, _, _ = generate_instance("ill-conditioned", 6, cond_target=50.0, seed=1)
    S = frame_operator(inst)
    calls = linalg_calls()
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


def _assert_same_controller(ctrl, ref, ties=False):
    """``ctrl`` equals ``ref`` bit for bit.  With ``ties``, the eigenvector
    columns of a tied eigenvalue may come in another order: eigh ends with a
    selection sort, which is not stable, and no derived operator depends on
    that order."""
    assert np.array_equal(ctrl.matrix, ref.matrix)
    w, Q = ctrl._eigh
    assert np.array_equal(w, ref._eigh[0])
    if ties:
        for value in np.unique(w):
            tied = w == value
            assert np.array_equal(np.abs(Q[:, tied]).sum(axis=1), np.abs(ref._eigh[1][:, tied]).sum(axis=1))
    else:
        assert np.array_equal(Q, ref._eigh[1])
    # operators derived from the eigenpairs do not depend on the order of tied columns
    for fn in (np.sqrt, np.reciprocal, lambda w: 1.0 / np.sqrt(w)):
        assert np.array_equal(_apply_spectrum(*ctrl._eigh, fn), _apply_spectrum(*ref._eigh, fn))


def test_controller_for_jacobi_decomposes_nothing_and_matches_eigh_bit_for_bit(monkeypatch):
    for dim, cond, seed in ((4, 10.0, 0), (16, 1e3, 1), (32, 1e4, 2), (64, 1e2, 3)):
        S = frame_operator(generate_instance("ill-conditioned", dim, cond_target=cond, seed=seed)[0])
        with monkeypatch.context() as m:
            for name in ("svd", "eigh", "eigvalsh"):
                m.setattr(np.linalg, name, None)
            ctrl = controller_for("jacobi", S)
        _assert_same_controller(ctrl, make_controller(ctrl.matrix))
    # Tied snapped entries: 1.1 and 0.9 both snap to 1, 3.1 and 2.9 to 4.
    # The values ascend.
    tied = controller_for("jacobi", np.diag([1.1, 3.1, 0.9, 2.9]).astype(complex))
    assert np.array_equal(tied._eigh[0], [0.25, 0.25, 1.0, 1.0])
    _assert_same_controller(tied, make_controller(tied.matrix), ties=True)
    rng = np.random.default_rng(70)
    diag = 2.0 ** rng.integers(-3, 3, size=40) * rng.uniform(0.9, 1.1, size=40)
    many = controller_for("jacobi", np.diag(diag).astype(complex))
    _assert_same_controller(many, make_controller(many.matrix), ties=True)


def test_controller_for_jacobi_refuses_a_non_positive_diagonal_entry():
    for entry in (0.0, -1.0):
        with pytest.raises(NotPositiveDefiniteError, match="positive diagonal entries"):
            controller_for("jacobi", np.diag([1.0, entry, 2.0]))


@pytest.mark.parametrize("strategy", ["identity", "exact-inverse", "jacobi"])
def test_controller_for_gives_a_controller_whose_eigenpairs_are_those_of_its_matrix(monkeypatch, linalg_calls, strategy):
    S = frame_operator(generate_instance("ill-conditioned", 8, cond_target=1e3, seed=5)[0])
    calls = linalg_calls()
    ctrl = controller_for(strategy, S)
    assert [name for name, _ in calls] == (["eigh"] if strategy == "exact-inverse" else [])  # identity and jacobi decompose nothing
    monkeypatch.undo()
    w, Q = ctrl._eigh
    expected = np.linalg.eigh(hermitian_part(ctrl.matrix))
    assert np.array_equal(w, expected[0]) and np.array_equal(Q, expected[1])
    for array in (w, Q):
        with pytest.raises(ValueError):
            array[0] = 0.0


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


def test_csv_lines_are_the_fields_of_bench_row_in_order():
    assert len(fields(BenchRow)) == len(CSV_COLUMNS)
    (converged,) = run_benchmark(["ill-conditioned"], [4], [25.0], 1, config=SolverConfig(seed=31))
    (unusable,) = run_benchmark(["random-frame"], [4], [None], 1, controller="not-a-strategy")
    assert converged.converged_plain and converged.converged_controlled
    assert np.isnan([unusable.cond_s, unusable.cond_precond, unusable.speedup]).all()
    lines = [",".join(CSV_COLUMNS)] + [
        ",".join(_csv_value(value) for value in (
            row.instance_id, row.dim, row.n_vectors, row.cond_s, row.cond_precond,
            row.iters_plain, row.iters_controlled, row.speedup,
            row.converged_plain, row.converged_controlled,
        ))
        for row in (converged, unusable)
    ]
    assert rows_to_csv([converged, unusable]) == "\n".join(lines) + "\n"


def _hermiticity_tests_of(monkeypatch, operands):
    """Patch ``is_hermitian`` where ``controlled`` and ``operators`` call it;
    the returned list gains the index of each of ``operands`` tested."""
    original = framekit.operators.is_hermitian
    hits = []

    def counted(T, *args):
        hits.extend(i for i, P in enumerate(operands) if np.array_equal(T, P))
        return original(T, *args)

    for module in (framekit.controlled, framekit.operators):
        monkeypatch.setattr(module, "is_hermitian", counted)
    return hits


def test_a_controlled_solve_tests_c_s_for_hermiticity_once(monkeypatch):
    frame, _, _ = generate_instance("ill-conditioned", 6, cond_target=50.0, seed=1)
    S = frame_operator(frame)
    ctrl = controller_for("jacobi", S)
    hits = _hermiticity_tests_of(monkeypatch, [ctrl.matrix @ S])
    _, trace = controlled_richardson_solve(frame, ctrl, np.ones(6))
    assert trace.converged
    assert hits == [0]


def test_run_benchmark_tests_each_cells_c_s_for_hermiticity_once(monkeypatch):
    config = SolverConfig(seed=5)
    dims, conds = [4, 6], [10.0, 100.0]
    products = []
    for index, (dim, cond) in enumerate((d, c) for d in dims for c in conds):
        frame, _, _ = generate_instance("ill-conditioned", dim, 2 * dim, cond, seed=config.seed + index)
        S = frame_operator(frame)
        products.append(controller_for("jacobi", S).matrix @ S)
    hits = _hermiticity_tests_of(monkeypatch, products)
    rows = run_benchmark(["ill-conditioned"], dims, conds, 1, config=config)
    assert all(row.converged_controlled for row in rows)
    assert sorted(hits) == list(range(len(products)))


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
