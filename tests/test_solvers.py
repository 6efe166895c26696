"""Solver tests with hand-countable iteration numbers.

On ``diag(1, 3)`` with the optimal relaxation both error components shrink by
exactly 1/2 per step, so the iteration count for a relative tolerance of
``1e-8`` is exactly ``ceil(log2(1e8)) = 27``; several tests pin such closed
forms."""

import re
import warnings
from dataclasses import replace
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import moved as _moved, relative_residual
from framekit import (
    FrameSequence,
    InvalidParametersError,
    NonRealFormError,
    NotHermitianError,
    OperatorBounds,
    SolverConfig,
    Tolerances,
    controlled_richardson_solve,
    controller_for,
    frame_operator,
    identity_controller,
    make_controller,
    positive_definite_bounds,
    richardson_solve,
)
from framekit.instances import (
    commuting_triple,
    generate_instance,
    haar_unitary,
    random_frame,
    random_positive_operator,
)
from framekit.operators import spectral_function
from framekit.solvers import _empirical_rate, _richardson_stack, _solve_one


def test_solver_config_validation():
    SolverConfig(relaxation=0.5, residual_tol=1e-6, max_iter=10)
    with pytest.raises(InvalidParametersError):
        SolverConfig(relaxation=-1.0)
    with pytest.raises(InvalidParametersError):
        SolverConfig(residual_tol=0.0)
    with pytest.raises(InvalidParametersError):
        SolverConfig(residual_tol=1.5)
    with pytest.raises(InvalidParametersError):
        SolverConfig(max_iter=0)


def test_a_residual_tolerance_below_the_machine_epsilon_is_refused():
    # A float64 relative residual cannot be certified below 2^-52.
    assert SolverConfig(residual_tol=2.0**-52).residual_tol == np.finfo(np.float64).eps
    for tol_value in (2.0**-53, 1e-300, 5e-324):
        with pytest.raises(InvalidParametersError, match=r"residual_tol must lie in \[2\^-52, 1\)"):
            SolverConfig(residual_tol=tol_value)


@pytest.mark.parametrize("max_iter", [0, -3, 2.5, 10.0, True, "10", None])
def test_an_iteration_cap_that_is_not_an_integer_of_at_least_one_is_refused(max_iter):
    # 2.5 used to pass and end the solve in a bare TypeError.
    with pytest.raises(InvalidParametersError, match=rf"^max_iter must be an integer >= 1, got {re.escape(repr(max_iter))}$"):
        SolverConfig(max_iter=max_iter)
    assert SolverConfig(max_iter=np.int64(7)).max_iter == 7


@pytest.mark.parametrize("seed", [-1, 1.0, True, "3", None])
def test_a_seed_that_is_not_a_nonnegative_integer_is_refused(seed):
    with pytest.raises(InvalidParametersError, match=rf"^the seed must be an integer >= 0, got {re.escape(repr(seed))}$"):
        SolverConfig(seed=seed)
    # the seed is checked first, so its message is the same whatever else is wrong
    with pytest.raises(InvalidParametersError, match="^the seed must be"):
        SolverConfig(max_iter=0, residual_tol=2.0, seed=seed)


def test_richardson_exact_iteration_count_on_diagonal_system():
    Op = np.diag([1.0, 3.0]).astype(complex)
    g = np.array([1.0, 1.0], dtype=complex)
    f, trace = richardson_solve(Op, g, (1.0, 3.0))
    # residual components are (1/2)^k and (-1/2)^k: exactly 27 halvings to reach 1e-8
    assert trace.iterations == 27
    assert trace.converged
    np.testing.assert_allclose(trace.empirical_rate, 0.5, rtol=1e-9)
    assert trace.kappa_report == 1.0
    np.testing.assert_allclose(f, np.array([1.0, 1.0 / 3.0]), atol=1e-8)
    # the recorded residuals are exact: (1/2)^(k+1)
    np.testing.assert_allclose(
        trace.residuals, [0.5 ** (k + 1) for k in range(27)], rtol=1e-12
    )


@pytest.mark.parametrize("n", [0, 1, 9, 10, 11, 12, 30])
def test_empirical_rate_is_the_mean_contraction_over_the_last_ten_updates(n):
    residuals = [0.7 ** (k + 1) * (1.0 + 0.01 * (k % 3)) for k in range(n)]
    path = [1.0] + residuals  # the start's relative residual heads the history
    window = min(10, n)
    expected = (path[-1] / path[-1 - window]) ** (1.0 / window) if n else 0.0
    assert _empirical_rate(residuals) == expected


def test_empirical_rate_of_a_zero_tail_or_head():
    assert _empirical_rate([0.5, 0.0]) == 0.0
    assert _empirical_rate([0.0] + [0.5] * 10) == 1.0


def test_richardson_identity_operator_converges_in_one_step():
    g = np.array([2.0, -1.0, 0.5], dtype=complex)
    f, trace = richardson_solve(np.eye(3), g, (1.0, 1.0))
    assert trace.iterations == 1
    assert trace.converged
    np.testing.assert_allclose(f, g, atol=1e-15)


def test_richardson_zero_rhs_short_circuits():
    f, trace = richardson_solve(np.eye(3), np.zeros(3), (1.0, 1.0))
    assert trace.iterations == 0
    assert trace.converged
    assert trace.residuals == []
    np.testing.assert_array_equal(f, np.zeros(3))


def test_richardson_contracts_at_the_certified_rate():
    rng = np.random.default_rng(60)
    for _ in range(5):
        d = int(rng.integers(3, 10))
        Op = random_positive_operator(rng, d, spread=(0.5, 5.0))
        bounds = positive_definite_bounds(Op)
        rho = (bounds.upper - bounds.lower) / (bounds.upper + bounds.lower)
        g = rng.normal(size=d) + 1j * rng.normal(size=d)
        _, trace = richardson_solve(Op, g, bounds)
        assert trace.converged
        # per-step contraction never exceeds the spectral bound; the additive
        # cushion absorbs matvec rounding once residuals are tiny
        path = [1.0] + trace.residuals
        for r_prev, r_next in zip(path, path[1:]):
            assert r_next <= rho * r_prev + 1e-13
        assert trace.empirical_rate <= rho * (1 + 1e-9)


def test_richardson_reports_honest_failure_at_the_cap():
    inst, _, _ = generate_instance("ill-conditioned", 16, cond_target=1e4, seed=1)
    S = frame_operator(inst)
    bounds = positive_definite_bounds(S)
    g = np.ones(16, dtype=complex)
    f, trace = richardson_solve(S, g, bounds, SolverConfig(max_iter=50))
    assert not trace.converged
    assert trace.iterations == 50
    assert trace.residuals[-1] > 1e-8
    assert np.all(np.isfinite(f))


def test_richardson_accepts_custom_relaxation():
    Op = np.diag([1.0, 3.0]).astype(complex)
    g = np.array([1.0, 1.0], dtype=complex)
    _, optimal = richardson_solve(Op, g, (1.0, 3.0))
    _, slower = richardson_solve(Op, g, (1.0, 3.0), SolverConfig(relaxation=1.0 / 3.0))
    assert slower.converged
    assert slower.iterations > optimal.iterations


def test_richardson_input_validation():
    with pytest.raises(NotHermitianError):
        richardson_solve(np.array([[1.0, 1.0], [0.0, 1.0]]), np.ones(2), (1.0, 1.0))
    with pytest.raises(InvalidParametersError):
        richardson_solve(np.eye(2), np.ones(2), (-1.0, 1.0))
    with pytest.raises(InvalidParametersError):
        richardson_solve(np.eye(2), np.ones(2), (0.0, 1.0))
    # OperatorBounds and plain tuples are interchangeable
    f1, _ = richardson_solve(np.eye(2), np.ones(2), OperatorBounds(1.0, 1.0))
    f2, _ = richardson_solve(np.eye(2), np.ones(2), (1.0, 1.0))
    np.testing.assert_array_equal(f1, f2)


@pytest.mark.parametrize("bounds", [(-1.0, 1.0), (0.0, 1.0), (np.inf, 1.0), (2.0, 1.0), (1.0, np.nan), "ab", (1.0,)])
def test_richardson_refuses_a_bad_bounds_pair_as_operator_bounds_does(bounds):
    with pytest.raises(InvalidParametersError):
        richardson_solve(np.eye(2), [1.0, 1.0], bounds)
    if not isinstance(bounds, str) and len(bounds) == 2:
        with pytest.raises(InvalidParametersError):
            OperatorBounds(*bounds)


def test_controlled_solve_with_identity_is_bitwise_plain():
    rng = np.random.default_rng(61)
    frame = random_frame(rng, 6, 13)
    S = frame_operator(frame)
    bounds = positive_definite_bounds(S)
    g = rng.normal(size=6) + 1j * rng.normal(size=6)
    f_plain, t_plain = richardson_solve(S, g, bounds)
    f_ctrl, t_ctrl = controlled_richardson_solve(frame, identity_controller(6), g)
    np.testing.assert_array_equal(f_plain, f_ctrl)
    assert t_plain.residuals == t_ctrl.residuals
    assert t_ctrl.kappa_report == 1.0


def test_controlled_solve_with_exact_inverse_takes_one_iteration():
    rng = np.random.default_rng(62)
    inst, _, _ = generate_instance("ill-conditioned", 12, cond_target=1e3, seed=7)
    S = frame_operator(inst)
    ctrl = make_controller(spectral_function(S, lambda w: 1.0 / w))
    g = rng.normal(size=12) + 1j * rng.normal(size=12)
    f, trace = controlled_richardson_solve(inst, ctrl, g)
    assert trace.converged
    assert trace.iterations == 1
    np.testing.assert_allclose(S @ f, g, atol=1e-8 * np.linalg.norm(g))


def test_controlled_solve_stops_on_the_original_residual():
    rng = np.random.default_rng(63)
    inst, _, _ = generate_instance("ill-conditioned", 10, cond_target=100.0, seed=3)
    S = frame_operator(inst)
    C = spectral_function(S, lambda w: 1.0 / np.sqrt(w))  # partial preconditioner
    ctrl = make_controller(C)
    g = rng.normal(size=10) + 1j * rng.normal(size=10)
    f, trace = controlled_richardson_solve(inst, ctrl, g, SolverConfig(residual_tol=1e-10))
    assert trace.converged
    achieved = np.linalg.norm(S @ f - g) / np.linalg.norm(g)
    assert achieved <= 1e-10  # the tolerance refers to S f = g, not C S f = C g
    np.testing.assert_allclose(trace.kappa_report, ctrl.condition, rtol=1e-12)


def test_controlled_solve_checks_commutation_and_realness():
    rng = np.random.default_rng(64)
    frame = random_frame(rng, 5, 10)
    ctrl = make_controller(random_positive_operator(rng, 5))
    with pytest.raises(NonRealFormError):
        controlled_richardson_solve(frame, ctrl, np.ones(5))


def test_trace_final_residual_meets_the_tolerance():
    rng = np.random.default_rng(67)
    Op = random_positive_operator(rng, 7)
    g = rng.normal(size=7) + 1j * rng.normal(size=7)
    for tol_value in (1e-4, 1e-8, 1e-12):
        _, trace = richardson_solve(
            Op, g, positive_definite_bounds(Op), SolverConfig(residual_tol=tol_value)
        )
        assert trace.converged
        assert trace.residuals[-1] <= tol_value
        if len(trace.residuals) >= 2:
            assert trace.residuals[-2] > tol_value  # stopped at the first crossing


def _true_residual_loop(S, rhs, lam, config, C=None):
    """The single-system Richardson loop that recomputes ``r = rhs - S f`` and
    its norm at every step: the count oracle for the recurrence kernel.

    A column stops at its first residual at or below the tolerance
    (converged) or at its first non-finite residual (diverged)."""
    norm_g = float(np.linalg.norm(rhs))
    if norm_g == 0.0:
        return np.zeros_like(rhs), [], True
    f = np.zeros_like(rhs)
    r = rhs.copy()
    residuals = []
    for _ in range(config.max_iter):
        f = f + lam * (r if C is None else C @ r)
        r = rhs - S @ f
        residuals.append(float(np.linalg.norm(r)) / norm_g)
        if residuals[-1] <= config.residual_tol:
            return f, residuals, True
        if not np.isfinite(residuals[-1]):
            return f, residuals, False
    return f, residuals, False


@np.errstate(over="ignore", invalid="ignore")  # as the kernel: divergence shows in the trace
def _reference_column(S, rhs, lam, config, C=None):
    """One column of the recurrence kernel as a plain per-column loop.

    The residual follows ``r = M r`` with ``M = I - lam S C`` in blocks of 1,
    2, 4, ... 64 updates; each block end replaces it by the true residual
    ``rhs - S f``.  A recurrence residual at or below the tolerance inside a
    block is a candidate: the true residual of its iterate confirms it, or
    refuses it, and then the rest of the block takes true residuals too.  A
    non-finite residual stops the column, not converged.

    Returns ``(f, residuals, converged, refused)``, ``refused`` counting the
    refused candidates."""
    tol = config.residual_tol
    norm_g = float(np.linalg.norm(rhs))
    if norm_g == 0.0:
        return np.zeros_like(rhs), [], True, 0

    def true_residual(f):
        return float(np.linalg.norm(rhs - S @ f)) / norm_g

    M = np.eye(len(rhs)) - lam * (S if C is None else S @ C)
    f, r, residuals, refused = np.zeros_like(rhs), rhs.copy(), [], 0
    done, size = 0, 1
    while done < config.max_iter:
        n = min(size, config.max_iter - done)
        iterates, res, total = [], [], None
        for _ in range(n):
            total = r.copy() if total is None else total + r
            iterates.append(f + lam * (total if C is None else C @ total))
            r = M @ r
            res.append(float(np.linalg.norm(r)) / norm_g)
        r = rhs - S @ iterates[-1]
        res[-1] = float(np.linalg.norm(r)) / norm_g
        true_from = n - 1
        for k in range(n):
            if k < true_from and res[k] <= tol:
                res[k] = true_residual(iterates[k])
                if not res[k] <= tol:
                    refused += 1
                    res[k + 1 : n - 1] = [true_residual(x) for x in iterates[k + 1 : n - 1]]
                    true_from = k
            if res[k] <= tol or not np.isfinite(res[k]):
                return iterates[k], residuals + res[: k + 1], res[k] <= tol, refused
        residuals += res
        f = iterates[-1]
        done += n
        size = min(2 * size, 64)
    return f, residuals, False, refused


def test_stacked_kernel_matches_the_per_column_loop_bit_for_bit():
    rng = np.random.default_rng(68)
    d = 6
    # Plain solves: cond 3 and cond 10 stop inside a block, cond 1e3 exhausts
    # the cap, one right-hand side is zero, and the last column, relaxed far
    # past 2 / B, diverges until its residual norm overflows.
    conds = (3.0, 1e3, 50.0, 10.0, 5.0)
    frames = [generate_instance("ill-conditioned", d, cond_target=c, seed=s)[0] for s, c in enumerate(conds)]
    S = np.stack([frame_operator(fr) for fr in frames])
    rhs = rng.normal(size=(len(conds), d)) + 1j * rng.normal(size=(len(conds), d))
    rhs[2] = 0.0
    config = SolverConfig(max_iter=150)
    controllers = [
        controller_for("jacobi", S[0]),
        identity_controller(d),
        controller_for("jacobi", S[2]),
        make_controller(spectral_function(S[3], lambda w: 1.0 / w)),
        controller_for("jacobi", S[4]),
    ]
    plain_lam = np.array([2.0 / (b.lower + b.upper) for b in map(positive_definite_bounds, S)])
    C = np.stack([ctrl.matrix for ctrl in controllers])
    controlled_lam = np.array([
        2.0 / (b.lower + b.upper)
        for b in (positive_definite_bounds(c @ s) for c, s in zip(C, S))
    ])
    plain_lam[4] *= 1e3
    controlled_lam[4] *= 1e3

    outcomes = set()
    for lam, stack_C in ((plain_lam, None), (controlled_lam, C)):
        f, histories, converged = _richardson_stack(S, rhs, lam, config, C=stack_C)
        for t in range(len(conds)):
            column_C = None if stack_C is None else stack_C[t]
            f_ref, res_ref, ok_ref, _ = _reference_column(S[t], rhs[t], float(lam[t]), config, column_C)
            assert histories[t].dtype == np.float64
            assert histories[t].tolist() == res_ref
            assert np.array_equal(f[t], f_ref)
            assert bool(converged[t]) == ok_ref
            # the T = 1 case the public solvers run
            f_one, trace = _solve_one(S[t], rhs[t], float(lam[t]), config, C=column_C)
            assert np.array_equal(f_one, f_ref)
            assert trace.residuals == res_ref
            assert trace.iterations == len(res_ref)
            assert trace.converged == ok_ref
            assert trace.empirical_rate == _empirical_rate(res_ref)
            outcomes.add((len(res_ref), ok_ref))
    # the stacks held every stopping case: a zero right-hand side, the cap,
    # and columns that stop inside a block (blocks end after 1, 3, 7, ... 127)
    assert (0, True) in outcomes and (150, False) in outcomes
    assert len({n for n, ok in outcomes if ok and n not in (1, 3, 7, 15, 31, 63, 127)}) >= 2
    # the divergent column stopped at its first non-finite residual
    assert any(not ok and n < 150 for n, ok in outcomes)


@pytest.mark.parametrize("d", [1, 2, 5, 33, 64])
def test_lone_column_operands_match_the_per_column_loop_bit_for_bit(d):
    # A stack of one column runs 2-D/1-D operands through np.dot; several
    # columns run stacked matmul.  Relaxations are 2 / (A + B) times a factor:
    # 1 and 0.3 converge, 1e3 diverges and 1e-3 runs alone to the cap once
    # the others have stopped, so the stack shrinks from four columns to one.
    rng = np.random.default_rng(69)
    factors = np.array([1.0, 0.3, 1e3, 1e-3])
    S = np.stack([random_positive_operator(rng, d, spread=(1.0, 4.0)) for _ in factors])
    rhs = rng.normal(size=(len(factors), d)) + 1j * rng.normal(size=(len(factors), d))
    C = np.stack([spectral_function(s, lambda w: 1.0 / np.sqrt(w)) for s in S])
    config = SolverConfig(max_iter=200)
    for stack_C in (None, C):
        Op = S if stack_C is None else C @ S
        lam = factors * np.array([2.0 / (w[0] + w[-1]) for w in np.linalg.eigvalsh(Op)])
        f, histories, converged = _richardson_stack(S, rhs, lam, config, C=stack_C)
        counts = []
        for t in range(len(factors)):
            column_C = None if stack_C is None else stack_C[t]
            f_ref, res_ref, ok_ref, _ = _reference_column(S[t], rhs[t], float(lam[t]), config, column_C)
            assert histories[t].tolist() == res_ref
            assert np.array_equal(f[t], f_ref)
            assert bool(converged[t]) == ok_ref
            # the same column as a stack of one from the start
            f_one, trace = _solve_one(S[t], rhs[t], float(lam[t]), config, C=column_C)
            assert np.array_equal(f_one, f_ref)
            assert trace.residuals == res_ref and trace.converged == ok_ref
            counts.append((len(res_ref), ok_ref))
        (n_fast, ok_fast), (n_slow, ok_slow), (n_div, ok_div), (n_cap, ok_cap) = counts
        assert ok_fast and ok_slow and n_fast < n_slow < 200
        assert not ok_div and n_div < 200 and not np.isfinite(histories[2][-1])
        assert not ok_cap and n_cap == 200 and max(n_fast, n_slow, n_div) < 200


def test_public_solvers_raise_no_warning_for_a_relaxation_that_does_not_contract():
    rng = np.random.default_rng(71)
    frame, _, ctrl = commuting_triple(rng, 6, 12)
    S = frame_operator(frame)
    g = rng.normal(size=6) + 1j * rng.normal(size=6)
    plain = positive_definite_bounds(S)
    controlled = positive_definite_bounds(ctrl.matrix @ S)
    config = SolverConfig(max_iter=500)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, t_plain = richardson_solve(
            S, g, plain, replace(config, relaxation=1e3 * 2.0 / (plain.lower + plain.upper))
        )
        _, t_ctrl = controlled_richardson_solve(
            frame, ctrl, g, replace(config, relaxation=1e3 * 2.0 / (controlled.lower + controlled.upper))
        )
    for trace in (t_plain, t_ctrl):
        assert not trace.converged and trace.iterations < 500
        assert not np.isfinite(trace.residuals[-1])


@pytest.mark.parametrize("controlled", [False, True])
def test_counts_equal_those_of_the_loop_that_takes_every_true_residual(controlled):
    # Recurrence residuals differ from true ones at rounding level; every stop
    # is confirmed on a true residual, so counts and verdicts do not move.
    cases = 0
    for d, cond in product((4, 16, 32), (10.0, 1e2, 1e3)):
        S = frame_operator(generate_instance("ill-conditioned", d, cond_target=cond, seed=d)[0])
        C = controller_for("jacobi", S).matrix if controlled else None
        w = np.linalg.eigvalsh(S if C is None else C @ S)
        lam = 2.0 / (w[0] + w[-1])
        rng = np.random.default_rng(d)
        g = rng.normal(size=d) + 1j * rng.normal(size=d)
        for tol_value in (1e-8, 1e-10, 1e-12):
            config = SolverConfig(residual_tol=tol_value, max_iter=50_000)
            _, trace = _solve_one(S, g, lam, config, C=C)
            _, oracle, ok = _true_residual_loop(S, g, lam, config, C)
            assert (trace.iterations, trace.converged) == (len(oracle), ok)
            assert trace.converged
            cases += 1
    assert cases == 27


@st.composite
def _solves(draw):
    """A system, a controller (none, Jacobi or ``S^{-1/2}``), a tolerance and
    a relaxation: the optimal one, a slower one, one that diverges, or one
    that overflows at once."""
    d = draw(st.integers(2, 12))
    cond = draw(st.sampled_from([2.0, 10.0, 100.0]))
    seed = draw(st.integers(0, 2**32 - 1))
    frame = generate_instance("ill-conditioned", d, cond_target=cond, seed=seed % 1000)[0]
    rng = np.random.default_rng(seed)
    U = haar_unitary(rng, d)
    S = U @ frame_operator(frame) @ U.conj().T  # not diagonal, so Jacobi does not commute
    controller = draw(st.sampled_from(["plain", "jacobi", "inverse-sqrt"]))
    C = {
        "plain": None,
        "jacobi": np.diag(1.0 / np.diag(S).real).astype(complex),
        "inverse-sqrt": spectral_function(S, lambda w: 1.0 / np.sqrt(w)),
    }[controller]
    w = np.linalg.eigvals(S if C is None else C @ S).real
    factor = draw(st.sampled_from([1.0, 0.5, 1e3, 1e300]))
    lam = factor * 2.0 / (w.min() + w.max())
    tol_value = 10.0 ** -draw(st.integers(4, 12))
    g = rng.normal(size=d) + 1j * rng.normal(size=d)
    return S, g, lam, C, tol_value


@settings(derandomize=True, deadline=None, max_examples=80)
@given(_solves())
def test_a_converged_trace_ends_on_the_true_residual_of_its_iterate(solve):
    S, g, lam, C, tol_value = solve
    config = SolverConfig(residual_tol=tol_value, max_iter=20_000)
    f, trace = _solve_one(S, g, lam, config, C=C)
    # the divergence rule: only the last residual may be non-finite
    assert np.isfinite(trace.residuals[:-1]).all()
    if trace.converged:
        assert trace.residuals[-1] == np.linalg.norm(g - S @ f) / np.linalg.norm(g)
        assert trace.residuals[-1] <= tol_value
        assert all(r > tol_value for r in trace.residuals[:-1])
    else:
        # a relaxation that does not contract: stopped at a non-finite residual
        assert not np.isfinite(trace.residuals[-1]) and trace.iterations < 20_000


def test_a_refused_candidate_hands_the_rest_of_its_block_to_true_residuals():
    # Found by search at tol 1e-14: the recurrence residual of update 83 is
    # below the tolerance, the true one (1.009e-14) is not, and the true
    # residual of update 84 confirms the stop, as in the true-residual loop.
    rng = np.random.default_rng(60)
    d = int(rng.integers(2, 17))
    S = random_positive_operator(rng, d, spread=(1.0, 10.0))
    g = rng.normal(size=d) + 1j * rng.normal(size=d)
    w = np.linalg.eigvalsh(S)
    lam = 2.0 / (w[0] + w[-1])
    config = SolverConfig(residual_tol=1e-14, max_iter=20_000)
    f_ref, res_ref, ok_ref, refused = _reference_column(S, g, lam, config)
    assert refused == 1 and ok_ref and len(res_ref) == 84
    f, trace = _solve_one(S, g, lam, config)
    assert np.array_equal(f, f_ref) and trace.residuals == res_ref and trace.converged
    assert 1e-14 < trace.residuals[-2] < 1.1e-14
    assert trace.residuals[-1] == np.linalg.norm(g - S @ f) / np.linalg.norm(g)
    _, oracle, ok = _true_residual_loop(S, g, lam, config)
    assert (len(oracle), ok) == (84, True)


@pytest.mark.parametrize(
    "diagonal, inverse, outside, inside, solution",
    [
        ((2.0**-500, 2.0**-540), (1.0, 2.0**80), 1.0, 2.0**-100, (2.0**900, 2.0**980)),
        ((2.0**520, 2.0**480), (2.0**-80, 1.0), 2.0**-100, 1.0, (2.0**-1040, 2.0**-960)),
    ],
    ids=["small", "large"],
)
def test_controlled_solve_refuses_only_a_solution_outside_the_float_range(diagonal, inverse, outside, inside, solution):
    # The bounds of S are the squares of the diagonal: with a small
    # psd_slack, 2^-1080 underflows to 0.0 and 2^1040 overflows.  The solve
    # runs on S~, and the exact inverse controller solves in one iteration,
    # so only the solution S^-1 g decides: (2^1000, 2^1080) overflows and
    # (2^-1140, 2^-1060) lies below the smallest normal float, while
    # (2^900, 2^980) and (2^-1040, 2^-960), whose largest part is normal,
    # are solved exactly.
    frame, tol = FrameSequence(np.diag(diagonal)), Tolerances(psd_slack=1e-30)
    ctrl = make_controller(np.diag(inverse), tol)
    with pytest.raises(InvalidParametersError, match="the solution lies outside the float range"):
        controlled_richardson_solve(frame, ctrl, outside * np.ones(2), tol=tol)
    f, trace = controlled_richardson_solve(frame, ctrl, inside * np.ones(2), tol=tol)
    assert trace.converged and trace.iterations == 1
    assert np.array_equal(f, solution)


def _motivating_system(scale):
    """The ``ill-conditioned`` instance of ``C^8`` with ``cond(S) = 100`` and
    a right-hand side scaled by ``scale``."""
    frame = generate_instance("ill-conditioned", 8, cond_target=1e2, seed=0)[0]
    rng = np.random.default_rng(0)
    return frame, scale * (rng.normal(size=8) + 1j * rng.normal(size=8))


@pytest.mark.parametrize("scale", [1e-170, 1e-160, 1e200])
@pytest.mark.parametrize("solver", ["richardson", "plain", "jacobi"])
def test_a_right_hand_side_far_from_one_is_solved_as_at_scale_one(scale, solver):
    # Unscaled, ||g||^2 under- or overflowed: 1e-170 gave the zero vector as
    # converged after 0 iterations, 1e-160 a false convergence after 205 and
    # 1e200 a divergence with an overflow warning.
    frame, g = _motivating_system(scale)
    S = frame_operator(frame)
    solve = {
        "richardson": lambda g: richardson_solve(S, g, positive_definite_bounds(S)),
        "plain": lambda g: controlled_richardson_solve(frame, None, g),
        "jacobi": lambda g: controlled_richardson_solve(frame, controller_for("jacobi", S), g),
    }[solver]
    _, reference = solve(_motivating_system(1.0)[1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        f, trace = solve(g)
    assert trace.converged and trace.iterations == reference.iterations
    assert relative_residual(frame.matrix, f, g) <= 1e-8 * (1 + 1e-3)



@pytest.mark.parametrize("k", [-1070, -1029, -600, 600, 1000])
def test_an_operator_far_from_one_is_solved_as_at_scale_one(k):
    # Unscaled, an operator near the subnormal range made 2 / (A + B) inf:
    # diag(1e-310, 2e-310) gave [inf+nanj, inf+nanj] as not converged after
    # one iteration, with residual nan.
    Op, g = np.diag([1.0, 2.0]).astype(complex), np.ones(2, dtype=complex)
    f, trace = richardson_solve(Op, g, (1.0, 2.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        moved_f, moved = richardson_solve(np.diag([2.0**k, 2.0 ** (k + 1)]), 2.0**k * g, (2.0**k, 2.0 ** (k + 1)))
        tiny_f, tiny = richardson_solve(np.diag([1e-310, 2e-310]), 1e-300 * g, (1e-310, 2e-310))
    assert moved == trace and trace.converged and np.array_equal(moved_f, f)
    assert tiny.converged and tiny.iterations == 17
    np.testing.assert_allclose(tiny_f, [1e10, 5e9], rtol=1e-8)

def test_controlled_solve_without_a_controller_is_the_plain_solve():
    frame, g = _motivating_system(1.0)
    S = frame_operator(frame)
    f, trace = controlled_richardson_solve(frame, None, g)
    plain_f, plain = richardson_solve(S, g, positive_definite_bounds(S))
    assert trace == plain and np.array_equal(f, plain_f) and trace.iterations == 873
    config = SolverConfig(relaxation=0.5, max_iter=50)
    f, trace = controlled_richardson_solve(frame, None, g, config)
    plain_f, plain = richardson_solve(S, g, positive_definite_bounds(S), config)
    assert trace == plain and np.array_equal(f, plain_f)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(st.integers(2, 8), st.sampled_from([2.0, 10.0, 100.0]), st.integers(0, 999), st.booleans(),
       st.integers(-1000, 1000), st.integers(-1000, 1000))
def test_power_of_two_rescaling_of_the_family_and_the_right_hand_side_moves_only_the_iterate(
    d, cond, seed, jacobi, j, k
):
    frame = generate_instance("ill-conditioned", d, cond_target=cond, seed=seed)[0]
    ctrl = controller_for("jacobi", frame_operator(frame)) if jacobi else None
    rng = np.random.default_rng(seed)
    g = rng.normal(size=d) + 1j * rng.normal(size=d)
    config = SolverConfig(residual_tol=1e-10, max_iter=20_000)
    f, trace = controlled_richardson_solve(frame, ctrl, g, config)
    expected = _moved(f, j - 2 * k)
    moved_f, moved = controlled_richardson_solve(FrameSequence(_moved(frame.matrix, k)), ctrl, _moved(g, j), config)
    assert moved == trace and moved.residuals == trace.residuals and trace.converged
    assert np.array_equal(moved_f, expected)
