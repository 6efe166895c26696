"""Property tests of the K-frame and controlled K-frame verdicts.

Inputs are in general position: ``K`` is a rank-deficient Gaussian product,
so the frame operator does not leave ``range(K)`` invariant.  Properties:

* Loewner agreement: the operator inequality holds at
  ``lower_opt * (1 - 1e-6)`` and fails at ``lower_opt * (1 + 1e-6)``;
* a family whose span misses part of ``range(K)`` is refused with
  ``lower_opt = 0`` and a witness the inequality fails on;
* the verdict and ``lower_opt`` do not change under a unitary change of
  basis;
* the verdict does not change when the family, ``K`` or ``C`` is rescaled
  by ``s``, ``t`` or ``c`` anywhere in ``10^[-6, 6]``, while ``lower_opt``
  scales as ``s^2 / t^2`` and the controlled ``upper_opt`` as ``c s^2``;
* rescaling ``K`` by a power of two ``2^k`` scales ``lower_opt`` by
  ``4^-k`` and keeps the witness, bit for bit, and the verdict also where
  ``lower_opt`` underflows to ``0.0``;
* rescaling the family by a power of two ``2^k``, ``k`` in
  ``[-1000, 1000]``, scales the frame bounds, ``lower_opt``, ``upper_opt``
  and the controlled ``upper_opt`` by ``4^k`` and keeps the verdicts and
  the witnesses, bit for bit, also where a value leaves the float range;
* rescaling the family by ``2^k``, ``k`` in ``[-500, 500]``, and ``C`` by
  ``2^j``, ``j`` in ``[-1000, 1000]``, while every part stays normal, keeps
  the controlled verdict, ``lower_opt`` up to ``4^k``, the interchange
  verdict and the controlled solve exactly, scales ``upper_opt`` and
  ``controlled_form`` by ``2^(2k + j)`` exactly, and keeps the witness to
  ``1e-14``;
* rescaling the family by ``2^k`` and ``K`` by ``2^j``, ``k`` and ``j`` in
  ``[-1000, 1000]``, while every part and both rescaled optima stay
  normal, keeps each operator-form check exactly: the two Loewner verdicts
  and the sandwich at the moved optima, the restricted inequalities, the
  Rayleigh quotients up to ``4^(k - j)`` and the atomic constant up to
  ``2^(j - k)``; at ``1e+-160`` and ``2^+-600`` on one fixed triple they
  keep their verdicts, and their values to ``1e-12``;
* every other public function that takes a controller keeps its claim
  when ``C`` is rescaled by ``c`` anywhere in ``10^[-6, 6]``, each checked
  against the defining inequality evaluated here with ``eigvalsh``; a
  controlled solve with ``c = 2^k`` is unchanged bit for bit.

Hypothesis draws the sizes, ranks and controller weights; the matrices come
from a numpy generator seeded by the drawn seed.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag

from conftest import moved as _moved
from framekit import (
    FrameSequence,
    NonRealFormError,
    SolverConfig,
    atomic_system_constant,
    bounds_to_controlled,
    bounds_to_kframe,
    controlled_form,
    controlled_kframe_check,
    controlled_operator_inequality,
    controlled_richardson_solve,
    frame_bounds,
    frame_operator,
    interchange_identity_check,
    kframe_check,
    kframe_operator_inequality,
    make_controller,
    numerical_rank,
    rayleigh_quotients,
    restricted_operator_inequalities,
    sandwich_inequality_check,
)
from framekit.instances import commuting_triple, haar_unitary, random_frame, random_positive_operator

PROPERTIES = settings(derandomize=True, deadline=None, max_examples=200)
EPS = 1e-6
DECADES = st.floats(-6.0, 6.0)


def _gaussian(rng, rows, cols):
    return rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))


def _general_k(rng, dim, rank):
    return _gaussian(rng, dim, rank) @ _gaussian(rng, rank, dim) / dim


@st.composite
def general_pairs(draw):
    """A frame and a rank-deficient ``K`` in general position."""
    dim = draw(st.integers(2, 8))
    rank = draw(st.integers(1, dim - 1))
    count = draw(st.integers(dim, 2 * dim + 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return random_frame(rng, dim, count), _general_k(rng, dim, rank)


@st.composite
def spanless_pairs(draw):
    """Fewer vectors than dimensions: ``range(K)`` escapes ``range(S)``."""
    dim = draw(st.integers(2, 8))
    count = draw(st.integers(1, dim - 1))
    rank = draw(st.integers(1, dim - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return FrameSequence(_gaussian(rng, dim, count)), _general_k(rng, dim, rank)


@st.composite
def controlled_triples(draw):
    """Two blocks, each a general-position pair; ``C`` is a scalar per block.

    ``C`` then commutes with ``K`` and with ``S`` while neither block's frame
    operator leaves its block of ``range(K)`` invariant.
    """
    dims = [draw(st.integers(2, 4)) for _ in range(2)]
    ranks = [draw(st.integers(0, d - 1)) for d in dims]
    if sum(ranks) == 0:
        ranks[0] = 1
    weights = [draw(st.floats(0.5, 4.0)) for _ in range(2)]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    F = block_diag(*(random_frame(rng, d, 2 * d).matrix for d in dims))
    K = block_diag(*(_general_k(rng, d, r) for d, r in zip(dims, ranks)))
    C = np.diag(np.repeat(weights, dims)).astype(np.complex128)
    basis = haar_unitary(rng, sum(dims))
    return FrameSequence(basis @ F), basis @ K @ basis.conj().T, basis @ C @ basis.conj().T


def _change_basis(rng, frame, *operators):
    V = haar_unitary(rng, frame.dim)
    return (FrameSequence(V @ frame.matrix), *(V @ T @ V.conj().T for T in operators))


@PROPERTIES
@given(general_pairs())
def test_kframe_verdict_flips_where_the_operator_inequality_does(pair):
    frame, K = pair
    report = kframe_check(frame, K)
    assert report.is_kframe
    assert kframe_operator_inequality(frame, K, report.lower_opt * (1 - EPS))
    assert not kframe_operator_inequality(frame, K, report.lower_opt * (1 + EPS))
    np.testing.assert_allclose(rayleigh_quotients(frame, K, report.witness)[0], report.lower_opt, rtol=1e-9)


@PROPERTIES
@given(spanless_pairs())
def test_range_escaping_the_span_is_refused_with_a_witness(pair):
    frame, K = pair
    report = kframe_check(frame, K)
    assert not report.is_kframe
    assert report.lower_opt == 0.0
    probe = 1e-3 * report.upper_opt / np.linalg.norm(K, 2) ** 2
    assert rayleigh_quotients(frame, K, report.witness)[0] < probe
    assert not kframe_operator_inequality(frame, K, probe)


@PROPERTIES
@given(st.one_of(general_pairs(), spanless_pairs()), st.integers(0, 2**32 - 1))
def test_kframe_verdict_is_invariant_under_a_unitary_change_of_basis(pair, seed):
    frame, K = pair
    report = kframe_check(frame, K)
    moved = kframe_check(*_change_basis(np.random.default_rng(seed), frame, K))
    assert moved.is_kframe == report.is_kframe
    np.testing.assert_allclose(moved.lower_opt, report.lower_opt, rtol=1e-8)


@PROPERTIES
@given(controlled_triples())
def test_controlled_verdict_flips_where_the_operator_inequality_does(triple):
    frame, K, C = triple
    ctrl = make_controller(C)
    report = controlled_kframe_check(frame, K, ctrl)
    assert report.is_controlled_kframe
    assert controlled_operator_inequality(frame, K, ctrl, report.lower_opt * (1 - EPS))
    assert not controlled_operator_inequality(frame, K, ctrl, report.lower_opt * (1 + EPS))


@PROPERTIES
@given(controlled_triples(), st.integers(0, 2**32 - 1))
def test_controlled_verdict_is_invariant_under_a_unitary_change_of_basis(triple, seed):
    frame, K, C = triple
    report = controlled_kframe_check(frame, K, make_controller(C))
    moved_frame, moved_K, moved_C = _change_basis(np.random.default_rng(seed), frame, K, C)
    moved = controlled_kframe_check(moved_frame, moved_K, make_controller(moved_C))
    assert moved.is_controlled_kframe == report.is_controlled_kframe
    np.testing.assert_allclose(moved.lower_opt, report.lower_opt, rtol=1e-8)


@PROPERTIES
@given(st.one_of(general_pairs(), spanless_pairs()), DECADES, DECADES)
def test_kframe_verdict_is_invariant_under_rescaling(pair, s_exp, t_exp):
    frame, K = pair
    s, t = 10.0**s_exp, 10.0**t_exp
    report = kframe_check(frame, K)
    scaled = kframe_check(FrameSequence(s * frame.matrix), t * K)
    assert scaled.is_kframe == report.is_kframe
    assert numerical_rank(t * K) == numerical_rank(K)
    np.testing.assert_allclose(scaled.lower_opt, report.lower_opt * s**2 / t**2, rtol=1e-8)


@PROPERTIES
@given(controlled_triples(), DECADES, DECADES, DECADES)
def test_controlled_verdict_is_invariant_under_rescaling(triple, s_exp, t_exp, c_exp):
    frame, K, C = triple
    s, t, c = 10.0**s_exp, 10.0**t_exp, 10.0**c_exp
    report = controlled_kframe_check(frame, K, make_controller(C))
    scaled = controlled_kframe_check(FrameSequence(s * frame.matrix), t * K, make_controller(c * C))
    assert scaled.is_controlled_kframe == report.is_controlled_kframe
    np.testing.assert_allclose(scaled.lower_opt, report.lower_opt * s**2 / t**2, rtol=1e-8)
    np.testing.assert_allclose(scaled.upper_opt, report.upper_opt * c * s**2, rtol=1e-8)


@PROPERTIES
@given(st.one_of(general_pairs(), spanless_pairs()), st.sampled_from([-300, -40, -7, -1, 1, 9, 33, 200, 600]))
def test_power_of_two_rescaling_of_k_is_exact(pair, k):
    frame, K = pair
    report = kframe_check(frame, K)
    scaled = kframe_check(frame, 2.0**k * K)
    assert scaled.is_kframe == report.is_kframe
    assert scaled.lower_opt == np.ldexp(report.lower_opt, -2 * k)
    assert np.array_equal(scaled.witness, report.witness)


def _ldexp(x, n):
    """``x 2^n`` as a float, ``inf`` above the largest float."""
    with np.errstate(over="ignore"):
        return float(np.ldexp(x, n))


def _with_identity(pair):
    frame, K = pair
    return frame, K, np.eye(frame.dim)


@PROPERTIES
@given(
    st.one_of(general_pairs().map(_with_identity), spanless_pairs().map(_with_identity),
              controlled_triples()),
    st.integers(-1000, 1000),
)
def test_power_of_two_rescaling_of_the_family_is_exact(triple, k):
    frame, K, C = triple
    moved = FrameSequence(_moved(frame.matrix, k))
    bounds, moved_bounds = frame_bounds(frame), frame_bounds(moved)
    assert moved_bounds.upper == _ldexp(bounds.upper, 2 * k)
    assert moved_bounds.lower == (None if bounds.lower is None else _ldexp(bounds.lower, 2 * k))
    report, moved_report = kframe_check(frame, K), kframe_check(moved, K)
    assert moved_report.is_kframe == report.is_kframe
    assert moved_report.lower_opt == _ldexp(report.lower_opt, 2 * k)
    assert moved_report.upper_opt == _ldexp(report.upper_opt, 2 * k)
    assert np.array_equal(moved_report.witness, report.witness)
    ctrl = make_controller(C)
    controlled = controlled_kframe_check(frame, K, ctrl)
    moved_controlled = controlled_kframe_check(moved, K, ctrl)
    assert moved_controlled.is_controlled_kframe == controlled.is_controlled_kframe
    assert moved_controlled.upper_opt == _ldexp(controlled.upper_opt, 2 * k)
    assert np.array_equal(moved_controlled.witness, controlled.witness)


@PROPERTIES
@given(controlled_triples(), st.integers(-500, 500), st.integers(-1000, 1000), st.integers(0, 2**32 - 1))
def test_power_of_two_rescaling_of_the_controller_and_the_family_is_exact(triple, k, j, seed):
    frame, K, C = triple
    moved, ctrl, moved_ctrl = FrameSequence(_moved(frame.matrix, k)), make_controller(C), make_controller(_moved(C, j))
    report, moved_report = controlled_kframe_check(frame, K, ctrl), controlled_kframe_check(moved, K, moved_ctrl)
    assert moved_report.is_controlled_kframe == report.is_controlled_kframe
    assert moved_report.lower_opt == _ldexp(report.lower_opt, 2 * k)
    assert moved_report.upper_opt == _ldexp(report.upper_opt, 2 * k + j)
    if report.witness is not None:
        np.testing.assert_allclose(moved_report.witness, report.witness, rtol=0, atol=1e-14)
    assert interchange_identity_check(moved, moved_ctrl) == interchange_identity_check(frame, ctrl)
    rng = np.random.default_rng(seed)
    f, g = (rng.normal(size=frame.dim) + 1j * rng.normal(size=frame.dim) for _ in range(2))
    assert controlled_form(moved, moved_ctrl, f) == _ldexp(controlled_form(frame, ctrl, f), j + 2 * k)
    # only the controller moves here; test_solvers moves the family and g
    config = SolverConfig(residual_tol=1e-10, max_iter=20_000)
    x, trace = controlled_richardson_solve(frame, ctrl, g, config)
    moved_x, moved_trace = controlled_richardson_solve(frame, moved_ctrl, g, config)
    assert (moved_trace.iterations, moved_trace.converged) == (trace.iterations, trace.converged)
    assert moved_trace.residuals == trace.residuals
    assert np.array_equal(moved_x, x)


def _operator_form_checks(frame, K, ctrl, lower, upper, probes):
    """The six operator-form checks of ``(frame, K, ctrl)`` at the optima
    ``(lower, upper)``: six verdicts, the sandwich's ``None`` when ``upper``
    is, then the Rayleigh quotients of ``probes`` and the atomic constant."""
    verdicts = (
        kframe_operator_inequality(frame, K, lower * (1 - EPS)),
        kframe_operator_inequality(frame, K, lower * (1 + EPS)),
        controlled_operator_inequality(frame, K, ctrl, lower * (1 - EPS)),
        controlled_operator_inequality(frame, K, ctrl, lower * (1 + EPS)),
        None if upper is None else sandwich_inequality_check(frame, K, ctrl, lower * (1 - EPS), upper * (1 + EPS)),
        restricted_operator_inequalities(frame, K),
    )
    return verdicts, rayleigh_quotients(frame, K, probes), atomic_system_constant(frame, K).constant


@PROPERTIES
@given(controlled_triples(), st.integers(-1000, 1000), st.integers(-1000, 1000))
def test_power_of_two_rescaling_of_the_family_and_k_keeps_the_operator_form_checks_exact(triple, k, j):
    frame, K, C = triple
    moved, moved_K, ctrl = FrameSequence(_moved(frame.matrix, k)), _moved(K, j), make_controller(C)
    lower, upper = kframe_check(frame, K).lower_opt, controlled_kframe_check(frame, K, ctrl).upper_opt
    moved_lower, moved_upper = _ldexp(lower, 2 * (k - j)), _ldexp(upper, 2 * k)
    assume(np.finfo(float).tiny <= min(moved_lower, moved_upper) and max(moved_lower, moved_upper) < np.inf)
    probes = np.eye(frame.dim) + 1j * np.ones((frame.dim, frame.dim))
    verdicts, quotients, constant = _operator_form_checks(frame, K, ctrl, lower, upper, probes)
    assert verdicts == (True, False, True, False, True, True)
    moved_verdicts, moved_quotients, moved_constant = _operator_form_checks(
        moved, moved_K, ctrl, moved_lower, moved_upper, probes
    )
    assert moved_verdicts == verdicts
    with np.errstate(over="ignore"):  # a quotient far above lower_opt may move past the largest float
        assert np.array_equal(moved_quotients, np.ldexp(quotients, 2 * (k - j)))
    assert moved_constant == _ldexp(constant, j - k)


@pytest.mark.parametrize("s", [1e160, 1e-160, 2.0**600, 2.0**-600], ids=["1e160", "1e-160", "2^600", "2^-600"])
def test_the_operator_form_checks_keep_their_verdicts_when_s_leaves_the_float_range(s):
    # The family and K are both scaled by s, so lower_opt, the quotients
    # and the atomic constant stay put while S = s^2 S_1 under- or
    # overflows.  At s < 1 the controlled upper_opt is subnormal, so the
    # sandwich, which needs it exactly, is left out there.
    frame, K, ctrl = commuting_triple(np.random.default_rng(0), 4, 8, zero_k=1)
    moved, moved_K = FrameSequence(s * frame.matrix), s * K
    lower, upper = kframe_check(frame, K).lower_opt, controlled_kframe_check(frame, K, ctrl).upper_opt
    moved_lower = kframe_check(moved, moved_K).lower_opt
    moved_upper = controlled_kframe_check(moved, moved_K, ctrl).upper_opt
    probes = np.eye(4) + 1j * np.ones((4, 4))
    verdicts, quotients, constant = _operator_form_checks(frame, K, ctrl, lower, upper, probes)
    moved_verdicts, moved_quotients, moved_constant = _operator_form_checks(
        moved, moved_K, ctrl, moved_lower, moved_upper if s > 1 else None, probes
    )
    assert moved_verdicts == (verdicts if s > 1 else (*verdicts[:4], None, verdicts[5]))
    rtol = 0.0 if np.frexp(s)[0] == 0.5 else 1e-12
    np.testing.assert_allclose((moved_lower, *moved_quotients, moved_constant), (lower, *quotients, constant), rtol=rtol)


def _leq(lhs, rhs):
    """``lhs <= rhs`` in the Loewner order, by ``eigvalsh`` of the difference,
    up to ``1e-9`` times the larger spectral norm."""
    gap = rhs - lhs
    smallest = np.linalg.eigvalsh((gap + gap.conj().T) / 2)[0]
    return bool(smallest >= -1e-9 * max(np.linalg.norm(lhs, 2), np.linalg.norm(rhs, 2)))


def _controlled_sides(frame, K, C):
    """``(K C K*, C S)``: the weight and the operator of the controlled frame inequality."""
    return K @ C @ K.conj().T, C @ frame_operator(frame)


@PROPERTIES
@given(controlled_triples(), DECADES)
def test_bounds_to_kframe_gives_k_frame_bounds_at_every_controller_scale(triple, c_exp):
    frame, K, C = triple
    ctrl = make_controller(10.0**c_exp * C)
    report = controlled_kframe_check(frame, K, ctrl)
    A, B = bounds_to_kframe(report.lower_opt, report.upper_opt, ctrl)
    S = frame_operator(frame)
    assert _leq(A * K @ K.conj().T, S)
    assert _leq(S, B * np.eye(frame.dim))
    unit = make_controller(C)
    unit_report = controlled_kframe_check(frame, K, unit)
    unscaled = bounds_to_kframe(unit_report.lower_opt, unit_report.upper_opt, unit)
    np.testing.assert_allclose((A, B), unscaled, rtol=1e-8)


@PROPERTIES
@given(controlled_triples(), DECADES)
def test_bounds_to_controlled_gives_controlled_bounds_at_every_controller_scale(triple, c_exp):
    frame, K, C = triple
    c = 10.0**c_exp
    plain = kframe_check(frame, K)
    A, B = bounds_to_controlled(plain.lower_opt, plain.upper_opt, make_controller(c * C), K=K)
    weight, L = _controlled_sides(frame, K, c * C)
    assert _leq(A * weight, L)
    assert _leq(L, B * np.eye(frame.dim))
    unscaled = bounds_to_controlled(plain.lower_opt, plain.upper_opt, make_controller(C), K=K)
    np.testing.assert_allclose((A, B), (unscaled[0], c * unscaled[1]), rtol=1e-8)


@PROPERTIES
@given(controlled_triples(), DECADES)
def test_controlled_operator_inequality_is_the_loewner_order_at_every_controller_scale(triple, c_exp):
    frame, K, C = triple
    c = 10.0**c_exp
    lower = controlled_kframe_check(frame, K, make_controller(C)).lower_opt
    ctrl = make_controller(c * C)
    L = c * C @ frame_operator(frame)
    for A, expected in ((lower * (1 - EPS), True), (lower * (1 + EPS), False)):
        verdict = controlled_operator_inequality(frame, K, ctrl, A)
        assert verdict == _leq(A * c * C @ K @ K.conj().T, L) == expected


@PROPERTIES
@given(controlled_triples(), DECADES)
def test_sandwich_inequality_is_both_loewner_comparisons_at_every_controller_scale(triple, c_exp):
    frame, K, C = triple
    c = 10.0**c_exp
    report = controlled_kframe_check(frame, K, make_controller(C))
    ctrl = make_controller(c * C)
    weight, L = _controlled_sides(frame, K, c * C)
    eye = np.eye(frame.dim)
    for a, b in ((1 - EPS, 1 + EPS), (1 + EPS, 1 + EPS), (1 - EPS, 1 - EPS)):
        A, B = report.lower_opt * a, c * report.upper_opt * b
        verdict = sandwich_inequality_check(frame, K, ctrl, A, B)
        assert verdict == (_leq(A * weight, L) and _leq(L, B * eye)) == (a < 1 < b)


@PROPERTIES
@given(controlled_triples(), DECADES, st.integers(0, 2**32 - 1))
def test_controlled_form_scales_with_the_controller_and_obeys_the_frame_inequality(triple, c_exp, seed):
    frame, K, C = triple
    c = 10.0**c_exp
    rng = np.random.default_rng(seed)
    f = rng.normal(size=frame.dim) + 1j * rng.normal(size=frame.dim)
    report = controlled_kframe_check(frame, K, make_controller(C))
    value = controlled_form(frame, make_controller(c * C), f)
    weight, L = _controlled_sides(frame, K, c * C)
    np.testing.assert_allclose(value, np.vdot(f, L @ f).real, rtol=1e-9)
    np.testing.assert_allclose(value, c * controlled_form(frame, make_controller(C), f), rtol=1e-9)
    assert report.lower_opt * np.vdot(f, weight @ f).real <= value * (1 + 1e-9)
    assert value <= c * report.upper_opt * np.vdot(f, f).real * (1 + 1e-9)


@PROPERTIES
@given(controlled_triples(), DECADES, st.integers(0, 2**32 - 1))
def test_interchange_identity_is_commutation_at_every_controller_scale(triple, c_exp, seed):
    frame, _, C = triple
    c = 10.0**c_exp
    F, CF = frame.matrix, c * C @ frame.matrix
    # the two weighted synthesis sums: sum_n <f, f_n> C f_n and sum_n <f, C f_n> f_n
    defect = np.linalg.norm(CF @ F.conj().T - F @ CF.conj().T)
    assert defect <= 1e-9 * np.linalg.norm(c * C) * np.linalg.norm(frame_operator(frame))
    assert interchange_identity_check(frame, make_controller(c * C))
    # a controller in general position does not commute with S: C S is not
    # Hermitian, and the check refuses at every scale
    other = random_positive_operator(np.random.default_rng(seed), frame.dim)
    with pytest.raises(NonRealFormError):
        interchange_identity_check(frame, make_controller(c * other))


@settings(derandomize=True, deadline=None, max_examples=50)
@given(controlled_triples(), DECADES, st.integers(-19, 19), st.integers(0, 2**32 - 1))
def test_controlled_solve_is_exact_under_power_of_two_controller_scaling(triple, c_exp, k, seed):
    frame, _, C = triple
    rng = np.random.default_rng(seed)
    g = rng.normal(size=frame.dim) + 1j * rng.normal(size=frame.dim)
    config = SolverConfig(residual_tol=1e-10, max_iter=20_000)
    f, trace = controlled_richardson_solve(frame, make_controller(C), g, config)
    scaled_f, scaled = controlled_richardson_solve(frame, make_controller(2.0**k * C), g, config)
    assert scaled == trace and scaled.residuals == trace.residuals
    assert np.array_equal(scaled_f, f)
    f, trace = controlled_richardson_solve(frame, make_controller(10.0**c_exp * C), g, config)
    assert trace.converged
    S = frame_operator(frame)
    assert np.linalg.norm(S @ f - g) <= 1e-10 * np.linalg.norm(g) * (1 + 1e-6)
