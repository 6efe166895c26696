"""Controller algebra and controlled K-frame checks.

The direct-summation oracle for the controlled form, the closed-form optimal
bounds on shared-eigenbasis instances, and both bound-transfer directions are
exercised here; the commuting hypotheses are violated on purpose to check the
error paths.
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from framekit import (
    CommutationError,
    Controller,
    FrameSequence,
    InvalidParametersError,
    NonHermitianComparisonError,
    NonRealFormError,
    NotPositiveDefiniteError,
    SolverConfig,
    analysis,
    bounds_to_controlled,
    bounds_to_kframe,
    commutes,
    controlled_form,
    controlled_kframe_check,
    controlled_operator_inequality,
    controlled_richardson_solve,
    controller_for,
    frame_operator,
    identity_controller,
    interchange_identity_check,
    kframe_check,
    kframe_operator_inequality,
    make_controller,
    numerical_rank,
    sandwich_inequality_check,
)
from framekit.instances import (
    c3_example,
    commuting_triple,
    frame_with_spectrum,
    haar_unitary,
    random_frame,
    random_positive_operator,
)
from framekit.operators import hermitian_part, spectral_function


def test_make_controller_caches_the_eigenpairs_and_bounds_of_c():
    rng = np.random.default_rng(40)
    C = random_positive_operator(rng, 5)
    ctrl = make_controller(C)
    w, Q = ctrl._eigh
    np.testing.assert_allclose((Q * w) @ Q.conj().T, C, atol=1e-11)
    w = np.linalg.eigvalsh(C)
    np.testing.assert_allclose((ctrl.bounds.lower, ctrl.bounds.upper), (w[0], w[-1]), rtol=1e-12)
    np.testing.assert_allclose(ctrl.condition, w[-1] / w[0], rtol=1e-12)


def test_make_controller_runs_one_decomposition(linalg_calls):
    C = random_positive_operator(np.random.default_rng(41), 6)
    calls = linalg_calls("eig", "eigh", "eigvals", "eigvalsh", "svd", "qr", "cholesky")
    ctrl = make_controller(C)
    assert [name for name, _ in calls] == ["eigh"]
    # the bounds are read off the same eigenpairs
    ctrl.bounds, ctrl.condition
    assert [name for name, _ in calls] == ["eigh"]


def test_make_controller_rejects_non_positive():
    with pytest.raises(NotPositiveDefiniteError):
        make_controller(np.diag([1.0, -2.0]))
    with pytest.raises(NotPositiveDefiniteError):
        make_controller(np.diag([1.0, 0.0]))


def test_controller_owns_a_read_only_copy_of_its_matrix():
    C = np.diag([1.0, 2.0, 3.0]).astype(complex)
    ctrl = make_controller(C)
    C[0, 0] = -50.0  # the caller's array changes; the certified controller does not
    np.testing.assert_array_equal(ctrl.matrix, np.diag([1.0, 2.0, 3.0]))
    assert (ctrl.bounds.lower, ctrl.bounds.upper) == (1.0, 3.0)
    for array in (ctrl.matrix, ctrl._scaled[0]):
        with pytest.raises(ValueError):
            array[0, 0] = -50.0
    frame = FrameSequence(np.eye(3))
    assert controlled_kframe_check(frame, np.eye(3), ctrl).upper_opt == 3.0
    assert controlled_form(frame, ctrl, [1.0, 0.0, 0.0]) == 1.0


def test_a_controller_is_built_from_its_matrix_alone():
    C = np.array([[2.0, 1j], [-1j, 3.0]])
    assert [f.name for f in dataclasses.fields(Controller) if f.init] == ["matrix"]
    with pytest.raises(TypeError):
        Controller(C, (np.ones(2), np.eye(2)))
    for ctrl in (Controller(C), make_controller(C), identity_controller(4)):
        w, Q = ctrl._eigh
        expected = np.linalg.eigh(hermitian_part(ctrl.matrix))
        assert np.array_equal(w, expected[0]) and np.array_equal(Q, expected[1])
        assert ctrl._eigh is ctrl._eigh  # computed once, then cached
        for array in (w, Q):
            with pytest.raises(ValueError):
                array[0] = 0.0


def test_identity_controller_is_trivial():
    ctrl = identity_controller(3)
    np.testing.assert_array_equal(ctrl.matrix, np.eye(3))
    assert ctrl.bounds.lower == ctrl.bounds.upper == 1.0
    assert ctrl.dim == 3


def test_commutes_predicate():
    diag = make_controller(np.diag([1.0, 2.0, 3.0]))
    assert commutes(diag, np.diag([4.0, 5.0, 6.0]))
    K = np.zeros((3, 3))
    K[0, 1] = 1.0
    assert not commutes(diag, K)  # shift does not commute with a generic diagonal


def test_commutes_decides_the_same_after_rescaling():
    _, K, ctrl = commuting_triple(np.random.default_rng(45), 5, 10)
    shift = np.diag(np.ones(4), 1).astype(complex)
    diag = make_controller(np.diag([1.0, 2.0, 3.0, 4.0, 5.0]))
    for scale in (1e-6, 1.0, 1e6):
        assert commutes(make_controller(scale * ctrl.matrix), scale * K)
        assert not commutes(make_controller(scale * diag.matrix), scale * shift)
    assert commutes(ctrl, np.zeros((5, 5)))


def test_commutes_and_the_controlled_verdict_hold_for_a_huge_k():
    # ||K||_F of 1e300 * K0 overflows unless K is scaled first, which made
    # every such K pass as commuting
    shift = 1e300 * np.diag(np.ones(3), 1)
    diag = make_controller(np.diag([1.0, 2.0, 3.0, 4.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not commutes(diag, shift)
        assert commutes(diag, 1e300 * np.diag([4.0, 3.0, 2.0, 1.0]))
        report = controlled_kframe_check(FrameSequence(np.eye(4)), 2.0**700 * np.eye(4), diag)
    assert report.is_controlled_kframe and report.lower_opt == 0.0  # 2^-1400 underflows


def test_a_huge_controller_that_does_not_commute_with_s_is_refused_with_a_finite_defect():
    # C S of norm 1e300 overflows the Frobenius norms of the Hermiticity test
    # and of the reported defect unless C S is scaled first
    ctrl = make_controller(1e300 * np.array([[2.0, 1.0], [1.0, 2.0]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonRealFormError, match=r"relative defect \d"):
            controlled_kframe_check(FrameSequence(np.diag([1.0, 2.0])), np.eye(2), ctrl)


def test_a_controller_near_the_largest_float_has_its_own_bounds():
    # hermitian_part(C) of 1e308 * C0 overflows unless C is scaled first:
    # the bounds came out (nan, nan) and make_controller refused C
    C = 1e308 * np.diag([1.0, 1.5, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ctrl = make_controller(C)
        report = controlled_kframe_check(FrameSequence(np.eye(3)), np.eye(3), ctrl)
        assert controlled_form(FrameSequence(np.eye(3)), ctrl, [0.0, 1.0, 0.0]) == C[1, 1]
    assert (ctrl.bounds.lower, ctrl.bounds.upper) == (C[0, 0], C[1, 1])
    assert report.is_controlled_kframe and report.upper_opt == C[1, 1]


def test_controlled_form_direct_summation_oracle():
    rng = np.random.default_rng(42)
    for scale in np.repeat([1.0, 2.0**-500, 2.0**500], 10):
        d = int(rng.integers(3, 7))
        frame, _, ctrl = commuting_triple(rng, d, 2 * d)
        f = rng.normal(size=d) + 1j * rng.normal(size=d)
        value = controlled_form(frame, ctrl, scale * f) / scale**2
        # sum_n <f, f_n> <C f_n, f>, everything in the first-linear convention
        coeffs = analysis(frame, f)
        paired = np.array([np.vdot(f, ctrl.matrix @ frame.matrix[:, n]) for n in range(frame.count)])
        oracle = np.sum(coeffs * paired)
        assert abs(oracle.imag) < 1e-10 * max(1.0, abs(oracle))
        np.testing.assert_allclose(value, oracle.real, rtol=1e-10)


def test_controlled_form_rejects_materially_complex_values():
    # C and S that do not commute make <CSf, f> genuinely complex for some f
    frame = FrameSequence(np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex))
    ctrl = make_controller(np.diag([1.0, 4.0]))
    S = frame_operator(frame)
    assert not commutes(ctrl, S)
    f = np.array([1.0, 1j])
    assert abs(np.vdot(f, ctrl.matrix @ S @ f).imag) > 0.1  # sanity: truly complex
    for scale in (1.0, 1e-160, 1e160):
        with pytest.raises(NonRealFormError):
            controlled_form(frame, ctrl, scale * f)


def test_identity_controller_reduces_to_plain_kframe_check():
    rng = np.random.default_rng(43)
    frame, K, _ = commuting_triple(rng, 6, 12)
    plain = kframe_check(frame, K)
    controlled = controlled_kframe_check(frame, K, identity_controller(6))
    assert controlled.is_controlled_kframe == plain.is_kframe
    np.testing.assert_allclose(controlled.lower_opt, plain.lower_opt, rtol=1e-12)
    np.testing.assert_allclose(controlled.upper_opt, plain.upper_opt, rtol=1e-12)


def test_scaling_the_controller_scales_only_the_upper_bound():
    rng = np.random.default_rng(44)
    frame, K, ctrl = commuting_triple(rng, 5, 10)
    base = controlled_kframe_check(frame, K, ctrl)
    scaled = controlled_kframe_check(frame, K, make_controller(3.0 * ctrl.matrix))
    assert scaled.is_controlled_kframe == base.is_controlled_kframe
    np.testing.assert_allclose(scaled.lower_opt, base.lower_opt, rtol=1e-9)
    np.testing.assert_allclose(scaled.upper_opt, 3.0 * base.upper_opt, rtol=1e-9)


def test_a_large_controller_keeps_a_small_lower_bound_a_controlled_kframe():
    # lower_opt ~ 5e-9 here; the controlled verdict must stay the plain one
    # however large C is, since C does not enter the lower constant
    frame, K, ctrl = commuting_triple(np.random.default_rng(3), 6, 12, zero_k=2)
    K = 1e4 * K
    plain = kframe_check(frame, K)
    assert plain.is_kframe
    for scale in (1.0, 1e3, 1e6):
        report = controlled_kframe_check(frame, K, make_controller(scale * ctrl.matrix))
        assert report.is_controlled_kframe
        assert report.lower_opt == plain.lower_opt


def test_controlled_bounds_closed_form_on_shared_eigenbasis():
    rng = np.random.default_rng(45)
    for _ in range(10):
        d = int(rng.integers(3, 8))
        frame, K, ctrl = commuting_triple(rng, d, 2 * d)
        report = controlled_kframe_check(frame, K, ctrl)
        S = frame_operator(frame)
        w, Q = np.linalg.eigh(S)
        c_diag = np.real(np.diag(Q.conj().T @ ctrl.matrix @ Q))
        k_diag = np.real(np.diag(Q.conj().T @ K @ Q))
        mask = np.abs(k_diag) > 1e-8
        # the controller weight cancels in the quotient, the upper bound picks it up
        np.testing.assert_allclose(report.lower_opt, np.min(w[mask] / k_diag[mask] ** 2), rtol=1e-8)
        np.testing.assert_allclose(report.upper_opt, np.max(c_diag * w), rtol=1e-8)
        # and therefore matches the plain optimal lower bound
        np.testing.assert_allclose(report.lower_opt, kframe_check(frame, K).lower_opt, rtol=1e-8)


def test_controlled_check_requires_commutation():
    rng = np.random.default_rng(46)
    frame = random_frame(rng, 4, 8)
    ctrl = make_controller(random_positive_operator(rng, 4))
    K = random_positive_operator(rng, 4)
    assert not commutes(ctrl, K)
    with pytest.raises(CommutationError):
        controlled_kframe_check(frame, K, ctrl)


def test_controlled_check_requires_real_form():
    # commuting with K but not with S: K = I keeps commutation trivially true
    rng = np.random.default_rng(47)
    frame = random_frame(rng, 4, 8)
    ctrl = make_controller(random_positive_operator(rng, 4))
    with pytest.raises(NonRealFormError):
        controlled_kframe_check(frame, np.eye(4), ctrl)


def test_rank_zero_k_is_vacuous_in_the_controlled_setting_too():
    rng = np.random.default_rng(48)
    frame, _, ctrl = commuting_triple(rng, 4, 8)
    report = controlled_kframe_check(frame, np.zeros((4, 4)), ctrl)
    assert report.vacuous and report.is_controlled_kframe
    assert report.lower_opt == 0.0


def test_resolvent_controller_preserves_the_lower_bound():
    # C = c (S + I)^{-1} commutes with S; the weight cancels in the quotient
    rng = np.random.default_rng(49)
    frame, K, _ = commuting_triple(rng, 5, 11)
    S = frame_operator(frame)
    C = spectral_function(S, lambda w: 2.5 / (w + 1.0))
    ctrl = make_controller(C)
    report = controlled_kframe_check(frame, K, ctrl)
    plain = kframe_check(frame, K)
    assert report.is_controlled_kframe
    np.testing.assert_allclose(report.lower_opt, plain.lower_opt, rtol=1e-8)


def test_controlled_operator_inequality_flips_at_lower_opt():
    rng = np.random.default_rng(50)
    frame, K, ctrl = commuting_triple(rng, 6, 12)
    lower = controlled_kframe_check(frame, K, ctrl).lower_opt
    assert controlled_operator_inequality(frame, K, ctrl, 0.5 * lower)
    assert not controlled_operator_inequality(frame, K, ctrl, 2.0 * lower)


def test_controlled_operator_inequality_refuses_non_hermitian_sides():
    rng = np.random.default_rng(51)
    frame = random_frame(rng, 4, 8)
    ctrl = make_controller(random_positive_operator(rng, 4))
    with pytest.raises(NonRealFormError):  # C S is not Hermitian
        controlled_operator_inequality(frame, np.eye(4), ctrl, 0.1)
    frame, _, ctrl = commuting_triple(rng, 4, 8)
    with pytest.raises(NonHermitianComparisonError):  # C S is, but C K K* is not
        controlled_operator_inequality(frame, random_positive_operator(rng, 4), ctrl, 0.1)


def test_sandwich_inequality_at_certified_bounds():
    rng = np.random.default_rng(52)
    frame, K, ctrl = commuting_triple(rng, 5, 10)
    report = controlled_kframe_check(frame, K, ctrl)
    assert sandwich_inequality_check(frame, K, ctrl, report.lower_opt, report.upper_opt)
    # tightening either side within the shared-eigenbasis structure breaks it
    assert not sandwich_inequality_check(frame, K, ctrl, 1.5 * report.lower_opt, report.upper_opt)
    assert not sandwich_inequality_check(frame, K, ctrl, report.lower_opt, 0.7 * report.upper_opt)


_LOEWNER_CHECKS = {
    "plain": lambda frame, K, ctrl, A: kframe_operator_inequality(frame, K, A),
    "controlled": lambda frame, K, ctrl, A: controlled_operator_inequality(frame, K, ctrl, A),
    "sandwich": lambda frame, K, ctrl, A: sandwich_inequality_check(frame, K, ctrl, A, 1e3),
}


@pytest.mark.parametrize("A", [0.0, -1.0, math.inf, math.nan])
@pytest.mark.parametrize("check", sorted(_LOEWNER_CHECKS))
def test_the_loewner_checks_refuse_a_candidate_bound_that_is_not_finite_and_positive(check, A):
    frame, K, ctrl = commuting_triple(np.random.default_rng(0), 4, 8, zero_k=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidParametersError, match="the candidate lower bound must be positive"):
            _LOEWNER_CHECKS[check](frame, K, ctrl, A)


def test_bounds_transfer_to_plain_kframe_bounds():
    rng = np.random.default_rng(53)
    for _ in range(10):
        d = int(rng.integers(3, 8))
        frame, K, ctrl = commuting_triple(rng, d, 2 * d)
        creport = controlled_kframe_check(frame, K, ctrl)
        plain = kframe_check(frame, K)
        A_t, B_t = bounds_to_kframe(creport.lower_opt, creport.upper_opt, ctrl)
        # valid (generally not optimal) plain bounds
        assert A_t <= plain.lower_opt * (1 + 1e-9)
        assert B_t >= plain.upper_opt * (1 - 1e-9)


@pytest.mark.parametrize("scale", [1.0, 2.0**-10, 1e-3, 1e-2, 1e3])
def test_transferred_lower_bound_is_valid_at_every_controller_scale(scale):
    # at scale 1e-2, lambda_max(C) = 0.024 and A / lambda_max(C) = 8.40, which
    # kframe_operator_inequality rejects; the plain optimum is 0.2016
    frame, K, ctrl = commuting_triple(np.random.default_rng(0), 6, 12)
    scaled = make_controller(scale * ctrl.matrix)
    creport = controlled_kframe_check(frame, K, scaled)
    A_t, B_t = bounds_to_kframe(creport.lower_opt, creport.upper_opt, scaled)
    plain = kframe_check(frame, K)
    assert A_t == creport.lower_opt == plain.lower_opt
    np.testing.assert_allclose(A_t, 0.2016, rtol=1e-3)
    assert kframe_operator_inequality(frame, K, A_t)
    assert B_t >= plain.upper_opt * (1 - 1e-9)


def test_bounds_transfer_from_plain_kframe_bounds():
    rng = np.random.default_rng(54)
    for _ in range(10):
        d = int(rng.integers(3, 8))
        frame, K, ctrl = commuting_triple(rng, d, 2 * d)
        plain = kframe_check(frame, K)
        creport = controlled_kframe_check(frame, K, ctrl)
        A_c, B_c = bounds_to_controlled(plain.lower_opt, plain.upper_opt, ctrl, K=K)
        assert A_c <= creport.lower_opt * (1 + 1e-9)
        assert B_c >= creport.upper_opt * (1 - 1e-9)
        np.testing.assert_allclose(B_c, plain.upper_opt * np.linalg.norm(ctrl.matrix, 2), rtol=1e-12)


def test_bounds_to_controlled_checks_commutation_when_k_is_given():
    rng = np.random.default_rng(55)
    ctrl = make_controller(random_positive_operator(rng, 4))
    K = random_positive_operator(rng, 4)
    with pytest.raises(CommutationError):
        bounds_to_controlled(1.0, 2.0, ctrl, K=K)
    # without K the arithmetic goes through
    A_c, B_c = bounds_to_controlled(1.0, 2.0, ctrl)
    assert A_c == 1.0 and B_c > 2.0


def test_interchange_identity_on_commuting_and_non_commuting_pairs():
    rng = np.random.default_rng(56)
    frame, _, ctrl = commuting_triple(rng, 5, 10)
    assert interchange_identity_check(frame, ctrl)
    other = make_controller(random_positive_operator(rng, 5))
    with pytest.raises(NonRealFormError):
        interchange_identity_check(frame, other)


def _ideal_controller(dim, seed):
    """A frame with ``cond(S) = 1e8`` in a Haar basis, its exact-inverse
    controller and the generator that drew them."""
    rng = np.random.default_rng(seed)
    frame = frame_with_spectrum(rng, dim, 2 * dim, np.geomspace(1.0, 1e-4, dim))
    return frame, controller_for("exact-inverse", frame_operator(frame)), rng


@pytest.mark.parametrize("dim", [16, 64])
def test_the_exact_inverse_of_an_ill_conditioned_frame_operator_is_a_controller(dim):
    # C = S^-1 rounds to a C S whose defect is about u ||C|| ||S||, which is
    # cond(S) = 1e8 times u ||C S||: a slack relative to ||C S|| refused it
    frame, ctrl, rng = _ideal_controller(dim, 60)
    K = np.eye(dim)
    report = controlled_kframe_check(frame, K, ctrl)
    lower, upper = report.lower_opt, report.upper_opt
    assert report.is_controlled_kframe and lower == kframe_check(frame, K).lower_opt
    assert controlled_operator_inequality(frame, K, ctrl, 0.5 * lower)
    assert not controlled_operator_inequality(frame, K, ctrl, 2.0 * lower)
    assert sandwich_inequality_check(frame, K, ctrl, 0.5 * lower, 2.0 * upper)
    assert not sandwich_inequality_check(frame, K, ctrl, 0.5 * lower, 0.5 * upper)
    assert interchange_identity_check(frame, ctrl)
    g = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    f, trace = controlled_richardson_solve(frame, ctrl, g)
    reference = np.linalg.solve(frame_operator(frame), g)
    assert trace.converged
    assert np.linalg.norm(f - reference) <= SolverConfig().residual_tol * np.linalg.norm(reference)


def _every_check_of_c_s(frame, ctrl):
    K = np.eye(frame.dim)
    return [
        lambda: controlled_kframe_check(frame, K, ctrl),
        lambda: controlled_operator_inequality(frame, K, ctrl, 0.1),
        lambda: sandwich_inequality_check(frame, K, ctrl, 0.1, 10.0),
        lambda: interchange_identity_check(frame, ctrl),
        lambda: controlled_richardson_solve(frame, ctrl, np.ones(frame.dim)),
    ]


@pytest.mark.parametrize("scale", [2.0**-600, 1.0, 2.0**600], ids=["2^-600", "1", "2^600"])
def test_a_controller_that_does_not_commute_with_s_is_refused_at_every_scale(scale):
    rng = np.random.default_rng(61)
    frame = random_frame(rng, 5, 10)
    ctrl = make_controller(scale * random_positive_operator(rng, 5))
    assert not commutes(ctrl, frame_operator(frame))
    for check in _every_check_of_c_s(frame, ctrl):
        with pytest.raises(NonRealFormError):
            check()


@pytest.mark.parametrize("size, refused", [(1e-6, True), (1e-8, True), (1e-11, False)])
def test_the_exact_inverse_with_a_hermitian_perturbation(size, refused):
    # A perturbation of relative size 1e-6 breaks positivity too, so C is
    # wrapped uncertified: only commutation is under test.
    frame, ideal, rng = _ideal_controller(16, 62)
    E = hermitian_part(rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16)))
    C = ideal.matrix + size * np.linalg.norm(ideal.matrix, 2) / np.linalg.norm(E, 2) * E
    ctrl = Controller(C)
    assert commutes(ctrl, frame_operator(frame)) is not refused
    if refused:
        with pytest.raises(NonRealFormError):
            controlled_kframe_check(frame, np.eye(16), ctrl)
    else:
        assert controlled_kframe_check(frame, np.eye(16), ctrl).is_controlled_kframe


def test_c3_controlled_with_identity_matches_plain_bounds():
    frame, K, ctrl = c3_example()
    report = controlled_kframe_check(frame, K, ctrl)
    assert report.is_controlled_kframe
    np.testing.assert_allclose(report.lower_opt, 1.0, rtol=1e-12)
    np.testing.assert_allclose(report.upper_opt, 2.0, rtol=1e-12)


# ---------------------------------------------------------------------------
# a family and a controller scaled far apart: formed as is, their product
# C S under- or overflows


def _scaled_triple(k, j):
    """A commuting triple with the family scaled by ``2^k`` and ``C`` by ``2^j``."""
    frame, K, ctrl = commuting_triple(np.random.default_rng(0), 4, 8, zero_k=0)
    moved = FrameSequence(np.ldexp(frame.matrix.view(np.float64), k).view(np.complex128))
    return frame, moved, K, ctrl, make_controller(np.ldexp(ctrl.matrix.view(np.float64), j).view(np.complex128))


def test_a_family_and_a_controller_whose_product_underflows_are_certified():
    # C S of the scaled operands is about 2^-1050, subnormal: formed as is,
    # its rounding read as a Hermiticity defect of 5e-8
    frame, moved, K, ctrl, tiny = _scaled_triple(-100, -850)
    report, plain = controlled_kframe_check(moved, K, tiny), controlled_kframe_check(frame, K, ctrl)
    assert report.is_controlled_kframe
    assert report.lower_opt == math.ldexp(plain.lower_opt, -200)
    assert report.upper_opt == math.ldexp(plain.upper_opt, -1050)  # rounded to a subnormal
    assert interchange_identity_check(moved, tiny)
    A, B = report.lower_opt, report.upper_opt
    assert controlled_operator_inequality(moved, K, tiny, A * (1 - 1e-6))
    assert not controlled_operator_inequality(moved, K, tiny, A * (1 + 1e-6))
    assert sandwich_inequality_check(moved, K, tiny, A * (1 - 1e-6), B * (1 + 1e-6))
    assert not sandwich_inequality_check(moved, K, tiny, A * (1 - 1e-6), B * (1 - 1e-6))
    g = np.ones(4)
    x, trace = controlled_richardson_solve(moved, tiny, g)
    x_at_c, trace_at_c = controlled_richardson_solve(moved, ctrl, g)
    assert trace.converged and trace.iterations == 55
    assert trace.residuals == trace_at_c.residuals
    assert np.array_equal(x, x_at_c)


def test_a_family_and_a_controller_whose_product_overflows_are_certified_without_warnings():
    frame, moved, K, ctrl, huge = _scaled_triple(100, 830)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = controlled_kframe_check(moved, K, huge)
        assert interchange_identity_check(moved, huge)
        assert controlled_operator_inequality(moved, K, huge, report.lower_opt * (1 - 1e-6))
        assert not controlled_operator_inequality(moved, K, huge, report.lower_opt * (1 + 1e-6))
        # lambda_max(C S) exceeds the largest float, so no float B bounds C S
        assert not sandwich_inequality_check(moved, K, huge, report.lower_opt * (1 - 1e-6), np.finfo(float).max)
    plain = controlled_kframe_check(frame, K, ctrl)
    assert report.is_controlled_kframe and report.upper_opt == math.inf
    assert report.lower_opt == math.ldexp(plain.lower_opt, 200)


@pytest.mark.parametrize("B", [0.0, -1.0, -math.inf, math.nan])
def test_sandwich_refuses_a_candidate_upper_bound_that_is_not_positive(B):
    # -inf warned from -inf * I, nan was refused as a "matrix" the caller
    # did not pass, and 0 or -1 returned False
    frame, K, ctrl = commuting_triple(np.random.default_rng(0), 4, 8, zero_k=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidParametersError, match="the candidate upper bound must be positive"):
            sandwich_inequality_check(frame, K, ctrl, 0.1, B)


def test_sandwich_with_an_infinite_upper_bound_holds_on_the_upper_side():
    # the certified upper_opt of this triple is inf, which bounds every
    # operator: the upper comparison holds and inf * I is never formed
    _, moved, K, _, huge = _scaled_triple(100, 830)
    report = controlled_kframe_check(moved, K, huge)
    assert report.upper_opt == math.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert sandwich_inequality_check(moved, K, huge, report.lower_opt * (1 - 1e-6), report.upper_opt)
        assert not sandwich_inequality_check(moved, K, huge, report.lower_opt * (1 + 1e-6), report.upper_opt)


# ---------------------------------------------------------------------------
# the equivalence theorem: under C K = K C and C S = S C the controlled
# optimum is the plain one, attained at the plain witness pulled back
# through C^{-1/2}


def _deficient_triple(rng, dim):
    """``deficient_pair``'s construction plus a controller commuting with K and S.

    ``K`` is diagonal on a random basis, the family spans only its first
    ``r - 1`` directions, and ``C`` is diagonal on the same basis and scalar
    on the family's span.
    """
    basis = haar_unitary(rng, dim)
    r = int(rng.integers(2, dim + 1))
    k_spec = np.zeros(dim)
    k_spec[:r] = rng.uniform(0.5, 2.0, size=r)
    inner = random_frame(rng, r - 1, 2 * r)
    frame = FrameSequence(basis[:, : r - 1] @ inner.matrix)
    c_spec = rng.uniform(0.5, 4.0, size=dim)
    c_spec[: r - 1] = c_spec[0]
    ctrl = make_controller((basis * c_spec) @ basis.conj().T)
    return frame, (basis * k_spec) @ basis.conj().T, ctrl


def _controlled_quotient(frame, K, ctrl, f):
    """``<C S f, f>`` and ``||C^{1/2} K* f||^2``."""
    numerator = np.vdot(f, ctrl.matrix @ frame_operator(frame) @ f).real
    w, Q = np.linalg.eigh(ctrl.matrix)
    return numerator, np.linalg.norm((Q * np.sqrt(w)) @ Q.conj().T @ K.conj().T @ f) ** 2


def _assert_theorem(frame, K, ctrl):
    plain = kframe_check(frame, K)
    report = controlled_kframe_check(frame, K, ctrl)
    assert report.lower_opt == plain.lower_opt
    assert report.vacuous == plain.vacuous
    if plain.witness is not None:
        w, Q = np.linalg.eigh(ctrl.matrix)
        pulled_back = (Q / np.sqrt(w)) @ Q.conj().T @ plain.witness
        np.testing.assert_allclose(report.witness, pulled_back / np.linalg.norm(pulled_back), atol=1e-12)
    return plain, report


@pytest.mark.parametrize("rank_share", [1.0, 0.75, 0.5])
def test_controlled_optimum_is_the_plain_optimum_on_commuting_triples(rank_share):
    rng = np.random.default_rng(int(100 * rank_share))
    for dim in (4, 8, 12, 16):
        frame, K, ctrl = commuting_triple(rng, dim, 2 * dim, zero_k=dim - round(rank_share * dim))
        plain, report = _assert_theorem(frame, K, ctrl)
        assert numerical_rank(K) == round(rank_share * dim)
        assert report.is_controlled_kframe and plain.is_kframe
        numerator, denominator = _controlled_quotient(frame, K, ctrl, report.witness)
        np.testing.assert_allclose(numerator / denominator, report.lower_opt, rtol=1e-9)
        np.testing.assert_allclose(np.linalg.norm(report.witness), 1.0, rtol=1e-12)


def test_controlled_witness_stays_finite_for_a_subnormal_controller():
    # C^{-1/2} is about 1e160 here, so the squared norm of the pulled-back
    # witness overflows unless the vector is scaled before it is normalised
    frame = FrameSequence(np.eye(3, dtype=complex))
    K = np.eye(3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = controlled_kframe_check(frame, K, make_controller(1e-320 * np.eye(3)))
    plain = kframe_check(frame, K)
    assert np.isfinite(report.witness).all()
    np.testing.assert_allclose(np.linalg.norm(report.witness), 1.0, rtol=1e-15)
    # C is scalar, so the pull-back only rescales: parallel to the plain witness
    np.testing.assert_allclose(abs(np.vdot(plain.witness, report.witness)), 1.0, rtol=1e-15)
    assert report.lower_opt == plain.lower_opt == 1.0


def test_controlled_optimum_is_zero_with_a_null_witness_on_deficient_triples():
    rng = np.random.default_rng(60)
    for dim in (3, 5, 8, 13):
        frame, K, ctrl = _deficient_triple(rng, dim)
        plain, report = _assert_theorem(frame, K, ctrl)
        assert report.lower_opt == 0.0
        assert not report.is_controlled_kframe and not plain.is_kframe
        numerator, denominator = _controlled_quotient(frame, K, ctrl, report.witness)
        assert abs(numerator) <= 1e-12 * ctrl.bounds.upper * plain.upper_opt
        assert denominator > 1e-3


def test_controlled_report_for_zero_k_matches_the_plain_vacuous_report():
    rng = np.random.default_rng(61)
    frame, _, ctrl = commuting_triple(rng, 6, 12)
    plain, report = _assert_theorem(frame, np.zeros((6, 6)), ctrl)
    assert report.vacuous and report.is_controlled_kframe
    assert report.witness is None and plain.witness is None
