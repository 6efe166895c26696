"""K-frame layer tests.

Oracles: on instances whose ``K`` and frame operator share an eigenbasis the
optimal lower bound has the closed form ``min s_i / k_i^2`` over nonzero
``k_i``; for invertible ``K`` it is the smallest eigenvalue of the
generalized eigenproblem ``(S, K K*)`` from ``scipy``; the atomic constant is
reproduced with ``lstsq`` minimal-norm solves column by column.
"""

import dataclasses
import json
import warnings

import numpy as np
import pytest
import scipy.linalg

from framekit import (
    ControlledReport,
    DimensionMismatchError,
    FrameSequence,
    InvalidParametersError,
    KFrameReport,
    NotOrthonormalError,
    PreconditionFailedError,
    RangeDeficiencyError,
    Tolerances,
    atomic_system_constant,
    bessel_dual_check,
    construct_kframe,
    controlled_kframe_check,
    controlled_operator_inequality,
    frame_bounds,
    frame_operator,
    interchange_dual,
    kframe_check,
    kframe_operator_inequality,
    load_operator,
    make_controller,
    numerical_rank,
    operator_leq,
    operator_sqrt,
    pseudo_inverse,
    rayleigh_quotients,
    restricted_operator_inequalities,
    sandwich_inequality_check,
    save_frame,
    save_operator,
    synthesis,
)
from framekit.cli import main
from framekit.instances import (
    c3_example,
    commuting_triple,
    deficient_pair,
    haar_unitary,
    parseval_frame,
    random_frame,
    random_positive_operator,
)


def spectral_data(frame, K):
    """Eigenvalues of S and of K on the shared eigenbasis of S."""
    S = frame_operator(frame)
    w, Q = np.linalg.eigh(S)
    k_diag = np.real(np.diag(Q.conj().T @ K @ Q))
    return w, k_diag


# ---------------------------------------------------------------------------
# the worked example on C^3


def test_c3_example_report_values():
    frame, K, _ = c3_example()
    report = kframe_check(frame, K)
    assert report.is_kframe
    assert not report.vacuous
    assert numerical_rank(K) == 2
    np.testing.assert_allclose(report.lower_opt, 1.0, rtol=1e-12)
    np.testing.assert_allclose(report.upper_opt, 2.0, rtol=1e-12)
    # S = K K* = diag(2, 1, 0) exactly
    np.testing.assert_array_equal(frame_operator(frame), np.diag([2.0, 1.0, 0.0]))


def test_c3_witness_attains_the_minimum():
    frame, K, _ = c3_example()
    report = kframe_check(frame, K)
    q = rayleigh_quotients(frame, K, report.witness)
    np.testing.assert_allclose(q[0], report.lower_opt, rtol=1e-10)


# ---------------------------------------------------------------------------
# optimal lower bound: two independent oracles


def test_lower_bound_matches_spectral_formula_on_shared_eigenbasis():
    rng = np.random.default_rng(20)
    for _ in range(15):
        d = int(rng.integers(3, 9))
        frame, K, _ = commuting_triple(rng, d, 2 * d + 1)
        report = kframe_check(frame, K)
        w, k_diag = spectral_data(frame, K)
        mask = np.abs(k_diag) > 1e-8
        predicted = np.min(w[mask] / k_diag[mask] ** 2)
        np.testing.assert_allclose(report.lower_opt, predicted, rtol=1e-9)
        assert numerical_rank(K) == int(mask.sum())


def test_lower_bound_matches_full_space_pencil_for_invertible_k():
    rng = np.random.default_rng(21)
    for _ in range(10):
        d = int(rng.integers(2, 8))
        frame = random_frame(rng, d, 2 * d)
        K = random_positive_operator(rng, d)  # invertible, so range(K) is everything
        S = frame_operator(frame)
        report = kframe_check(frame, K)
        vals = scipy.linalg.eigh(S, K @ K.conj().T, eigvals_only=True)
        np.testing.assert_allclose(report.lower_opt, vals[0], rtol=1e-8)
        assert numerical_rank(K) == d


def test_upper_bound_is_bessel_optimal():
    rng = np.random.default_rng(22)
    frame, K, _ = commuting_triple(rng, 6, 13)
    report = kframe_check(frame, K)
    w = np.linalg.eigvalsh(frame_operator(frame))
    np.testing.assert_allclose(report.upper_opt, w[-1], rtol=1e-12)


def test_rank_zero_k_is_vacuously_a_kframe():
    frame = random_frame(np.random.default_rng(23), 4, 8)
    report = kframe_check(frame, np.zeros((4, 4)))
    assert report.vacuous
    assert report.is_kframe
    assert numerical_rank(np.zeros((4, 4))) == 0
    assert report.lower_opt == 0.0
    assert report.witness is None


def test_appending_vectors_never_hurts_the_lower_bound():
    rng = np.random.default_rng(24)
    for _ in range(10):
        d = int(rng.integers(3, 7))
        frame, K, _ = commuting_triple(rng, d, 2 * d)
        before = kframe_check(frame, K).lower_opt
        extra = rng.normal(size=(d, 2)) + 1j * rng.normal(size=(d, 2))
        bigger = FrameSequence(np.hstack([frame.matrix, extra]))
        after = kframe_check(bigger, K).lower_opt
        assert after >= before - 1e-9 * max(1.0, before)


def test_deficient_pair_fails_with_witness():
    rng = np.random.default_rng(25)
    for _ in range(10):
        d = int(rng.integers(3, 8))
        frame, K = deficient_pair(rng, d, 2 * d)
        report = kframe_check(frame, K)
        assert not report.is_kframe
        assert report.witness is not None
        # the witness certifies the failure: its quotient is the (near-zero) minimum
        q = rayleigh_quotients(frame, K, report.witness)[0]
        assert q <= 1e-8 * max(1.0, report.upper_opt)


# ---------------------------------------------------------------------------
# operator inequality and Rayleigh sampling


def test_operator_inequality_flips_at_the_optimal_bound():
    rng = np.random.default_rng(26)
    frame, K, _ = commuting_triple(rng, 6, 12)
    lower = kframe_check(frame, K).lower_opt
    assert kframe_operator_inequality(frame, K, 0.5 * lower)
    assert not kframe_operator_inequality(frame, K, 2.0 * lower)
    with pytest.raises(InvalidParametersError):
        kframe_operator_inequality(frame, K, 0.0)
    with pytest.raises(InvalidParametersError):
        kframe_operator_inequality(frame, K, -1.0)


def test_rayleigh_quotients_respect_the_certified_bounds():
    rng = np.random.default_rng(27)
    frame, K, _ = commuting_triple(rng, 5, 11)
    report = kframe_check(frame, K)
    V = rng.normal(size=(5, 400)) + 1j * rng.normal(size=(5, 400))
    q = rayleigh_quotients(frame, K, V)
    finite = q[np.isfinite(q)]
    assert finite.size == 400  # generic vectors are not annihilated by K*
    assert np.all(finite >= report.lower_opt * (1 - 1e-9))
    # sampling comes close to the certified minimum when aimed at the witness
    aimed = report.witness[:, None] + 0.01 * (rng.normal(size=(5, 50)) + 1j * rng.normal(size=(5, 50)))
    q_aimed = rayleigh_quotients(frame, K, aimed)
    assert np.min(q_aimed) <= report.lower_opt * (1 + 1e-2)


def test_rayleigh_quotients_mark_annihilated_directions_with_inf():
    frame, K, _ = c3_example()
    # e3 is orthogonal to range(K), so K* e3 = 0
    q = rayleigh_quotients(frame, K, np.eye(3)[:, [2]])
    assert np.isinf(q[0])


# ---------------------------------------------------------------------------
# atomic systems


def test_atomic_constant_matches_lstsq_oracle():
    rng = np.random.default_rng(28)
    for _ in range(10):
        d = int(rng.integers(3, 7))
        frame, K, _ = commuting_triple(rng, d, 2 * d)
        report = atomic_system_constant(frame, K)
        # oracle: minimal-norm coefficient matrix column by column
        coeffs = np.stack(
            [np.linalg.lstsq(frame.matrix, K @ e, rcond=None)[0] for e in np.eye(d)],
            axis=1,
        )
        oracle = np.linalg.norm(coeffs, 2)
        np.testing.assert_allclose(report.constant, oracle, rtol=1e-8)
        # the factorization actually synthesizes K
        np.testing.assert_allclose(
            frame.matrix @ (pseudo_inverse(frame.matrix) @ K), K, atol=1e-10
        )


def test_atomic_constant_for_the_c3_example_is_one():
    frame, K, _ = c3_example()
    report = atomic_system_constant(frame, K)
    np.testing.assert_allclose(report.constant, 1.0, rtol=1e-12)


def test_atomic_raises_with_witness_when_range_escapes_the_span():
    rng = np.random.default_rng(29)
    frame, K = deficient_pair(rng, 5, 9)
    with pytest.raises(RangeDeficiencyError) as excinfo:
        atomic_system_constant(frame, K)
    witness = excinfo.value.witness
    assert witness is not None
    # K(witness) really cannot be synthesized: lstsq leaves a residual
    target = K @ witness
    coeff, *_ = np.linalg.lstsq(frame.matrix, target, rcond=None)
    assert np.linalg.norm(frame.matrix @ coeff - target) > 1e-6


def test_atomic_constant_decides_the_same_after_rescaling():
    rng = np.random.default_rng(30)
    frame, K, _ = commuting_triple(rng, 5, 10)
    base = atomic_system_constant(frame, K).constant
    # range(K) leaves the span of a 4-vector family by one part in 1e4
    thin = FrameSequence(frame.matrix[:, :4])
    U = np.linalg.svd(thin.matrix)[0]
    escaping = U[:, :4] @ U[:, :4].conj().T @ K + 1e-4 * np.outer(U[:, 4], np.ones(5))
    for s, t in ((1e-6, 1e-6), (1e6, 1e6), (1e-6, 1e6), (1e6, 1e-6)):
        scaled = atomic_system_constant(FrameSequence(s * frame.matrix), t * K).constant
        np.testing.assert_allclose(scaled, base * t / s, rtol=1e-8)
        with pytest.raises(RangeDeficiencyError):
            atomic_system_constant(FrameSequence(s * thin.matrix), t * escaping)


# ---------------------------------------------------------------------------
# dual systems


def test_bessel_dual_check_is_order_sensitive():
    frame, K, _ = c3_example()
    onb = FrameSequence(np.eye(3, dtype=complex))
    assert bessel_dual_check(frame, onb, K)       # K f = sum <f, e_n> f_n
    assert not bessel_dual_check(onb, frame, K)   # the swapped identity fails


def test_bessel_dual_check_decides_the_same_after_rescaling():
    rng = np.random.default_rng(31)
    F, G = random_frame(rng, 4, 8).matrix, random_frame(rng, 4, 8).matrix
    K = F @ G.conj().T
    off = K * (1 + 1e-6)            # misses the factorization by one part in 1e6
    for scale in (1e-6, 1.0, 1e6):
        assert bessel_dual_check(FrameSequence(scale * F), FrameSequence(G), scale * K)
        assert not bessel_dual_check(FrameSequence(scale * F), FrameSequence(G), scale * off)
        assert not bessel_dual_check(FrameSequence(scale * F), FrameSequence(scale * G), scale * off)


def test_bessel_dual_check_at_extreme_scales_neither_overflows_nor_underflows():
    # F G* and the Frobenius norms leave the float range unless the operands
    # are scaled by powers of two; the verdicts are those at scale 1.
    rng = np.random.default_rng(32)
    F, G = random_frame(rng, 4, 8).matrix, random_frame(rng, 4, 8).matrix
    K = F @ G.conj().T
    off = K * (1 + 1e-6)
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        for a, b in ((1e200, 1e100), (1e-200, 1e-100), (1e299, 1e-299), (1e160, 1.0)):
            assert bessel_dual_check(FrameSequence(a * F), FrameSequence(b * G), (a * b) * K)
            assert not bessel_dual_check(FrameSequence(a * F), FrameSequence(b * G), (a * b) * off)
        # K far beyond what F G* can reach, and F G* far beyond K
        assert not bessel_dual_check(FrameSequence(1e-200 * F), FrameSequence(1e-200 * G), K)
        assert not bessel_dual_check(FrameSequence(1e299 * F), FrameSequence(1e299 * G), K)


def test_interchange_dual_canonical_case():
    # K = I with a Parseval family: the dual is the family itself
    g = parseval_frame(np.random.default_rng(30), 4, 9)
    h = interchange_dual(g, np.eye(4))
    np.testing.assert_allclose(h.matrix, g.matrix, atol=1e-12)


def test_interchange_dual_reconstructs_on_range_k():
    rng = np.random.default_rng(31)
    for _ in range(10):
        d = int(rng.integers(3, 8))
        g = parseval_frame(rng, d, 2 * d + 1)
        basis = haar_unitary(rng, d)
        r = int(rng.integers(1, d + 1))
        spec = np.zeros(d)
        spec[:r] = rng.uniform(0.5, 2.0, size=r)
        K = (basis * spec) @ basis.conj().T
        h = interchange_dual(g, K)
        F = FrameSequence(K @ g.matrix)
        for _ in range(20):
            f = K @ (rng.normal(size=d) + 1j * rng.normal(size=d))
            rec_dual = synthesis(F, h.matrix.conj().T @ f)
            rec_frame = synthesis(h, F.matrix.conj().T @ f)
            np.testing.assert_allclose(rec_dual, f, atol=1e-10 * max(1.0, np.linalg.norm(f)))
            np.testing.assert_allclose(rec_frame, f, atol=1e-10 * max(1.0, np.linalg.norm(f)))


def test_interchange_dual_c3_closed_form():
    frame, K, _ = c3_example()
    onb = FrameSequence(np.eye(3, dtype=complex))
    h = interchange_dual(onb, K, frame_f=frame)
    expected = np.array([[0.5, 0.5, 0], [0, 0, 1], [0, 0, 0]], dtype=complex)
    np.testing.assert_allclose(h.matrix, expected, atol=1e-14)


def test_interchange_dual_requires_the_factorization():
    rng = np.random.default_rng(32)
    g = random_frame(rng, 4, 9)  # not Parseval, so {K g_n} does not factor K
    K = random_positive_operator(rng, 4)
    with pytest.raises(PreconditionFailedError) as excinfo:
        interchange_dual(g, K)
    w = excinfo.value.witness
    assert w is not None
    defect = K - (K @ g.matrix) @ g.matrix.conj().T
    # the witness is the direction of maximal factorization failure
    np.testing.assert_allclose(
        np.linalg.norm(defect @ w), np.linalg.norm(defect, 2), rtol=1e-9
    )


def test_interchange_dual_forms_the_factor_defect_once_for_a_refused_pair(monkeypatch):
    import framekit.kframes as kframes_module

    rng = np.random.default_rng(32)
    g = random_frame(rng, 4, 9)
    K = random_positive_operator(rng, 4)
    F = FrameSequence(K @ g.matrix)
    _, defect = kframes_module._factor_check(F, g, K, Tolerances())
    calls = []
    original = kframes_module._factor_check
    monkeypatch.setattr(
        kframes_module, "_factor_check", lambda *args: calls.append(args) or original(*args)
    )
    with pytest.raises(PreconditionFailedError) as excinfo:
        interchange_dual(g, K)
    assert len(calls) == 1
    assert str(excinfo.value) == (
        "the pair does not factor K (K != F G*); the dual system would not reconstruct"
    )
    # the witness is the top right singular vector of that one defect
    np.testing.assert_array_equal(excinfo.value.witness, np.linalg.svd(defect)[2][0].conj())
    # a pair that factors K also forms it once, and the check alone too
    calls.clear()
    interchange_dual(parseval_frame(rng, 4, 9), np.eye(4))
    bessel_dual_check(F, g, K)
    assert len(calls) == 2


# ---------------------------------------------------------------------------
# constructions


def test_construct_pushforward_of_onb_has_unit_lower_bound():
    rng = np.random.default_rng(33)
    for _ in range(10):
        d = int(rng.integers(2, 8))
        onb = FrameSequence(haar_unitary(rng, d))
        K = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        family, certified = construct_kframe(onb, K, require_orthonormal=True)
        np.testing.assert_array_equal(certified, K.astype(np.complex128))
        np.testing.assert_array_equal(family.matrix, K @ onb.matrix)
        report = kframe_check(family, certified)
        assert report.is_kframe
        # S_family = K Q Q* K* = K K*, so the quotient is exactly 1 on range(K)
        np.testing.assert_allclose(report.lower_opt, 1.0, rtol=1e-9)


def test_construct_rejects_non_orthonormal_sources_when_asked():
    rng = np.random.default_rng(34)
    frame = random_frame(rng, 4, 4)
    with pytest.raises(NotOrthonormalError):
        construct_kframe(frame, np.eye(4), require_orthonormal=True)
    wide = random_frame(rng, 4, 6)
    with pytest.raises(NotOrthonormalError):
        construct_kframe(wide, np.eye(4), require_orthonormal=True)


def test_construct_transformed_kframe_is_tk_frame():
    rng = np.random.default_rng(35)
    for _ in range(10):
        d = int(rng.integers(3, 7))
        frame, K, _ = commuting_triple(rng, d, 2 * d)
        T = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        family, certified = construct_kframe(frame, K, T=T)
        np.testing.assert_allclose(certified, T @ K, atol=1e-13)
        assert kframe_check(family, certified).is_kframe


_HUGE_K, _HUGE_G = np.array([[1.26e299 - 1.32e299j]]), FrameSequence([[1.26e149 - 1.32e149j]])


@pytest.mark.parametrize("push", [
    pytest.param(lambda: construct_kframe(_HUGE_G, _HUGE_K), id="construct_kframe"),
    pytest.param(lambda: construct_kframe(_HUGE_G, np.eye(1), T=_HUGE_K), id="construct_kframe-T"),
    pytest.param(lambda: interchange_dual(_HUGE_G, _HUGE_K), id="interchange_dual"),
])
def test_a_pushed_family_beyond_the_float_range_is_refused_without_a_warning(push):
    # K G was formed unscaled: "overflow encountered in matmul" came first
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidParametersError, match="non-finite"):
            push()


def test_dual_refuses_a_default_family_beyond_the_float_range_without_a_warning(tmp_path, capsys):
    save_frame(_HUGE_G, tmp_path / "g.json")
    save_operator(_HUGE_K, tmp_path / "k.json")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["dual", "--g", str(tmp_path / "g.json"), "--k", str(tmp_path / "k.json"),
                     "--out", str(tmp_path / "dual.json")])
    err = capsys.readouterr().err
    assert code == 1 and "non-finite" in err and "Warning" not in err
    assert not (tmp_path / "dual.json").exists()


# ---------------------------------------------------------------------------
# norm inequalities on range(K)


def test_restricted_inequalities_hold_on_kframes():
    rng = np.random.default_rng(36)
    for _ in range(5):
        frame, K, _ = commuting_triple(rng, 6, 13)
        assert restricted_operator_inequalities(frame, K)


def test_restricted_inequalities_refuse_non_kframes():
    rng = np.random.default_rng(37)
    frame, K = deficient_pair(rng, 5, 10)
    with pytest.raises(PreconditionFailedError):
        restricted_operator_inequalities(frame, K)


@pytest.mark.parametrize("t", [1e-150, 1e-100, 1.0, 1e100, 1e150])
def test_restricted_inequalities_hold_at_every_scale_of_k_with_a_normal_lower_bound(t):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert restricted_operator_inequalities(FrameSequence(np.eye(3)), t * np.eye(3))


@pytest.mark.parametrize("t", [1e-170, 1e-160, 1e160, 1e170, 1e200])
def test_restricted_inequalities_refuse_a_lower_bound_outside_the_float_range(t):
    # lower_opt = 1 / t^2 is inf, subnormal (1e-320 at t = 1e160) or 0.0:
    # the first inequality needs its exact value, which is lost
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidParametersError, match="outside the float range"):
            restricted_operator_inequalities(FrameSequence(np.eye(3)), t * np.eye(3))


def test_restricted_inequalities_draw_no_random_numbers(monkeypatch):
    rng = np.random.default_rng(38)
    pairs = [commuting_triple(rng, 6, 13)[:2] for _ in range(3)]
    expected = [restricted_operator_inequalities(frame, K) for frame, K in pairs]

    def no_rng(*args, **kwargs):
        raise AssertionError("restricted_operator_inequalities drew random numbers")
    monkeypatch.setattr(np.random, "default_rng", no_rng)
    assert [restricted_operator_inequalities(frame, K) for frame, K in pairs] == expected


def test_verdict_margin_respects_custom_slack():
    # with a loose slack, a pair sitting just below the threshold flips verdict
    frame, K, _ = c3_example()
    tight = kframe_check(frame, K, Tolerances(psd_slack=1e-12))
    loose = kframe_check(frame, K, Tolerances(psd_slack=0.6))
    assert tight.is_kframe
    # S = diag(2, 1, 0): slack 0.6 * lambda_max(S) = 1.2 counts the eigenvalue
    # 1 as null, so range(K), which contains e2, escapes range(S)
    assert not loose.is_kframe


def _same(a, b):
    return np.shape(a) == np.shape(b) and np.allclose(a, b, rtol=0.0, atol=1e-12)


def test_frame_bounds_and_kframe_check_decompose_s_once(linalg_calls):
    frame, K, _ = commuting_triple(np.random.default_rng(77), 6, 12)
    frame = FrameSequence(frame.matrix)  # cold: commuting_triple decomposed S already
    S = frame.matrix @ frame.matrix.conj().T
    calls = linalg_calls("eigh", "eigvalsh")
    bounds = frame_bounds(frame)
    report = kframe_check(frame, K)
    calls_on_s = [name for name, a in calls if _same(a, S)]
    assert len(calls_on_s) == 1
    assert report.upper_opt == bounds.upper


def test_controlled_kframe_check_decomposes_cs_once(linalg_calls):
    frame, K, ctrl = commuting_triple(np.random.default_rng(78), 6, 12)
    CS = ctrl.matrix @ frame.matrix @ frame.matrix.conj().T
    calls = linalg_calls("eigh", "eigvalsh")
    report = controlled_kframe_check(frame, K, ctrl)
    calls_on_cs = [name for name, a in calls if _same(a, CS)]
    assert len(calls_on_cs) == 1
    assert report.is_controlled_kframe


# ---------------------------------------------------------------------------
# the per-frame K-frame memo: a controlled check after the plain one on the
# same (frame, K) reuses the plain report


def test_plain_then_controlled_check_decomposes_k_and_the_gram_matrix_once(linalg_calls):
    frame, K, ctrl = commuting_triple(np.random.default_rng(79), 8, 16, zero_k=2)
    frame = FrameSequence(frame.matrix)  # cold: commuting_triple decomposed S already
    S = frame.matrix @ frame.matrix.conj().T
    CS = ctrl.matrix @ S
    calls = linalg_calls()
    plain = kframe_check(frame, K)
    controlled = controlled_kframe_check(frame, K, ctrl)
    assert controlled.lower_opt == plain.lower_opt
    # neither check runs an SVD of K
    assert [name for name, a in calls if _same(a, K)] == []
    assert [name for name, a in calls if _same(a, S)] == ["eigh"]
    assert [name for name, a in calls if _same(a, CS)] == ["eigvalsh"]
    gram = [name for name, a in calls if not any(_same(a, T) for T in (K, S, CS))]
    assert gram == ["eigvalsh"]


def test_reports_are_plain_values(tmp_path, linalg_calls, capsys):
    frame, K, ctrl = commuting_triple(np.random.default_rng(86), 8, 16, zero_k=3)
    paths = [str(tmp_path / name) for name in ("f.json", "k.json", "c.json")]
    save_frame(frame, paths[0])
    save_operator(K, paths[1])
    save_operator(ctrl.matrix, paths[2])
    report = kframe_check(frame, K)
    controlled = controlled_kframe_check(frame, K, ctrl)
    before = [repr(report), repr(controlled)]
    K[:] = np.eye(8)  # changed in place after the checks: the reports hold no reference to it
    assert [repr(report), repr(controlled)] == before
    for r in (report, controlled):
        assert r == dataclasses.replace(r)
        changed = dataclasses.replace(r, lower_opt=1.0)
        assert changed.lower_opt == 1.0 and changed.upper_opt == r.upper_opt
    for cls in (KFrameReport, ControlledReport):
        assert "rank_k" not in {f.name for f in dataclasses.fields(cls)}
    assert report.lower_opt == controlled.lower_opt and not report.vacuous

    # the CLI reports the rank of K from one SVD, shared by both JSON objects
    calls = linalg_calls()
    assert main(["check", paths[0], "--k", paths[1], "--c", paths[2], "--json", "--deterministic"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["kframe"]["rank_k"] == out["controlled"]["rank_k"] == 5
    K0 = load_operator(paths[1])
    assert [name for name, a in calls if _same(a, K0)] == ["svd"]


def test_memo_is_refreshed_when_k_is_mutated_in_place():
    frame, K, ctrl = commuting_triple(np.random.default_rng(80), 6, 12, zero_k=1)
    first = kframe_check(frame, K)
    assert kframe_check(frame, K.copy()) is first
    K *= 2.0
    second = kframe_check(frame, K)
    assert second is not first
    np.testing.assert_allclose(second.lower_opt, first.lower_opt / 4.0, rtol=1e-12)
    fresh = kframe_check(FrameSequence(frame.matrix), K.copy())
    assert (second.lower_opt, second.is_kframe) == (fresh.lower_opt, fresh.is_kframe)
    assert controlled_kframe_check(frame, K, ctrl).lower_opt == fresh.lower_opt
    K[:] = 0.0
    third = kframe_check(frame, K)
    assert third.vacuous and third.witness is None


def test_memo_is_refreshed_for_different_tolerances():
    frame, K, _ = c3_example()
    assert kframe_check(frame, K).is_kframe
    assert not kframe_check(frame, K, Tolerances(psd_slack=0.6)).is_kframe
    assert kframe_check(frame, K).is_kframe


def test_report_witness_is_read_only():
    frame, K, _ = commuting_triple(np.random.default_rng(81), 5, 10)
    report = kframe_check(frame, K)
    with pytest.raises(ValueError):
        report.witness[0] = 1.0
    failing = kframe_check(*deficient_pair(np.random.default_rng(82), 5, 10))
    with pytest.raises(ValueError):
        failing.witness[0] = 1.0


def test_failing_witness_owns_its_memory():
    # the null-space witness is a copy, not a view keeping the d x dim null(S)
    # columns (and so the eigenvectors of S) alive
    report = kframe_check(*deficient_pair(np.random.default_rng(0), 64, 128))
    assert not report.is_kframe
    assert report.witness.base is None
    assert not report.witness.flags.writeable


@pytest.mark.parametrize("i, j", [(0, 0), (7, 7), (2, 5), (6, 1)])
def test_a_tiny_nonzero_k_does_not_underflow_the_gram_matrix(i, j):
    # one subnormal entry: K K* underflows to zero unless K is scaled first
    K = np.zeros((8, 8))
    K[i, j] = 5e-324
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = kframe_check(FrameSequence(np.eye(8)), K)
    assert report.is_kframe and not report.vacuous
    assert report.lower_opt == np.inf  # 1 / ||K||^2 exceeds the largest float
    assert abs(report.witness[i]) == 1.0


def test_a_huge_k_keeps_its_verdict_when_lower_opt_underflows():
    # lower_opt = 2^-1400 is below the smallest float, yet range(K) = range(S):
    # the verdict is the range test, not the sign of the rounded constant
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = kframe_check(FrameSequence(np.eye(8)), 2.0**700 * np.eye(8))
    assert report.is_kframe and not report.vacuous
    assert report.lower_opt == 0.0
    assert np.linalg.norm(report.witness) == pytest.approx(1.0)


def test_a_frame_near_the_underflow_threshold_gives_a_unit_witness():
    # S is about 3e-322, so x / sqrt(w) is near 1e161 and its squared norm
    # overflows unless the witness is scaled before it is normalised
    frame = FrameSequence(np.array([[1.26e-161 - 1.32e-161j]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = kframe_check(frame, np.array([[0.126 - 0.132j]]))
    assert report.is_kframe and report.lower_opt > 0.0
    assert abs(report.witness[0]) == 1.0


def test_a_tiny_frame_under_a_large_k_does_not_overflow_the_gram_matrix():
    # S = 2^-840 S0 and K = 2^100 K0: S^{+1/2} K is near 2^520, so its Gram
    # matrix overflows unless scaled; lower_opt = 2^-1040 lower_opt0 is subnormal
    rng = np.random.default_rng(9)
    frame, K = random_frame(rng, 6, 12), rng.normal(size=(6, 6))
    reference = kframe_check(frame, K)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = kframe_check(FrameSequence(2.0**-420 * frame.matrix), 2.0**100 * K)
    assert report.is_kframe
    assert report.lower_opt == pytest.approx(reference.lower_opt * 2.0**-1040, rel=1e-4)
    np.testing.assert_allclose(abs(np.vdot(report.witness, reference.witness)), 1.0, rtol=1e-9)


def test_a_subnormal_eigenvalue_kept_by_a_small_psd_slack_does_not_overflow():
    # S = diag(1e-60, 1e-320) needs no frame exponent, but psd_slack = 1e-300
    # keeps the subnormal eigenvalue: S^{+1/2} K has an entry near 1e160 and
    # its Gram matrix, like the witness's squared norm, overflows unless scaled
    frame = FrameSequence(np.diag([1e-30, 1e-160]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = kframe_check(frame, np.eye(2), Tolerances(psd_slack=1e-300))
    assert report.is_kframe
    assert 0.0 < report.lower_opt < 1e-300
    assert np.isfinite(report.witness).all()
    assert abs(report.witness[1]) == 1.0


# ---------------------------------------------------------------------------
# counterexamples to a verdict restricted to range(K): S does not leave
# range(K) invariant, so only the global (Douglas) optimum is right


def test_rank_one_family_missing_a_direction_of_range_k_is_not_a_kframe():
    # S = [[1, 1], [1, 1]] / 2 annihilates (1, -1), which K* = diag(1, 0) does not
    frame = FrameSequence(np.array([[1.0], [1.0]]) / np.sqrt(2.0))
    K = np.diag([1.0, 0.0])
    report = kframe_check(frame, K)
    assert not report.is_kframe
    assert report.lower_opt == 0.0
    np.testing.assert_allclose(rayleigh_quotients(frame, K, report.witness)[0], 0.0, atol=1e-12)
    assert not kframe_operator_inequality(frame, K, 1e-6)
    controlled = controlled_kframe_check(frame, K, make_controller(2.0 * np.eye(2)))
    assert not controlled.is_controlled_kframe
    assert controlled.lower_opt == 0.0


def test_witness_is_a_null_vector_that_k_star_does_not_annihilate():
    # null(S) = span(e2, e3) and K* annihilates one of the two; with both
    # choices of K, one of them is the null eigenvector eigh lists first
    frame = FrameSequence(np.eye(3)[:, :1])
    for k_diag in ([0.0, 0.0, 1.0], [0.0, 1.0, 0.0]):
        K = np.diag(k_diag)
        report = kframe_check(frame, K)
        assert not report.is_kframe
        assert report.lower_opt == 0.0
        np.testing.assert_allclose(frame_operator(frame) @ report.witness, 0.0, atol=1e-15)
        np.testing.assert_allclose(np.linalg.norm(K.conj().T @ report.witness), 1.0, rtol=1e-12)


def test_cross_coupled_frame_operator_gives_the_global_optimum():
    # with S = [[1, .9], [.9, 1]] and K = diag(1, 0) the optimum is
    # 1 / (S^-1)_11 = 1 - .9^2 = 0.19, not the restricted quotient S_11 = 1
    frame = FrameSequence(operator_sqrt(np.array([[1.0, 0.9], [0.9, 1.0]])))
    K = np.diag([1.0, 0.0])
    report = kframe_check(frame, K)
    assert report.is_kframe
    np.testing.assert_allclose(report.lower_opt, 0.19, rtol=1e-9)
    np.testing.assert_allclose(rayleigh_quotients(frame, K, report.witness)[0], 0.19, rtol=1e-9)
    assert kframe_operator_inequality(frame, K, 0.19 * (1 - 1e-6))
    assert not kframe_operator_inequality(frame, K, 0.19 * (1 + 1e-6))
    controlled = controlled_kframe_check(frame, K, make_controller(2.0 * np.eye(2)))
    assert controlled.is_controlled_kframe
    np.testing.assert_allclose(controlled.lower_opt, 0.19, rtol=1e-9)


def test_restricted_inequalities_decompose_k_once(linalg_calls):
    frame, K, _ = commuting_triple(np.random.default_rng(83), 8, 16, zero_k=3)
    kframe_check(frame, K)  # memoised, so the call below adds no rank SVD of K
    calls = linalg_calls("svd", "eigh", "eigvalsh", "norm2")
    assert restricted_operator_inequalities(frame, K)
    assert [name for name, a in calls if _same(a, K)] == ["svd"]
    assert [name for name, _ in calls] == ["svd"] * 3  # K, then S Q and K* Q


def test_atomic_constant_decomposes_the_family_once(linalg_calls):
    frame, K, _ = commuting_triple(np.random.default_rng(84), 6, 12, zero_k=2)
    expected = np.linalg.norm(np.linalg.pinv(frame.matrix) @ K, 2)
    calls = linalg_calls("svd", "eigh", "eigvalsh", "norm2")
    report = atomic_system_constant(frame, K)
    np.testing.assert_allclose(report.constant, expected, rtol=1e-12)
    assert [name for name, a in calls if _same(a, frame.matrix)] == ["svd"]
    assert [name for name, _ in calls] == ["svd", "norm2"]  # T, then Sigma_r^-1 U_r* K


def _loewner_cases():
    """Comparisons whose operands leave the float range when ``A`` is moved
    as a number before the comparison."""
    frame, K, ctrl = commuting_triple(np.random.default_rng(0), 4, 8, zero_k=1)
    upper = controlled_kframe_check(frame, K, ctrl).upper_opt
    cases = [pytest.param(lambda: operator_leq(1e154 * np.eye(2), np.zeros((2, 2))), False, id="1e154 I <= 0")]
    for A in (1e154, 1e200, 1e308):
        cases += [
            pytest.param(lambda A=A: kframe_operator_inequality(frame, K, A), False, id=f"plain-{A:g}"),
            pytest.param(lambda A=A: controlled_operator_inequality(frame, K, ctrl, A), False, id=f"controlled-{A:g}"),
            pytest.param(lambda A=A: sandwich_inequality_check(frame, K, ctrl, A, upper), False, id=f"sandwich-{A:g}"),
        ]
    return cases + [
        pytest.param(lambda: kframe_operator_inequality(FrameSequence(np.eye(3)), 2.0**600 * np.eye(3), 1.0), False,
                     id="K=2^600 I"),
        pytest.param(lambda: kframe_operator_inequality(FrameSequence(2.0**-600 * np.eye(3)), np.eye(3), 1.0), False,
                     id="frame 2^-600 I"),
        pytest.param(lambda: kframe_operator_inequality(FrameSequence(2.0**-500 * np.eye(3)), np.eye(3), 2.0**-1000),
                     True, id="frame 2^-500 I at its optimum 2^-1000"),
    ]


@pytest.mark.parametrize("call, expected", _loewner_cases())
def test_loewner_checks_decide_a_candidate_bound_far_from_the_optimum(call, expected):
    # lower_opt is 0.158 on the triple, and 0.0 (underflowed) for the two
    # scaled identities, so each A above fails the lower inequality; moving
    # A as a number overflowed A K K*, or made the Frobenius slack inf.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert call() is expected


def test_loewner_checks_keep_their_verdicts_next_to_the_optimum():
    frame, K, ctrl = commuting_triple(np.random.default_rng(0), 4, 8, zero_k=1)
    lower = kframe_check(frame, K).lower_opt
    upper = controlled_kframe_check(frame, K, ctrl).upper_opt
    for factor, expected in ((1 - 1e-6, True), (1 + 1e-6, False)):
        A = lower * factor
        assert kframe_operator_inequality(frame, K, A) is expected
        assert controlled_operator_inequality(frame, K, ctrl, A) is expected
        assert sandwich_inequality_check(frame, K, ctrl, A, upper) is expected


@pytest.mark.parametrize("scale", [1e-200, 1e-100, 1.0, 1e100, 1e200])
def test_rayleigh_quotients_do_not_depend_on_the_scale_of_a_probe(scale):
    # The quotient of scale * (1, 1, 1) is 1 on the identity frame with K = I;
    # at 1e-200 its numerator and denominator underflowed to 0 (giving inf),
    # at 1e200 they overflowed.
    frame = FrameSequence(np.eye(3))
    probes = np.stack([scale * np.ones(3), [1.0, 2.0, 0.0], np.zeros(3)], axis=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        np.testing.assert_allclose(rayleigh_quotients(frame, np.eye(3), scale * np.ones(3)), [1.0], rtol=1e-15)
        q = rayleigh_quotients(frame, np.diag([1.0, 0.5, 1.0]), probes)
    np.testing.assert_allclose(q, [3.0 / 2.25, 2.5, np.inf], rtol=1e-15)


def test_bessel_dual_check_refuses_families_in_different_dimensions():
    with pytest.raises(DimensionMismatchError, match="share the ambient dimension"):
        bessel_dual_check(FrameSequence(np.eye(2)), FrameSequence(np.ones((3, 2))), np.eye(2))
