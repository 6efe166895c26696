"""K-frame layer tests.

Oracles: on instances whose ``K`` and frame operator share an eigenbasis the
optimal lower bound has the closed form ``min s_i / k_i^2`` over nonzero
``k_i``; for invertible ``K`` the restricted pencil coincides with the
full-space generalized eigenproblem; the atomic constant is reproduced with
``lstsq`` minimal-norm solves column by column.
"""

import numpy as np
import pytest
import scipy.linalg

from framekit import (
    FrameSequence,
    InvalidParametersError,
    NotOrthonormalError,
    PreconditionFailedError,
    RangeDeficiencyError,
    Tolerances,
    atomic_system_constant,
    bessel_dual_check,
    construct_kframe,
    frame_bounds,
    frame_operator,
    interchange_dual,
    kframe_check,
    kframe_operator_inequality,
    pseudo_inverse,
    rayleigh_quotients,
    restricted_operator_inequalities,
    synthesis,
)
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
    assert report.is_bessel
    assert report.is_kframe
    assert not report.vacuous
    assert report.rank_k == 2
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
        assert report.rank_k == int(mask.sum())


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
        assert report.rank_k == d


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
    assert report.rank_k == 0
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
        assert report.constant == report.coefficient_map_norm
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


# ---------------------------------------------------------------------------
# dual systems


def test_bessel_dual_check_is_order_sensitive():
    frame, K, _ = c3_example()
    onb = FrameSequence(np.eye(3, dtype=complex))
    assert bessel_dual_check(frame, onb, K)       # K f = sum <f, e_n> f_n
    assert not bessel_dual_check(onb, frame, K)   # the swapped identity fails


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


# ---------------------------------------------------------------------------
# norm inequalities on range(K)


def test_restricted_inequalities_hold_on_kframes():
    rng = np.random.default_rng(36)
    for seed in range(5):
        frame, K, _ = commuting_triple(rng, 6, 13)
        assert restricted_operator_inequalities(frame, K, samples=300, seed=seed)


def test_restricted_inequalities_refuse_non_kframes():
    rng = np.random.default_rng(37)
    frame, K = deficient_pair(rng, 5, 10)
    with pytest.raises(PreconditionFailedError):
        restricted_operator_inequalities(frame, K)


def test_verdict_margin_respects_custom_slack():
    # with a loose slack, a pair sitting just below the threshold flips verdict
    frame, K, _ = c3_example()
    tight = kframe_check(frame, K, Tolerances(psd_slack=1e-12))
    loose = kframe_check(frame, K, Tolerances(psd_slack=0.6))
    assert tight.is_kframe
    assert not loose.is_kframe  # slack 0.6 * upper(=2) exceeds the lower bound 1


def test_frame_bounds_and_kframe_check_decompose_s_once(monkeypatch):
    frame, K, _ = commuting_triple(np.random.default_rng(77), 6, 12)
    S = frame.matrix @ frame.matrix.conj().T
    calls_on_s = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        if np.shape(a) == S.shape and np.allclose(a, S, rtol=0.0, atol=1e-12):
            calls_on_s.append(1)
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    bounds = frame_bounds(frame)
    report = kframe_check(frame, K)
    assert len(calls_on_s) == 1
    assert report.upper_opt == bounds.upper
