"""Operator-layer tests, oracle style: every nontrivial value is checked
against an independent eigensolver / SVD computation or a hand-computed
matrix."""

import warnings

import numpy as np
import pytest

from framekit import (
    DEFAULT_TOL,
    IndefiniteOperatorError,
    InvalidParametersError,
    DimensionMismatchError,
    NonHermitianComparisonError,
    NotHermitianError,
    NotPositiveDefiniteError,
    OperatorBounds,
    Tolerances,
    as_operator,
    as_vector,
    hermitian_part,
    inverse_bounds,
    is_hermitian,
    make_controller,
    numerical_rank,
    operator_leq,
    operator_sqrt,
    positive_definite_bounds,
    pseudo_inverse,
    range_basis,
    spectral_function,
)
from framekit.instances import haar_unitary, random_positive_operator


def test_as_vector_validation():
    v = as_vector([1.0, 2.0, 3.0])
    assert v.dtype == np.complex128
    with pytest.raises(InvalidParametersError):
        as_vector([[1.0, 2.0]])
    with pytest.raises(InvalidParametersError):
        as_vector([])
    with pytest.raises(DimensionMismatchError):
        as_vector([1.0, 2.0], dim=3)
    with pytest.raises(InvalidParametersError):
        as_vector([1.0, np.nan])


def test_as_operator_validation():
    T = as_operator(np.eye(3))
    assert T.dtype == np.complex128
    with pytest.raises(InvalidParametersError):
        as_operator(np.ones((2, 3)))
    with pytest.raises(DimensionMismatchError):
        as_operator(np.eye(2), dim=3)
    with pytest.raises(InvalidParametersError):
        as_operator(np.array([[np.inf, 0], [0, 1]]))


def test_tolerances_validation():
    Tolerances(rel_eq=1e-6, psd_slack=1e-12, rank_rel=1e-10)
    with pytest.raises(InvalidParametersError):
        Tolerances(rel_eq=0.0)
    with pytest.raises(InvalidParametersError):
        Tolerances(psd_slack=2.0)
    with pytest.raises(InvalidParametersError):
        Tolerances(rank_rel=-1e-3)
    # dimension-aware default cutoff
    assert Tolerances().rank_cutoff(8) == 8e-12
    assert Tolerances(rank_rel=1e-7).rank_cutoff(8) == 1e-7


def test_operator_bounds_contract():
    b = OperatorBounds(0.5, 2.0)
    assert b.condition == 4.0
    with pytest.raises(InvalidParametersError):
        OperatorBounds(0.0, 1.0)
    with pytest.raises(InvalidParametersError):
        OperatorBounds(2.0, 1.0)


def test_hermitian_part_and_detection():
    rng = np.random.default_rng(1)
    M = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    H = hermitian_part(M)
    np.testing.assert_allclose(H, H.conj().T)
    assert is_hermitian(H)
    assert not is_hermitian(M)
    # a perturbation below the relative tolerance still counts as Hermitian
    E = np.zeros((4, 4), dtype=complex)
    E[0, 1] = 1e-13
    assert is_hermitian(H + E)


def test_positive_definite_bounds_eigenvalue_oracle():
    rng = np.random.default_rng(2)
    for _ in range(25):
        d = int(rng.integers(2, 9))
        T = random_positive_operator(rng, d)
        bounds = positive_definite_bounds(T)
        w = np.linalg.eigvalsh(T)
        np.testing.assert_allclose(bounds.lower, w[0], rtol=1e-12)
        np.testing.assert_allclose(bounds.upper, w[-1], rtol=1e-12)
        np.testing.assert_allclose(bounds.condition, w[-1] / w[0], rtol=1e-12)


def test_positive_definite_bounds_rejections():
    rng = np.random.default_rng(3)
    M = rng.normal(size=(4, 4))
    with pytest.raises(NotHermitianError):
        positive_definite_bounds(M + M.T + 0.1 * (M - M.T) + 10 * np.eye(4))
    with pytest.raises(NotPositiveDefiniteError):
        positive_definite_bounds(np.diag([1.0, -0.5, 2.0]))
    with pytest.raises(NotPositiveDefiniteError):
        positive_definite_bounds(np.diag([1.0, 0.0, 2.0]))  # singular


def test_operator_sqrt_squares_back():
    rng = np.random.default_rng(4)
    for _ in range(20):
        d = int(rng.integers(2, 9))
        T = random_positive_operator(rng, d)
        R = operator_sqrt(T)
        assert is_hermitian(R)
        np.testing.assert_allclose(R @ R, T, rtol=0, atol=1e-10 * np.linalg.norm(T, 2))


def test_operator_sqrt_known_diagonal():
    np.testing.assert_allclose(operator_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-14)


def test_operator_sqrt_clamps_rounding_but_rejects_indefinite():
    # an eigenvalue at exactly zero is fine (PSD boundary)
    R = operator_sqrt(np.diag([1.0, 0.0]))
    np.testing.assert_allclose(R, np.diag([1.0, 0.0]), atol=1e-14)
    # a tiny negative eigenvalue inside the slack window is clamped
    R = operator_sqrt(np.diag([1.0, -1e-12]))
    np.testing.assert_allclose(R, np.diag([1.0, 0.0]), atol=1e-10)
    # a genuinely negative eigenvalue is an error, not a clamp
    with pytest.raises(IndefiniteOperatorError):
        operator_sqrt(np.diag([1.0, -1e-3]))


def _random_rank_deficient(rng, rows, cols, rank):
    A = rng.normal(size=(rows, rank)) + 1j * rng.normal(size=(rows, rank))
    B = rng.normal(size=(rank, cols)) + 1j * rng.normal(size=(rank, cols))
    return A @ B


def test_pseudo_inverse_penrose_identities():
    rng = np.random.default_rng(5)
    for _ in range(25):
        rows = int(rng.integers(2, 8))
        cols = int(rng.integers(2, 8))
        rank = int(rng.integers(1, min(rows, cols) + 1))
        U = _random_rank_deficient(rng, rows, cols, rank)
        P = pseudo_inverse(U)
        scale = np.linalg.norm(U, 2)
        np.testing.assert_allclose(U @ P @ U, U, atol=1e-11 * scale)
        np.testing.assert_allclose(P @ U @ P, P, atol=1e-11 * max(1.0, np.linalg.norm(P, 2)))
        np.testing.assert_allclose(U @ P, (U @ P).conj().T, atol=1e-12)
        np.testing.assert_allclose(P @ U, (P @ U).conj().T, atol=1e-12)
        # UU+ projects onto range(U): exact on vectors already in the range
        x = U @ (rng.normal(size=cols) + 1j * rng.normal(size=cols))
        np.testing.assert_allclose(U @ (P @ x), x, atol=1e-11 * max(1.0, np.linalg.norm(x)))


def test_pseudo_inverse_known_matrix():
    K = np.array([[1, 1, 0], [0, 0, 1], [0, 0, 0]], dtype=complex)
    expected = np.array([[0.5, 0, 0], [0.5, 0, 0], [0, 1, 0]], dtype=complex)
    np.testing.assert_allclose(pseudo_inverse(K), expected, atol=1e-14)
    np.testing.assert_allclose(pseudo_inverse(K), np.linalg.pinv(K), atol=1e-14)


def test_pseudo_inverse_zero_matrix():
    Z = np.zeros((3, 2))
    np.testing.assert_array_equal(pseudo_inverse(Z), np.zeros((2, 3)))
    assert numerical_rank(Z) == 0
    assert range_basis(Z).shape == (3, 0)


def test_rank_basis_and_pseudo_inverse_share_one_rank_rule():
    rng = np.random.default_rng(15)
    U = haar_unitary(rng, 6) @ np.diag([1.0, 1e-3, 1e-5, 1e-7, 1e-9, 0.0]) @ haar_unitary(rng, 6)
    for rank_rel, rank in ((1e-2, 1), (1e-4, 2), (1e-6, 3), (1e-8, 4), (1e-10, 5)):
        tol = Tolerances(rank_rel=rank_rel)
        assert numerical_rank(U, tol) == rank
        assert range_basis(U, tol).shape == (6, rank)
        assert np.linalg.matrix_rank(pseudo_inverse(U, tol)) == rank


def test_numerical_rank_and_range_basis():
    rng = np.random.default_rng(6)
    for _ in range(15):
        d = int(rng.integers(3, 9))
        rank = int(rng.integers(1, d + 1))
        U = _random_rank_deficient(rng, d, d, rank)
        assert numerical_rank(U) == rank
        Q = range_basis(U)
        assert Q.shape == (d, rank)
        np.testing.assert_allclose(Q.conj().T @ Q, np.eye(rank), atol=1e-12)
        # the columns of U lie in span(Q)
        proj = Q @ (Q.conj().T @ U)
        np.testing.assert_allclose(proj, U, atol=1e-11 * np.linalg.norm(U, 2))


def test_rank_cutoff_separates_noise_from_signal():
    # singular values: 1 and 1e-15 (noise), versus 1 and 1e-6 (signal)
    U = haar_unitary(np.random.default_rng(7), 3)
    noisy = U @ np.diag([1.0, 1e-15, 0.0]) @ U.conj().T
    assert numerical_rank(noisy) == 1
    small = U @ np.diag([1.0, 1e-6, 0.0]) @ U.conj().T
    assert numerical_rank(small) == 2


def test_operator_leq_basic_and_slack():
    assert operator_leq(np.eye(3), 2 * np.eye(3))
    assert not operator_leq(2 * np.eye(3), np.eye(3))
    assert operator_leq(np.eye(3), np.eye(3))  # equality passes
    # slack: a violation of 1e-12 on a unit-scale problem is tolerated
    assert operator_leq((1 + 1e-12) * np.eye(3), np.eye(3))
    assert not operator_leq((1 + 1e-6) * np.eye(3), np.eye(3))


def test_operator_leq_requires_hermitian():
    N = np.array([[0, 1], [0, 0]], dtype=complex)
    with pytest.raises(NotHermitianError):
        operator_leq(N, np.eye(2))
    with pytest.raises(NotHermitianError):
        operator_leq(np.eye(2), N)


def test_spectral_function_refuses_non_hermitian_operators():
    N = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
    with pytest.raises(NotHermitianError):
        spectral_function(N, np.sqrt)
    # the tolerance decides: a 1e-6 asymmetry passes only under a looser rel_eq
    near = np.eye(2) + np.array([[0.0, 1e-6], [0.0, 0.0]])
    with pytest.raises(NotHermitianError):
        spectral_function(near, np.sqrt)
    np.testing.assert_allclose(
        spectral_function(near, np.sqrt, Tolerances(rel_eq=1e-5)), operator_sqrt(hermitian_part(near)), atol=1e-12
    )


def test_operator_leq_raises_the_comparison_error_on_non_hermitian_operands():
    # the controlled comparisons pass the raw product C S and rely on this class
    N = np.array([[0, 1], [0, 0]], dtype=complex)
    with pytest.raises(NonHermitianComparisonError):
        operator_leq(N, np.eye(2))
    with pytest.raises(NonHermitianComparisonError):
        operator_leq(np.eye(2), N)


def test_operator_leq_matches_eigenvalue_oracle():
    rng = np.random.default_rng(8)
    for _ in range(20):
        d = int(rng.integers(2, 7))
        T1 = random_positive_operator(rng, d)
        T2 = random_positive_operator(rng, d)
        gap = np.linalg.eigvalsh(T2 - T1)[0]
        slack = 1e-9 * max(np.linalg.norm(T1, "fro"), np.linalg.norm(T2, "fro"))
        assert operator_leq(T1, T2) == (gap >= -slack)


# ---------------------------------------------------------------------------
# slack is relative to the operands, with no absolute floor


def test_is_hermitian_refuses_a_tiny_non_hermitian_operator():
    rng = np.random.default_rng(12)
    M = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    for scale in (1e-12, 1.0, 1e12):
        assert not is_hermitian(scale * M)
        assert is_hermitian(scale * hermitian_part(M))
    assert is_hermitian(np.zeros((3, 3)))


def test_is_hermitian_refuses_a_huge_non_hermitian_operator():
    # ||T||_F of 1e300 * M overflows unless T is scaled first, which made
    # every such T pass as Hermitian (and a controller of it be accepted)
    M = np.array([[1.0, 1.0], [-1.0, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not is_hermitian(1e300 * M)
        assert is_hermitian(1e300 * hermitian_part(M))
        with pytest.raises(NotHermitianError):
            make_controller(1e300 * M)


def test_operator_leq_decides_the_same_after_rescaling():
    rng = np.random.default_rng(13)
    X = random_positive_operator(rng, 5)
    violated = (1 + 1e-6) * X       # exceeds X by one part in 1e6
    for scale in (1e-160, 1e-6, 1.0, 1e6, 1e160):
        assert operator_leq(scale * X, scale * X)
        assert operator_leq(scale * X, scale * violated)
        assert not operator_leq(scale * violated, scale * X)
    assert operator_leq(np.zeros((3, 3)), np.zeros((3, 3)))


def test_operator_leq_runs_one_decomposition(linalg_calls):
    calls = linalg_calls("svd", "eigh", "eigvalsh", "norm2")
    rng = np.random.default_rng(14)
    T1, T2 = random_positive_operator(rng, 6), random_positive_operator(rng, 6)
    operator_leq(T1, T2)
    assert [name for name, _ in calls] == ["eigvalsh"]


def test_inverse_bounds_roundtrip():
    rng = np.random.default_rng(9)
    T = random_positive_operator(rng, 6)
    b = positive_definite_bounds(T)
    ib = inverse_bounds(b)
    w = np.linalg.eigvalsh(np.linalg.inv(T))
    np.testing.assert_allclose(ib.lower, w[0], rtol=1e-9)
    np.testing.assert_allclose(ib.upper, w[-1], rtol=1e-9)
    # applying the transform twice returns the original bounds
    rt = inverse_bounds(ib)
    np.testing.assert_allclose((rt.lower, rt.upper), (b.lower, b.upper), rtol=1e-15)


def test_default_tolerances_are_the_documented_ones():
    assert DEFAULT_TOL.rel_eq == 1e-9
    assert DEFAULT_TOL.psd_slack == 1e-9
    assert DEFAULT_TOL.rank_rel is None
