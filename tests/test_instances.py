import numpy as np
import pytest

from framekit import (
    InvalidParametersError,
    commutes,
    frame_bounds,
    frame_operator,
    is_hermitian,
    kframe_check,
    numerical_rank,
    operator_sqrt,
)
from framekit.instances import (
    INSTANCE_KINDS,
    c3_example,
    commuting_triple,
    deficient_pair,
    frame_with_spectrum,
    generate_instance,
    haar_unitary,
    parseval_frame,
    random_frame,
    random_positive_operator,
    spectral_function,
)


def test_haar_unitary_is_unitary():
    rng = np.random.default_rng(70)
    for d in (2, 5, 9):
        U = haar_unitary(rng, d)
        np.testing.assert_allclose(U.conj().T @ U, np.eye(d), atol=1e-12)


def test_frame_with_spectrum_prescribes_singular_values():
    rng = np.random.default_rng(71)
    spec = np.array([3.0, 2.0, 0.5, 0.25])
    frame = frame_with_spectrum(rng, 4, 9, spec)
    s = np.linalg.svd(frame.matrix, compute_uv=False)
    np.testing.assert_allclose(np.sort(s)[::-1], np.sort(spec)[::-1], rtol=1e-12)
    with pytest.raises(InvalidParametersError):
        frame_with_spectrum(rng, 4, 3, spec)  # fewer vectors than dimensions
    with pytest.raises(InvalidParametersError):
        frame_with_spectrum(rng, 4, 9, spec[:2])


def test_random_frame_stays_within_the_spread():
    rng = np.random.default_rng(72)
    frame = random_frame(rng, 6, 14, spread=(0.7, 1.5))
    s = np.linalg.svd(frame.matrix, compute_uv=False)
    assert np.all(s >= 0.7 - 1e-12) and np.all(s <= 1.5 + 1e-12)
    assert frame_bounds(frame).is_frame


def test_parseval_frame_is_parseval():
    frame = parseval_frame(np.random.default_rng(73), 5, 12)
    np.testing.assert_allclose(frame_operator(frame), np.eye(5), atol=1e-12)


def test_random_positive_operator_spectrum():
    T = random_positive_operator(np.random.default_rng(74), 6, spread=(0.5, 4.0))
    w = np.linalg.eigvalsh(T)
    assert np.all(w >= 0.5 - 1e-12) and np.all(w <= 4.0 + 1e-12)
    assert is_hermitian(T)


def test_spectral_function_matches_operator_sqrt():
    T = random_positive_operator(np.random.default_rng(75), 5)
    np.testing.assert_allclose(spectral_function(T, np.sqrt), operator_sqrt(T), atol=1e-11)


def test_commuting_triple_satisfies_every_hypothesis():
    rng = np.random.default_rng(76)
    for _ in range(10):
        d = int(rng.integers(3, 9))
        frame, K, ctrl = commuting_triple(rng, d, 2 * d)
        S = frame_operator(frame)
        assert commutes(ctrl, K)
        assert commutes(ctrl, S)
        assert is_hermitian(ctrl.matrix @ S)
        # the normalization keeps the controller's top eigenvalue at 1 or above
        assert ctrl.bounds.upper >= 1.0 - 1e-12
        assert kframe_check(frame, K).is_kframe


def test_commuting_triple_zero_k_controls_rank():
    rng = np.random.default_rng(77)
    frame, K, _ = commuting_triple(rng, 6, 12, zero_k=2)
    assert numerical_rank(K) == 4
    with pytest.raises(InvalidParametersError):
        commuting_triple(rng, 6, 12, zero_k=6)


def test_deficient_pair_is_never_a_kframe():
    rng = np.random.default_rng(78)
    for _ in range(10):
        d = int(rng.integers(2, 9))
        frame, K = deficient_pair(rng, d, 2 * d)
        assert not kframe_check(frame, K).is_kframe


def test_c3_example_fixed_values():
    frame, K, ctrl = c3_example()
    np.testing.assert_array_equal(K, np.array([[1, 1, 0], [0, 0, 1], [0, 0, 0]], dtype=complex))
    np.testing.assert_array_equal(frame.matrix, K)
    np.testing.assert_array_equal(frame_operator(frame), np.diag([2.0, 1.0, 0.0]))
    np.testing.assert_array_equal(ctrl.matrix, np.eye(3))


def test_generate_instance_ill_conditioned_hits_the_target():
    for cond in (1.0, 10.0, 1e4):
        frame, K, ctrl = generate_instance("ill-conditioned", 8, cond_target=cond, seed=5)
        S = frame_operator(frame)
        w = np.linalg.eigvalsh(S)
        np.testing.assert_allclose(w[-1] / w[0], cond, rtol=1e-6)
        # the frame operator is aligned with the coordinate axes
        off = S - np.diag(np.diag(S))
        assert np.linalg.norm(off) <= 1e-12 * np.linalg.norm(S)


def test_generate_instance_kinds_and_defaults():
    assert set(INSTANCE_KINDS) == {"random-frame", "ill-conditioned", "commuting-family", "paper-c3"}
    frame, K, ctrl = generate_instance("random-frame", 5, seed=2)
    assert frame.count == 10  # count defaults to 2 * dim
    np.testing.assert_array_equal(K, np.eye(5))
    frame, K, ctrl = generate_instance("commuting-family", 4, seed=2)
    assert commutes(ctrl, K)
    frame, K, ctrl = generate_instance("paper-c3")
    assert frame.dim == 3


def test_generate_instance_is_deterministic():
    a1, k1, c1 = generate_instance("commuting-family", 6, seed=99)
    a2, k2, c2 = generate_instance("commuting-family", 6, seed=99)
    np.testing.assert_array_equal(a1.matrix, a2.matrix)
    np.testing.assert_array_equal(k1, k2)
    np.testing.assert_array_equal(c1.matrix, c2.matrix)
    b1, _, _ = generate_instance("commuting-family", 6, seed=100)
    assert not np.array_equal(a1.matrix, b1.matrix)


def test_generate_instance_validation():
    with pytest.raises(InvalidParametersError):
        generate_instance("no-such-kind", 4)
    with pytest.raises(InvalidParametersError):
        generate_instance("random-frame")  # dim is required
    with pytest.raises(InvalidParametersError):
        generate_instance("random-frame", 4, count=3)
    with pytest.raises(InvalidParametersError):
        generate_instance("ill-conditioned", 8)  # cond_target is required
    with pytest.raises(InvalidParametersError):
        generate_instance("ill-conditioned", 8, cond_target=0.5)
    with pytest.raises(InvalidParametersError):
        generate_instance("ill-conditioned", 1, cond_target=10.0)
    with pytest.raises(InvalidParametersError):
        generate_instance("paper-c3", dim=4)
