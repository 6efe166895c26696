import numpy as np
import pytest

from framekit import (
    DimensionMismatchError,
    FrameSequence,
    InvalidParametersError,
    analysis,
    frame_bounds,
    frame_operator,
    synthesis,
)
from framekit.instances import haar_unitary, parseval_frame, random_frame


def mercedes_benz():
    # three unit vectors at 120 degrees: the classic tight frame in R^2
    angles = np.array([np.pi / 2, np.pi / 2 + 2 * np.pi / 3, np.pi / 2 + 4 * np.pi / 3])
    return FrameSequence(np.vstack([np.cos(angles), np.sin(angles)]).astype(complex))


def test_frame_sequence_validation():
    with pytest.raises(InvalidParametersError):
        FrameSequence(np.zeros((0, 3)))
    with pytest.raises(InvalidParametersError):
        FrameSequence(np.zeros((3, 0)))
    with pytest.raises(InvalidParametersError):
        FrameSequence(np.array([1.0, 2.0]))
    with pytest.raises(InvalidParametersError):
        FrameSequence(np.array([[1.0, np.nan], [0.0, 1.0]]))


def test_frame_sequence_is_immutable_and_copied():
    M = np.eye(2, dtype=complex)
    frame = FrameSequence(M)
    M[0, 0] = 7.0  # mutating the source must not leak in
    assert frame.matrix[0, 0] == 1.0
    with pytest.raises((ValueError, RuntimeError)):
        frame.matrix[0, 0] = 5.0


def test_from_vectors_matches_matrix_layout():
    frame = FrameSequence.from_vectors([[1, 0], [0, 1], [1, 1]])
    assert frame.dim == 2 and frame.count == 3
    np.testing.assert_array_equal(frame.matrix, np.array([[1, 0, 1], [0, 1, 1]], dtype=complex))


def test_synthesis_direct_summation_oracle():
    rng = np.random.default_rng(10)
    frame = random_frame(rng, 4, 9)
    a = rng.normal(size=9) + 1j * rng.normal(size=9)
    expected = sum(a[n] * frame.matrix[:, n] for n in range(9))
    np.testing.assert_allclose(synthesis(frame, a), expected, atol=1e-13)
    with pytest.raises(DimensionMismatchError):
        synthesis(frame, np.ones(4))


def test_analysis_inner_product_oracle():
    rng = np.random.default_rng(11)
    frame = random_frame(rng, 4, 7)
    f = rng.normal(size=4) + 1j * rng.normal(size=4)
    # <f, f_n> with the inner product linear in its first argument
    expected = np.array([np.sum(f * np.conj(frame.matrix[:, n])) for n in range(7)])
    np.testing.assert_allclose(analysis(frame, f), expected, atol=1e-13)
    with pytest.raises(DimensionMismatchError):
        analysis(frame, np.ones(5))


def test_frame_operator_summation_oracle():
    rng = np.random.default_rng(12)
    frame = random_frame(rng, 5, 12)
    S = frame_operator(frame)
    expected = sum(np.outer(frame.matrix[:, n], frame.matrix[:, n].conj()) for n in range(12))
    np.testing.assert_allclose(S, expected, atol=1e-12)
    # S f = sum <f, f_n> f_n
    f = rng.normal(size=5) + 1j * rng.normal(size=5)
    np.testing.assert_allclose(S @ f, synthesis(frame, analysis(frame, f)), atol=1e-12)


def test_mercedes_benz_is_tight_with_bound_three_halves():
    frame = mercedes_benz()
    S = frame_operator(frame)
    np.testing.assert_allclose(S, 1.5 * np.eye(2), atol=1e-14)
    fb = frame_bounds(frame)
    assert fb.is_frame
    np.testing.assert_allclose(fb.lower, 1.5, rtol=1e-14)
    np.testing.assert_allclose(fb.upper, 1.5, rtol=1e-14)


def test_orthonormal_basis_has_unit_bounds():
    U = haar_unitary(np.random.default_rng(13), 4)
    fb = frame_bounds(FrameSequence(U))
    np.testing.assert_allclose((fb.lower, fb.upper), (1.0, 1.0), rtol=1e-12)


def test_frame_bounds_match_spectrum():
    rng = np.random.default_rng(14)
    for _ in range(10):
        frame = random_frame(rng, 5, 11)
        fb = frame_bounds(frame)
        w = np.linalg.eigvalsh(frame_operator(frame))
        np.testing.assert_allclose(fb.lower, w[0], rtol=1e-10)
        np.testing.assert_allclose(fb.upper, w[-1], rtol=1e-10)
        # the bounds are attained: check the frame inequality at the extremal eigenvectors
        _, Q = np.linalg.eigh(frame_operator(frame))
        for idx, bound in ((0, fb.lower), (-1, fb.upper)):
            v = Q[:, idx]
            energy = np.sum(np.abs(analysis(frame, v)) ** 2)
            np.testing.assert_allclose(energy, bound, rtol=1e-9)


def test_deficient_family_is_bessel_only():
    # two vectors cannot span C^3
    frame = FrameSequence(np.array([[1, 0], [0, 1], [0, 0]], dtype=complex))
    fb = frame_bounds(frame)
    assert not fb.is_frame
    assert fb.lower is None
    np.testing.assert_allclose(fb.upper, 1.0, rtol=1e-14)


def test_frame_operator_is_cached_and_read_only():
    frame = mercedes_benz()
    S = frame_operator(frame)
    assert frame_operator(frame) is S
    with pytest.raises(ValueError):
        S[0, 0] = 5.0
    np.testing.assert_allclose(S, 1.5 * np.eye(2), atol=1e-15)


def test_parseval_frame_operator_is_identity():
    frame = parseval_frame(np.random.default_rng(15), 4, 10)
    np.testing.assert_allclose(frame_operator(frame), np.eye(4), atol=1e-12)
