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
  ``lower_opt`` underflows to ``0.0``.

Hypothesis draws the sizes, ranks and controller weights; the matrices come
from a numpy generator seeded by the drawn seed.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag

from framekit import (
    FrameSequence,
    controlled_kframe_check,
    controlled_operator_inequality,
    kframe_check,
    kframe_operator_inequality,
    make_controller,
    numerical_rank,
    rayleigh_quotients,
)
from framekit.instances import haar_unitary, random_frame

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
