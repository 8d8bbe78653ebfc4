"""Property tests over the whole documented domain: r in [0, MAX_SQUEEZING],
eta in (0, 1] and G in [1, MAX_GAIN], with either mode sent through the channel,
and against a 50-digit reference TLOO margin, near the vacuum and for r in [1e-3, MAX_SQUEEZING]."""

import math

import mpmath
import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import reference_gaussian_margin, reference_margin
from cvsteer import (
    A_TO_B,
    B_TO_A,
    MARGIN_TOL,
    MAX_GAIN,
    MAX_SQUEEZING,
    apply_gain,
    apply_loss,
    build_witness,
    channel_covariance,
    check_physical,
    correlation_matrix,
    find_boundary,
    fock_density,
    gaussian_gain_boundary,
    gaussian_loss_boundary,
    gaussian_margin,
    physicality_eigenvalue,
    swap_fock_modes,
    tloo_margin,
    tloo_steerable,
    tmsv_covariance,
)
from cvsteer.scan import ROOT_XTOL


@st.composite
def channel_outputs(draw):
    """A squeezed vacuum sent through loss or gain on mode A or B."""
    cov = tmsv_covariance(draw(st.floats(0.0, MAX_SQUEEZING)))
    mode = draw(st.sampled_from("AB"))
    if draw(st.booleans()):
        return apply_loss(cov, draw(st.floats(0.0, 1.0, exclude_min=True)), mode)
    return apply_gain(cov, draw(st.floats(1.0, MAX_GAIN)), mode)


@settings(max_examples=200, deadline=None)
@given(channel_outputs())
def test_channel_outputs_stay_physical(cov):
    assert check_physical(cov)


@settings(max_examples=200, deadline=None)
@given(channel_outputs(), st.sampled_from([B_TO_A, A_TO_B]))
def test_gaussian_margin_matches_the_closed_form(cov, direction):
    # Kogias, Lee, Ragy & Adesso, PRL 114, 060403 (2015): B->A is steerable by
    # Gaussian measurements iff det gamma_B > det gamma, A->B iff det gamma_A > det gamma.
    # The standard form gives det gamma = (ab - c^2)^2, det gamma_A = a^2 and det gamma_B = b^2.
    det = (cov.a * cov.b - cov.c**2) ** 2
    log_ratio = math.log((cov.b if direction == B_TO_A else cov.a) ** 2 / det)
    if abs(log_ratio) > 1e-9:
        assert (gaussian_margin(cov, direction) > MARGIN_TOL) == (log_ratio > 0)


EPS = np.finfo(float).eps
LOG_UNIFORM_SQUEEZING = st.floats(-12.0, math.log10(MAX_SQUEEZING)).map(lambda e: min(10.0**e, MAX_SQUEEZING))


def cancelled_terms(p, q, c):
    """Size of the terms whose difference pq - c^2 gives the smaller eigenvalue
    2(pq - c^2) / (p + q + hypot(p - q, 2c)) of [[p, c], [c, q]]: its rounding
    error is a few eps times this, however small the difference."""
    return 2.0 * (abs(p * q) + c * c) / (p + q + math.hypot(p - q, 2.0 * c))


@settings(max_examples=200, deadline=None)
@given(
    LOG_UNIFORM_SQUEEZING,
    st.sampled_from([("loss", 0.0, 1.0), ("gain", 1.0, MAX_GAIN)]),
    st.floats(0.0, 1.0),
    st.sampled_from([B_TO_A, A_TO_B]),
)
def test_gaussian_margin_matches_the_50_digit_eigensolve(r, channel, u, direction):
    # Every r down to 1e-12, where the margin is O(r^2) and cosh(2r) has long rounded to 1.
    # For r <= 1e-3 the error is relative: to the margin, and to the terms its 2x2
    # determinant cancels, which is all that is left at the boundary itself (eta = 1/2).
    channel, lo, hi = channel
    param = max(lo + (hi - lo) * u, 1e-6)
    cov = channel_covariance(channel, r, param)
    tested = (cov.excess_a, cov.b) if direction == B_TO_A else (cov.a, cov.excess_b)
    physicality = [(cov.excess_a, cov.b + 1.0), (cov.a + 1.0, cov.excess_b)]
    # The physicality eigenvalue is minus the margin with the symplectic block on both modes.
    for computed, side, blocks in ((gaussian_margin(cov, direction), direction, [tested]),
                                   (-physicality_eigenvalue(cov), None, physicality)):
        reference = float(reference_gaussian_margin(channel, r, param, side))
        error = abs(computed - reference)
        assert error <= 1e-11
        if r <= 1e-3:
            terms = max(cancelled_terms(p, q, cov.c) for p, q in blocks)
            assert error <= 1e-12 * abs(reference) + 8 * EPS * terms, (computed, reference)


@settings(max_examples=200, deadline=None)
@given(
    LOG_UNIFORM_SQUEEZING,
    st.sampled_from([("loss", 0.0, 1.0), ("gain", 1.0, MAX_GAIN)]),
    st.floats(0.0, 1.0),
    st.sampled_from([2, 3]),
)
def test_gap_block_trace_norm_matches_lapack(r, channel, u, level):
    # The closed forms on the gap blocks of K against the SVD of the whole of K, r down to 1e-12,
    # where B_0 is near rank one; as a batch of one and inside a batch of 8, which takes the arrays.
    channel, lo, hi = channel
    param = max(lo + (hi - lo) * u, 1e-6)
    rs, params = np.full(8, r), np.linspace(param, lo + (hi - lo) * 0.5, 8)
    corr = correlation_matrix(fock_density(channel_covariance(channel, rs, params), level, level), level, level)
    reference = np.linalg.svd(corr.block, compute_uv=False).sum(axis=-1)
    assert np.all(np.abs(corr.trace_norm - reference) <= 1e-15 * reference)
    single = correlation_matrix(fock_density(channel_covariance(channel, r, param), level, level), level, level)
    assert single.trace_norm == corr.trace_norm[0]


@settings(max_examples=200, deadline=None)
@given(LOG_UNIFORM_SQUEEZING)
def test_boundaries_match_the_closed_forms_to_the_last_bits(r):
    # Loss B->A at eta = 1/2 and gain A->B at G*(r) = 2 cosh2r / (cosh2r + 1) = 1 + tanh(r)^2,
    # log-uniform in r down to 1e-12, where cosh(2r) has long rounded to 1.
    assert gaussian_loss_boundary(r) == 0.5
    gain = gaussian_gain_boundary(r)
    with mpmath.workdps(50):
        assert abs(mpmath.mpf(gain) - (1 + mpmath.tanh(r) ** 2)) <= 2 * math.ulp(gain)


@settings(max_examples=100, deadline=None)
@given(channel_outputs(), st.sampled_from([2, 3]))
def test_mode_swap_mirrors_direction(cov, n):
    mirrored = gaussian_margin(cov.swap_modes(), B_TO_A)
    assert abs(gaussian_margin(cov, A_TO_B) - mirrored) <= MARGIN_TOL
    rho = fock_density(cov, n, n)
    margin = tloo_steerable(rho, n, n, A_TO_B).margin
    assert abs(margin - tloo_steerable(swap_fock_modes(rho), n, n, B_TO_A).margin) <= 1e-12


# Margins resolved away from MARGIN_TOL; the witness's violation of its bound is quadratic in the margin.
RESOLVED_MARGIN = MARGIN_TOL + 1e-9


@settings(max_examples=100, deadline=None)
@given(channel_outputs(), st.sampled_from([2, 3]), st.sampled_from([B_TO_A, A_TO_B]))
def test_flagged_states_yield_violating_witnesses(cov, n, direction):
    rho = fock_density(cov, n, n)
    margin = tloo_steerable(rho, n, n, direction).margin
    if margin > RESOLVED_MARGIN:
        witness = build_witness(rho, n, n, direction)
        assert witness.variance_sum < witness.bound
    elif margin < MARGIN_TOL - 1e-9:
        with pytest.raises(ValueError, match="not flagged steerable"):
            build_witness(rho, n, n, direction)


@settings(max_examples=100, deadline=None)
@given(
    st.floats(-12.0, -2.0).map(lambda exponent: 10.0**exponent),
    st.sampled_from([("loss", 0.0, 1.0), ("gain", 1.0, MAX_GAIN)]),
    st.floats(0.0, 1.0),
    st.sampled_from([2, 3]),
    st.sampled_from([B_TO_A, A_TO_B]),
)
def test_near_vacuum_verdicts_match_the_reference(r, channel, u, n, direction):
    channel, lo, hi = channel
    param = max(lo + (hi - lo) * u, 1e-6)
    reference = reference_margin(channel, r, param, n, direction)
    if abs(reference) > 2 * MARGIN_TOL:
        rho = fock_density(channel_covariance(channel, r, param), n, n)
        assert tloo_steerable(rho, n, n, direction).steerable == (reference > 0)


def test_near_vacuum_witness_is_refused():
    # Gain on B at r = 1.18e-8: the margin scales with r as it does at r = 1e-4, so the
    # state is not flagged and no witness is built.
    def margin(r):
        rho = fock_density(apply_gain(tmsv_covariance(r), 1.069530210609182, "B"), 3, 3)
        return tloo_steerable(rho, 3, 3, B_TO_A).margin, rho

    r = 1.1761287964795848e-08
    (near, rho), (far, _) = margin(r), margin(1e-4)
    assert abs(near / r - far / 1e-4) < 1e-3
    assert near < MARGIN_TOL - 1e-9 and reference_margin("gain", r, 1.069530210609182, 3, B_TO_A) < 0
    with pytest.raises(ValueError, match="not flagged steerable"):
        build_witness(rho, 3, 3, B_TO_A)


# The documented squeezing range above the near-vacuum property's, log-uniform in r.
LOG_UNIFORM_SQUEEZING_ABOVE_1E_3 = st.floats(-3.0, math.log10(MAX_SQUEEZING)).map(lambda e: min(10.0**e, MAX_SQUEEZING))


@settings(max_examples=100, deadline=None)
@given(
    LOG_UNIFORM_SQUEEZING_ABOVE_1E_3,
    st.one_of(
        st.tuples(st.just("loss"), st.floats(1e-3, 1.0)),
        st.tuples(st.just("gain"), st.floats(-4.0, math.log10(MAX_GAIN - 1.0)).map(lambda e: 1.0 + 10.0**e)),
    ),
    st.sampled_from([2, 3]),
    st.sampled_from([B_TO_A, A_TO_B]),
)
@example(2.4693126541524966, ("gain", 1.0352422396122654), 3, B_TO_A)  # the reference SVD's retry at 60 digits
def test_tloo_margin_matches_the_50_digit_reference(r, channel, n, direction):
    # Over the whole range the worst error measured was 1.4e-14 (r = 5, G = 1.0001, level 3, A->B).
    channel, param = channel
    rho = fock_density(channel_covariance(channel, r, param), n, n)
    margin = tloo_margin(correlation_matrix(rho, n, n), direction)[()]
    assert abs(margin - float(reference_margin(channel, r, param, n, direction))) <= 1e-13


@settings(max_examples=30, deadline=None)
@given(LOG_UNIFORM_SQUEEZING_ABOVE_1E_3, st.sampled_from([2, 3]))
def test_tloo_loss_boundary_brackets_a_sign_change_of_the_50_digit_margin(r, n):
    boundary = find_boundary("loss", r, f"tloo-n{n}", B_TO_A)
    below, above = (reference_margin("loss", r, boundary + step, n, B_TO_A) for step in (-ROOT_XTOL, ROOT_XTOL))
    assert below < 0 < above, (boundary, below, above)
