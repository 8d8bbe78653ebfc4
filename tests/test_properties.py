"""Property tests over the whole documented domain: r in [0, MAX_SQUEEZING],
eta in (0, 1] and G in [1, MAX_GAIN], with either mode sent through the channel,
and near the vacuum against a 50-digit reference margin."""

import math

import mpmath
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_margin
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
    fock_density,
    gaussian_gain_boundary,
    gaussian_loss_boundary,
    gaussian_margin,
    swap_fock_modes,
    tloo_steerable,
    tmsv_covariance,
)


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
    # The standard form gives det gamma = (ab - c1^2)(ab - c2^2), det gamma_A = a^2 and det gamma_B = b^2.
    det = (cov.a * cov.b - cov.c1**2) * (cov.a * cov.b - cov.c2**2)
    log_ratio = math.log((cov.b if direction == B_TO_A else cov.a) ** 2 / det)
    if abs(log_ratio) > 1e-9:
        assert (gaussian_margin(cov, direction) > MARGIN_TOL) == (log_ratio > 0)


@settings(max_examples=200, deadline=None)
@given(st.floats(-12.0, math.log10(MAX_SQUEEZING)).map(lambda exponent: min(10.0**exponent, MAX_SQUEEZING)))
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
