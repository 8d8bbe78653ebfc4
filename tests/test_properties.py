"""Property tests over the whole documented domain: r in [0, MAX_SQUEEZING],
eta in (0, 1] and G in [1, MAX_GAIN], with either mode sent through the channel."""

import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from cvsteer import (
    A_TO_B,
    B_TO_A,
    MARGIN_TOL,
    MAX_GAIN,
    MAX_SQUEEZING,
    apply_gain,
    apply_loss,
    build_witness,
    check_physical,
    fock_density,
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


@settings(max_examples=100, deadline=None)
@given(channel_outputs(), st.sampled_from([2, 3]))
def test_mode_swap_mirrors_direction(cov, n):
    mirrored = gaussian_margin(cov.swap_modes(), B_TO_A)
    assert abs(gaussian_margin(cov, A_TO_B) - mirrored) <= MARGIN_TOL
    rho = fock_density(cov, n, n)
    margin = tloo_steerable(rho, n, n, A_TO_B).margin
    assert abs(margin - tloo_steerable(swap_fock_modes(rho), n, n, B_TO_A).margin) <= 1e-12


# The sqrt in criterion_rhs turns the ~1e-16 rounding of its radicand into up to
# ~1e-8 of margin, and the witness's violation of its bound is quadratic in the
# margin; the property asks for a witness where the margin is resolved.
RESOLVED_MARGIN = 1e-6


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


@pytest.mark.xfail(raises=RuntimeError, strict=True, reason="margin below rounding resolution at r ~ 1e-8")
def test_witness_for_a_margin_at_the_rounding_floor():
    # Flagged with margin 2.1e-8, but the bound's trusted factor cancels to 0 and
    # the witness's variance sum misses its bound by rounding.
    rho = fock_density(apply_gain(tmsv_covariance(1.1761287964795848e-08), 1.069530210609182, "B"), 3, 3)
    assert tloo_steerable(rho, 3, 3, B_TO_A).margin > MARGIN_TOL + 1e-9
    build_witness(rho, 3, 3, B_TO_A)
