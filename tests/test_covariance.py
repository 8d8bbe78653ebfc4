import numpy as np
import pytest
from conftest import gain_dilation, loss_dilation, symplectic_form

from cvsteer import (
    MAX_GAIN,
    MAX_SQUEEZING,
    TwoModeCovariance,
    apply_gain,
    apply_loss,
    check_physical,
    physicality_eigenvalue,
    tmsv_covariance,
)
from cvsteer.covariance import PHYSICALITY_TOL

COSH1 = 1.5430806348152437
SINH1 = 1.1752011936438014


def test_symplectic_form_properties():
    omega = symplectic_form(2)
    np.testing.assert_allclose(omega.T, -omega)
    np.testing.assert_allclose(omega @ omega, -np.eye(4))


def test_matrix_layout():
    cov = TwoModeCovariance(2.0, 3.0, 0.5)
    gamma = cov.matrix()
    np.testing.assert_allclose(np.diag(gamma), [2.0, 2.0, 3.0, 3.0])
    assert gamma[0, 2] == 0.5
    assert gamma[1, 3] == -0.5
    assert np.count_nonzero(gamma) == 8
    np.testing.assert_allclose(gamma, gamma.T)


def test_tmsv_zero_squeezing_is_vacuum():
    cov = tmsv_covariance(0.0)
    np.testing.assert_allclose(cov.matrix(), np.eye(4))


def test_tmsv_values():
    cov = tmsv_covariance(0.5)
    assert cov.a == pytest.approx(COSH1, abs=1e-12)
    assert cov.b == pytest.approx(COSH1, abs=1e-12)
    assert cov.c == pytest.approx(SINH1, abs=1e-12)


def test_tmsv_rejects_negative_squeezing():
    with pytest.raises(ValueError):
        tmsv_covariance(-0.1)


@pytest.mark.parametrize("r", [np.nan, np.inf, 5.0 + 1e-9, 7.75, 1e6])
def test_tmsv_rejects_non_finite_and_large_squeezing(r):
    with pytest.raises(ValueError, match=r"\[0, 5\]"):
        tmsv_covariance(r)
    with pytest.raises(ValueError, match=r"\[0, 5\]"):
        tmsv_covariance(np.array([0.5, r]))


def test_tmsv_accepts_the_squeezing_limit():
    assert MAX_SQUEEZING == 5.0
    assert check_physical(tmsv_covariance(MAX_SQUEEZING))


@pytest.mark.parametrize("r", [0.0, 0.1, 0.5, 1.0, 2.0])
def test_tmsv_is_pure(r):
    # Pure Gaussian states saturate the uncertainty bound.
    assert abs(physicality_eigenvalue(tmsv_covariance(r))) < 1e-9


def test_loss_identity_channel():
    cov = tmsv_covariance(0.7)
    out = apply_loss(cov, 1.0, "B")
    assert out == cov


def test_loss_values():
    out = apply_loss(tmsv_covariance(0.5), 0.5, "B")
    assert out.a == pytest.approx(COSH1, abs=1e-12)
    assert out.b == pytest.approx(1.2715403174076219, abs=1e-12)
    assert out.c == pytest.approx(0.830992733284057, abs=1e-12)


def test_loss_on_mode_a():
    out = apply_loss(tmsv_covariance(0.5), 0.5, "A")
    assert out.a == pytest.approx(1.2715403174076219, abs=1e-12)
    assert out.b == pytest.approx(COSH1, abs=1e-12)


def test_loss_rejects_bad_eta():
    cov = tmsv_covariance(0.3)
    for eta in (0.0, -0.2, 1.1):
        with pytest.raises(ValueError):
            apply_loss(cov, eta)


def test_loss_rejects_an_unknown_mode():
    with pytest.raises(ValueError, match=r"^mode must be 'A' or 'B', got 'C'$"):
        apply_loss(tmsv_covariance(0.5), 0.5, "C")


def test_loss_matches_beamsplitter_dilation():
    for r in (0.2, 0.6, 1.1):
        for eta in (0.15, 0.5, 0.9):
            out = apply_loss(tmsv_covariance(r), eta, "B")
            oracle = loss_dilation(tmsv_covariance(r).matrix(), eta)
            np.testing.assert_allclose(out.matrix(), oracle, atol=1e-12)


def test_loss_composes_multiplicatively():
    cov = tmsv_covariance(0.8)
    for eta1, eta2 in [(0.9, 0.7), (0.5, 0.5), (0.99, 0.3)]:
        twice = apply_loss(apply_loss(cov, eta1, "B"), eta2, "B")
        once = apply_loss(cov, eta1 * eta2, "B")
        np.testing.assert_allclose(twice.matrix(), once.matrix(), atol=1e-12)


def test_gain_identity_channel():
    cov = tmsv_covariance(0.7)
    assert apply_gain(cov, 1.0, "B") == cov


def test_gain_values():
    out = apply_gain(tmsv_covariance(0.5), 1.2, "B")
    assert out.b == pytest.approx(2.0516967617782926, abs=1e-12)
    assert out.c == pytest.approx(1.2873684067314137, abs=1e-12)
    assert out.a == pytest.approx(COSH1, abs=1e-12)
    mirrored = apply_gain(tmsv_covariance(0.5), 1.2, "A")
    assert (mirrored.a, mirrored.b, mirrored.c) == (out.b, out.a, out.c)


def test_gain_rejects_below_unity():
    with pytest.raises(ValueError):
        apply_gain(tmsv_covariance(0.3), 0.9)


@pytest.mark.parametrize("gain", [np.nan, np.inf])
def test_gain_rejects_non_finite(gain):
    with pytest.raises(ValueError, match="finite"):
        apply_gain(tmsv_covariance(0.3), gain)
    with pytest.raises(ValueError, match="finite"):
        apply_gain(tmsv_covariance(np.array([0.3, 0.4])), np.array([1.2, gain]))


def test_gain_limit_accepts_every_squeezing_up_to_the_limit():
    # Up to G = 10 the amplified squeezed vacuum passes the physicality check
    # on the whole (r, G) domain; just above the limit the gain is refused.
    assert MAX_GAIN == 10.0
    r, gain = np.meshgrid(np.linspace(0.0, MAX_SQUEEZING, 501), np.linspace(1.0, MAX_GAIN, 91))
    assert check_physical(apply_gain(tmsv_covariance(r.ravel()), gain.ravel(), "B"))
    with pytest.raises(ValueError, match="gain factor .* got 10.5"):
        apply_gain(tmsv_covariance(0.3), 10.5)


def test_gain_matches_squeezer_dilation():
    for r in (0.2, 0.6, 1.1):
        for gain in (1.0, 1.3, 2.5):
            out = apply_gain(tmsv_covariance(r), gain, "B")
            oracle = gain_dilation(tmsv_covariance(r).matrix(), gain)
            np.testing.assert_allclose(out.matrix(), oracle, atol=1e-12)


def test_channel_outputs_physical():
    for r in np.arange(0.0, 1.6, 0.25):
        cov = tmsv_covariance(r)
        for eta in np.arange(0.05, 1.001, 0.1):
            assert check_physical(apply_loss(cov, eta, "B"))
        for gain in np.arange(1.0, 3.01, 0.25):
            assert check_physical(apply_gain(cov, gain, "B"))


def test_check_physical_below_vacuum_false():
    assert not check_physical(TwoModeCovariance(0.5, 0.5, 0.0))


def test_channels_reject_unphysical_input():
    bad = TwoModeCovariance(0.5, 0.5, 0.0)
    with pytest.raises(ValueError):
        apply_loss(bad, 0.5)
    with pytest.raises(ValueError):
        apply_gain(bad, 1.5)


def test_swap_modes():
    cov = apply_loss(tmsv_covariance(0.5), 0.4, "B")
    swapped = cov.swap_modes()
    assert swapped.a == cov.b and swapped.b == cov.a
    gamma = cov.matrix()
    perm = np.zeros((4, 4))
    perm[0, 2] = perm[1, 3] = perm[2, 0] = perm[3, 1] = 1.0
    np.testing.assert_allclose(swapped.matrix(), perm @ gamma @ perm.T)


def test_excess_noise_is_carried_exactly():
    # a - 1 rounds to 0 below r ~ 7e-9; the excess field keeps 2 sinh(r)^2 through every channel.
    r, eta, gain = 1e-9, 0.3, 1.7
    x = 2.0 * np.sinh(r) ** 2
    cov = tmsv_covariance(r)
    assert cov.a - 1.0 == 0.0
    assert (cov.excess_a, cov.excess_b) == pytest.approx((x, x), rel=1e-15)
    lossy = apply_loss(cov, eta, "B")
    assert (lossy.excess_a, lossy.excess_b) == pytest.approx((x, eta * x), rel=1e-15)
    amplified = apply_gain(cov, gain, "A")
    assert amplified.excess_a == pytest.approx(gain * x + 2.0 * (gain - 1.0), rel=1e-15)
    assert amplified.mean_photons_a == amplified.excess_a / 2.0
    swapped = amplified.swap_modes()
    assert (swapped.excess_a, swapped.excess_b) == (amplified.excess_b, amplified.excess_a)
    # Three-field constructions default to a - 1 and b - 1; the excess noises are keyword-only,
    # so a stale call with two couplings fails instead of binding the second one as excess_a.
    plain = TwoModeCovariance(2.0, 3.0, 0.5)
    assert (plain.excess_a, plain.excess_b) == (1.0, 2.0)
    with pytest.raises(TypeError):
        TwoModeCovariance(2.0, 3.0, 0.5, 0.25)


def test_batched_excess_noise_matches_each_state():
    rs = np.array([0.0, 1e-9, 0.3, 2.0, 5.0])
    batch = tmsv_covariance(rs)
    for i, r in enumerate(rs):
        assert (batch.excess_a[i], batch.excess_b[i]) == (tmsv_covariance(r).excess_a, tmsv_covariance(r).excess_b)


# One value per input type: a Python float, a numpy scalar, a 0-d array and a batch of one.
INPUT_TYPES = {"float": float, "np.float64": np.float64, "0-d array": np.array, "1-D array": lambda v: np.array([v])}
NAN = float("nan")


def vacuum_with_excess(excess):
    """The vacuum with mode A's excess noise set to the value, which is then its physicality eigenvalue."""
    return TwoModeCovariance(1.0 + excess, 1.0, 0.0, excess_a=excess)


def test_the_physicality_bound_case_sits_on_the_tolerance():
    assert physicality_eigenvalue(vacuum_with_excess(-PHYSICALITY_TOL)) == -PHYSICALITY_TOL


@pytest.mark.parametrize(
    "call, value, accepted, message",
    [
        *((tmsv_covariance, r, ok, "squeezing parameter must lie in [0, 5]")
          for r, ok in ((2.5, True), (0.0, True), (MAX_SQUEEZING, True), (-0.1, False), (5.1, False), (NAN, False))),
        *((lambda eta: apply_loss(tmsv_covariance(0.4), eta), eta, ok, "transmittance must lie in (0, 1]")
          for eta, ok in ((0.5, True), (0.0, False), (1.0, True), (-0.1, False), (1.5, False), (NAN, False))),
        *((lambda g: apply_gain(tmsv_covariance(0.4), g), g, ok, "gain factor must be finite and lie in [1, 10]")
          for g, ok in ((1.5, True), (1.0, True), (MAX_GAIN, True), (0.9, False), (10.5, False), (NAN, False))),
        *((lambda x: check_physical(vacuum_with_excess(x)), x, ok, None)
          for x, ok in ((0.5, True), (0.0, True), (-PHYSICALITY_TOL, True), (-2e-10, False), (NAN, False))),
    ],
)
def test_checks_treat_scalars_and_arrays_alike(call, value, accepted, message):
    def outcome(as_type):
        try:
            result = call(as_type(value))
        except ValueError as error:
            return str(error)
        if isinstance(result, TwoModeCovariance):
            return [np.ravel(getattr(result, f)).tolist() for f in ("a", "b", "c", "excess_a", "excess_b")]
        return result

    outcomes = {name: outcome(as_type) for name, as_type in INPUT_TYPES.items()}
    assert all(o == outcomes["float"] for o in outcomes.values()), outcomes
    if message is None:  # check_physical answers without raising
        assert outcomes["float"] is accepted
    elif accepted:
        assert not isinstance(outcomes["float"], str)
    else:
        assert outcomes["float"] == f"{message}, got {value}"
