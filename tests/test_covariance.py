import numpy as np
import pytest
from conftest import gain_dilation, loss_dilation

from cvsteer import (
    TwoModeCovariance,
    apply_gain,
    apply_loss,
    check_physical,
    physicality_eigenvalue,
    symplectic_form,
    tmsv_covariance,
)

COSH1 = 1.5430806348152437
SINH1 = 1.1752011936438014


def test_symplectic_form_properties():
    omega = symplectic_form(2)
    np.testing.assert_allclose(omega.T, -omega)
    np.testing.assert_allclose(omega @ omega, -np.eye(4))


def test_matrix_layout():
    cov = TwoModeCovariance(2.0, 3.0, 0.5, 0.25)
    gamma = cov.matrix()
    np.testing.assert_allclose(np.diag(gamma), [2.0, 2.0, 3.0, 3.0])
    assert gamma[0, 2] == 0.5
    assert gamma[1, 3] == -0.25
    np.testing.assert_allclose(gamma, gamma.T)


def test_tmsv_zero_squeezing_is_vacuum():
    cov = tmsv_covariance(0.0)
    np.testing.assert_allclose(cov.matrix(), np.eye(4))


def test_tmsv_values():
    cov = tmsv_covariance(0.5)
    assert cov.a == pytest.approx(COSH1, abs=1e-12)
    assert cov.b == pytest.approx(COSH1, abs=1e-12)
    assert cov.c1 == pytest.approx(SINH1, abs=1e-12)
    assert cov.c2 == pytest.approx(SINH1, abs=1e-12)


def test_tmsv_rejects_negative_squeezing():
    with pytest.raises(ValueError):
        tmsv_covariance(-0.1)


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
    assert out.c1 == pytest.approx(0.830992733284057, abs=1e-12)
    assert out.c2 == pytest.approx(0.830992733284057, abs=1e-12)


def test_loss_on_mode_a():
    out = apply_loss(tmsv_covariance(0.5), 0.5, "A")
    assert out.a == pytest.approx(1.2715403174076219, abs=1e-12)
    assert out.b == pytest.approx(COSH1, abs=1e-12)


def test_loss_rejects_bad_eta():
    cov = tmsv_covariance(0.3)
    for eta in (0.0, -0.2, 1.1):
        with pytest.raises(ValueError):
            apply_loss(cov, eta)


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
    assert out.c1 == pytest.approx(1.2873684067314137, abs=1e-12)
    assert out.a == pytest.approx(COSH1, abs=1e-12)
    mirrored = apply_gain(tmsv_covariance(0.5), 1.2, "A")
    assert (mirrored.a, mirrored.b, mirrored.c1) == (out.b, out.a, out.c1)


def test_gain_rejects_below_unity():
    with pytest.raises(ValueError):
        apply_gain(tmsv_covariance(0.3), 0.9)


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


def test_check_physical_vacuum_true():
    assert check_physical(np.eye(4))


def test_check_physical_below_vacuum_false():
    assert not check_physical(TwoModeCovariance(0.5, 0.5, 0.0, 0.0))


def test_check_physical_rejects_nonsymmetric():
    bad = np.eye(4)
    bad[0, 1] = 0.3
    with pytest.raises(ValueError):
        check_physical(bad)


def test_channels_reject_unphysical_input():
    bad = TwoModeCovariance(0.5, 0.5, 0.0, 0.0)
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
