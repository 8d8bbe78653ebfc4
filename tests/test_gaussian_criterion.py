import numpy as np
import pytest

from cvsteer import (
    A_TO_B,
    B_TO_A,
    MARGIN_TOL,
    MAX_SQUEEZING,
    TwoModeCovariance,
    apply_gain,
    apply_loss,
    gaussian_gain_boundary,
    gaussian_loss_boundary,
    gaussian_margin,
    gaussian_steerable,
    tmsv_covariance,
)
from cvsteer.gaussian_criterion import BISECT_MAXITER, bisect

GAIN_BOUNDARIES = {0.2: 1.0389570170338835, 0.5: 1.2135522670340726, 1.0: 1.580025658385974}


def schur_margin(cov: TwoModeCovariance, direction: str) -> float:
    """Independent sign oracle via the Schur complement of the tested block.

    For c1 = c2 = c the B->A test reduces to a - c^2/b >= 1 (non-steerable),
    and symmetrically for A->B.
    """
    assert cov.c1 == pytest.approx(cov.c2)
    c = cov.c1
    if direction == B_TO_A:
        return 1.0 - (cov.a - c**2 / cov.b)
    return 1.0 - (cov.b - c**2 / cov.a)


def test_lossy_verdicts_around_half():
    base = tmsv_covariance(0.3)
    assert gaussian_steerable(apply_loss(base, 0.6, "B"), B_TO_A).steerable
    assert not gaussian_steerable(apply_loss(base, 0.4, "B"), B_TO_A).steerable


def test_vacuum_not_steerable():
    cov = tmsv_covariance(0.0)
    for direction in (B_TO_A, A_TO_B):
        verdict = gaussian_steerable(cov, direction)
        assert not verdict.steerable
        assert verdict.margin <= 0.0


def test_rejects_unphysical():
    with pytest.raises(ValueError):
        gaussian_steerable(TwoModeCovariance(0.5, 0.5, 0.0, 0.0), B_TO_A)


def assert_same_sign(cov, direction):
    oracle = schur_margin(cov, direction)
    if abs(oracle) < 1e-9:  # exact boundary point, both margins vanish
        assert abs(gaussian_margin(cov, direction)) < 1e-9
    else:
        assert np.sign(gaussian_margin(cov, direction)) == np.sign(oracle)


def test_margin_sign_matches_schur_oracle():
    for r in (0.1, 0.4, 0.9):
        for eta in np.arange(0.1, 1.0, 0.1):
            cov = apply_loss(tmsv_covariance(r), eta, "B")
            assert_same_sign(cov, B_TO_A)
            assert_same_sign(cov, A_TO_B)
        for gain in np.arange(1.0, 2.6, 0.3):
            cov = apply_gain(tmsv_covariance(r), gain, "B")
            assert_same_sign(cov, B_TO_A)
            assert_same_sign(cov, A_TO_B)


def test_swap_modes_swaps_directions():
    cov = apply_loss(tmsv_covariance(0.6), 0.35, "B")
    swapped = cov.swap_modes()
    assert gaussian_margin(cov, B_TO_A) == pytest.approx(
        gaussian_margin(swapped, A_TO_B), abs=1e-12
    )
    assert gaussian_margin(cov, A_TO_B) == pytest.approx(
        gaussian_margin(swapped, B_TO_A), abs=1e-12
    )


def test_loss_always_steerable_a_to_b():
    for r in (0.05, 0.3, 1.0):
        for eta in (0.01, 0.2, 0.7, 1.0):
            cov = apply_loss(tmsv_covariance(r), eta, "B")
            assert gaussian_steerable(cov, A_TO_B).steerable


def test_gain_always_steerable_b_to_a():
    for r in (0.05, 0.3, 1.0):
        for gain in (1.0, 1.5, 2.0, 4.0):
            cov = apply_gain(tmsv_covariance(r), gain, "B")
            assert gaussian_steerable(cov, B_TO_A).steerable


def test_amplified_b_to_a_at_high_gain():
    # Steerable B->A even well above the A->B window.
    cov = apply_gain(tmsv_covariance(0.5), 2.0, "B")
    assert gaussian_steerable(cov, B_TO_A).steerable


@pytest.mark.parametrize("r", [0.1, 0.2, 0.5, 1.0, 2.0])
def test_loss_boundary_is_half(r):
    assert gaussian_loss_boundary(r) == pytest.approx(0.5, abs=1e-6)


def test_loss_boundary_bracket_signs():
    base = tmsv_covariance(0.4)
    assert gaussian_margin(apply_loss(base, 0.49, "B"), B_TO_A) < 0.0
    assert gaussian_margin(apply_loss(base, 0.51, "B"), B_TO_A) > 0.0


@pytest.mark.parametrize("r", sorted(GAIN_BOUNDARIES))
def test_gain_boundary_closed_form(r):
    assert gaussian_gain_boundary(r) == pytest.approx(GAIN_BOUNDARIES[r], abs=1e-6)


def test_gain_boundary_settles_to_one_at_zero_squeezing():
    assert gaussian_gain_boundary(1e-9) == pytest.approx(1.0, abs=1e-6)


def test_margin_vanishes_on_exact_boundaries_up_to_the_squeezing_limit():
    # Loss B->A at eta = 1/2 and gain A->B at G*(r) = 2 cosh2r / (cosh2r + 1)
    # lie exactly on the Gaussian boundary; the computed margin stays far
    # inside the conservative band for every allowed squeezing.
    worst = 0.0
    for r in np.arange(0.25, MAX_SQUEEZING + 0.125, 0.25):
        ch = np.cosh(2 * r)
        loss = gaussian_margin(apply_loss(tmsv_covariance(r), 0.5, "B"), B_TO_A)
        gain = gaussian_margin(apply_gain(tmsv_covariance(r), 2 * ch / (ch + 1), "B"), A_TO_B)
        worst = max(worst, abs(loss), abs(gain))
    assert worst < MARGIN_TOL / 10


def test_squeezing_beyond_the_limit_is_rejected():
    # At r = 7.75 the boundary margin would read 2.4e-10 > MARGIN_TOL: a
    # non-conservative "steerable".  Such states are never built.
    with pytest.raises(ValueError, match="squeezing"):
        gaussian_steerable(apply_loss(tmsv_covariance(7.75), 0.5, "B"), B_TO_A)


def test_boundaries_reject_nonpositive_squeezing():
    for r in (0.0, -0.5):
        with pytest.raises(ValueError):
            gaussian_loss_boundary(r)
        with pytest.raises(ValueError):
            gaussian_gain_boundary(r)


def test_margin_continuity_in_parameters():
    # Adjacent grid points (1e-3 step) stay within 0.1 in margin.
    r = 0.5
    etas = np.arange(0.2, 0.8, 1e-3)
    margins = [gaussian_margin(apply_loss(tmsv_covariance(r), e, "B"), B_TO_A) for e in etas]
    assert np.abs(np.diff(margins)).max() < 0.1
    rs = np.arange(0.1, 0.7, 1e-3)
    margins = [gaussian_margin(apply_loss(tmsv_covariance(x), 0.5, "B"), B_TO_A) for x in rs]
    assert np.abs(np.diff(margins)).max() < 0.1


# (r, gaussian_loss_boundary(r), gaussian_gain_boundary(r)) as computed by
# scipy.optimize.bisect per squeezing before the batched bisection replaced it.
PINNED_BOUNDARIES = [
    (1e-09, 1e-09, 1.0),
    (0.05, 0.49999999254941946, 1.002495834604905),
    (0.3, 0.49999999254941946, 1.0848630424598638),
    (1.0, 0.49999999254941946, 1.5800256598748885),
    (2.5, 0.5000000074505806, 1.9734077770269711),
    (5.0, 0.5000000074505806, 1.9998184163130037),
]


@pytest.mark.parametrize("r, loss, gain", PINNED_BOUNDARIES)
def test_boundaries_are_pinned(r, loss, gain):
    assert repr(gaussian_loss_boundary(r)) == repr(loss)
    assert repr(gaussian_gain_boundary(r)) == repr(gain)


def test_batched_boundaries_equal_scalar_calls():
    rs = [r for r, _, _ in PINNED_BOUNDARIES] + np.linspace(0.001, MAX_SQUEEZING, 37).tolist()
    for boundary in (gaussian_gain_boundary, gaussian_loss_boundary):
        assert boundary(np.array(rs)).tolist() == [boundary(r) for r in rs]


def test_bisect_skips_empty_brackets_and_finds_each_root():
    calls = []

    def margins(index, x):
        calls.append(index.tolist())
        return x - np.array([0.25, 0.5, 0.75])[index]

    roots = bisect(margins, np.array([0.0, 0.3, 0.0]), np.array([1.0, 0.3, 1.0]), xtol=1e-12)
    assert roots[1] == 0.3  # an empty bracket returns its end unevaluated
    assert roots[[0, 2]] == pytest.approx([0.25, 0.75], abs=1e-12)
    assert all(1 not in index for index in calls)


def test_bisect_rejects_bad_brackets():
    with pytest.raises(ValueError, match="same sign"):
        bisect(lambda i, x: x, np.array([0.5]), np.array([1.0]))
    with pytest.raises(ValueError, match="NaN"):
        bisect(lambda i, x: np.where(x > 0.7, np.nan, x - 0.5), np.array([0.0]), np.array([1.0]))
    with pytest.raises(RuntimeError, match="converge"):
        bisect(lambda i, x: x, np.array([-1.0]), np.array([0.7]), xtol=1e-300)


@pytest.mark.parametrize("xtol", [1e-8, 1e-6, 1e-13])
def test_bisect_takes_scipys_steps(xtol):
    optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(7)
    roots, scale = rng.uniform(-3.0, 3.0, 200), rng.choice([-2.0, 0.5, 3.0], 200)
    lo, hi = roots - rng.uniform(0.0, 4.0, 200), roots + rng.uniform(0.0, 4.0, 200)

    def margins(index, x):
        return scale[index] * (x - roots[index]) ** 3

    expected = [
        optimize.bisect(lambda x: margins(k, x), lo[k], hi[k], xtol=xtol, maxiter=BISECT_MAXITER)
        for k in range(200)
    ]
    assert bisect(margins, lo, hi, xtol=xtol).tolist() == expected
