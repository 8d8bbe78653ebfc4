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
from cvsteer import scan
from cvsteer.scan import find_boundary, find_roots

GAIN_BOUNDARIES = {0.2: 1.0389570170338835, 0.5: 1.2135522670340726, 1.0: 1.580025658385974}


def schur_margin(cov: TwoModeCovariance, direction: str) -> float:
    """Independent sign oracle via the Schur complement of the tested block.

    With one coupling c the B->A test reduces to a - c^2/b >= 1 (non-steerable),
    and symmetrically for A->B.
    """
    c = cov.c
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
        gaussian_steerable(TwoModeCovariance(0.5, 0.5, 0.0), B_TO_A)


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
    # At r = 7.75 the boundary margin would read 1.2e-10 > MARGIN_TOL: a
    # non-conservative "steerable".  Such states are never built.
    with pytest.raises(ValueError, match="squeezing"):
        gaussian_steerable(apply_loss(tmsv_covariance(7.75), 0.5, "B"), B_TO_A)


def test_boundaries_reject_nonpositive_squeezing():
    for r in (0.0, -0.5):
        with pytest.raises(ValueError, match=rf"^squeezing parameter must be > 0, got {r}$"):
            gaussian_loss_boundary(r)
        with pytest.raises(ValueError, match=rf"^squeezing parameter must be > 0, got {r}$"):
            gaussian_gain_boundary(r)


@pytest.mark.parametrize("r", [np.nan, 5.5])
@pytest.mark.parametrize("boundary", [gaussian_loss_boundary, gaussian_gain_boundary])
def test_boundaries_reject_squeezing_outside_the_domain(boundary, r):
    with pytest.raises(ValueError, match=rf"^squeezing parameter must lie in \[0, 5\], got {r}$"):
        boundary(r)


def test_margin_continuity_in_parameters():
    # Adjacent grid points (1e-3 step) stay within 0.1 in margin.
    r = 0.5
    etas = np.arange(0.2, 0.8, 1e-3)
    margins = [gaussian_margin(apply_loss(tmsv_covariance(r), e, "B"), B_TO_A) for e in etas]
    assert np.abs(np.diff(margins)).max() < 0.1
    rs = np.arange(0.1, 0.7, 1e-3)
    margins = [gaussian_margin(apply_loss(tmsv_covariance(x), 0.5, "B"), B_TO_A) for x in rs]
    assert np.abs(np.diff(margins)).max() < 0.1


# Squeezings from near the vacuum to MAX_SQUEEZING.
BOUNDARY_SQUEEZINGS = [1e-09, 0.05, 0.3, 1.0, 2.5, 5.0]


@pytest.mark.parametrize("r", np.linspace(0.05, MAX_SQUEEZING, 12))
def test_boundaries_meet_the_bisected_gaussian_criterion(r):
    # find_boundary bisects the eigenvalue margin itself, independently of the closed forms.
    assert find_boundary("loss", r, "gaussian", B_TO_A) == pytest.approx(gaussian_loss_boundary(r), abs=1e-7)
    assert find_boundary("gain", r, "gaussian", A_TO_B) == pytest.approx(gaussian_gain_boundary(r), abs=1e-7)


def test_batched_boundaries_equal_scalar_calls():
    rs = BOUNDARY_SQUEEZINGS + np.linspace(0.001, MAX_SQUEEZING, 37).tolist()
    for boundary in (gaussian_gain_boundary, gaussian_loss_boundary):
        assert boundary(np.array(rs)).tolist() == [boundary(r) for r in rs]


def test_bisect_skips_empty_brackets_and_finds_each_root():
    calls = []

    def margins(index, x):
        calls.append(index.tolist())
        return x - np.array([0.25, 0.5, 0.75])[index]

    roots = find_roots(margins, np.array([0.0, 0.3, 0.0]), np.array([1.0, 0.3, 1.0]), xtol=1e-12)
    assert roots[1] == 0.3  # an empty bracket returns its end unevaluated
    assert roots[[0, 2]] == pytest.approx([0.25, 0.75], abs=1e-12)
    assert all(1 not in index for index in calls)


def test_bisect_rejects_bad_brackets(monkeypatch):
    with pytest.raises(ValueError, match="same sign"):
        find_roots(lambda i, x: x, np.array([0.5]), np.array([1.0]))
    with pytest.raises(ValueError, match="NaN"):
        find_roots(lambda i, x: np.where(x > 0.7, np.nan, x - 0.5), np.array([0.0]), np.array([1.0]))
    # Interpolation lands on the exact zero of x in a few steps; one step is too few.
    monkeypatch.setattr(scan, "ROOT_MAXITER", 1)
    with pytest.raises(RuntimeError, match="converge"):
        find_roots(lambda i, x: x, np.array([-1.0]), np.array([0.7]), xtol=1e-300)


def seeded_cubics():
    """200 brackets around the triple roots of scale * (x - root)^3, which give interpolation nothing to use."""
    rng = np.random.default_rng(7)
    roots, scale = rng.uniform(-3.0, 3.0, 200), rng.choice([-2.0, 0.5, 3.0], 200)
    lo, hi = roots - rng.uniform(0.0, 4.0, 200), roots + rng.uniform(0.0, 4.0, 200)
    return roots, scale, lo, hi


def cubic(x, roots, scale):
    return scale * (x - roots) ** 3


@pytest.mark.parametrize("xtol", [1e-8, 1e-6, 1e-13])
def test_find_roots_lands_within_xtol_of_each_root(xtol):
    roots, scale, lo, hi = seeded_cubics()
    found = find_roots(lambda i, x: cubic(x, roots[i], scale[i]), lo, hi, xtol=xtol)
    assert (np.abs(found - roots) <= xtol + 4 * np.finfo(float).eps * np.abs(roots)).all()


@pytest.mark.parametrize("xtol", [1e-8, 1e-6, 1e-13])
def test_find_roots_from_known_ends_is_bit_identical(xtol):
    roots, scale, lo, hi = seeded_cubics()
    calls = []

    def margins(i, x):
        calls.append(x)
        return cubic(x, roots[i], scale[i])

    evaluated = find_roots(margins, lo, hi, xtol=xtol)
    steps = len(calls)
    given = find_roots(margins, lo, hi, xtol=xtol, ends=(cubic(lo, roots, scale), cubic(hi, roots, scale)))
    assert given.tolist() == evaluated.tolist()
    assert len(calls) - steps == steps - 1  # the end batch is the one left out


def test_find_roots_checks_known_ends():
    def never(index, x):
        pytest.fail("evaluated a known end")

    with pytest.raises(ValueError, match=r"same sign at both ends of \[0.5, 1.0\]"):
        find_roots(never, np.array([0.0, 0.5]), np.array([1.0, 1.0]), ends=([-1.0, 0.5], [1.0, 1.0]))
    with pytest.raises(ValueError, match="margin is NaN at 1.0"):
        find_roots(never, np.array([0.0]), np.array([1.0]), ends=([-0.5], [np.nan]))
    # An empty bracket is neither checked nor evaluated; a zero end is the root.
    roots = find_roots(never, np.array([0.3, 0.2]), np.array([0.3, 0.9]), ends=([np.nan, 0.0], [np.nan, 1.0]))
    assert roots.tolist() == [0.3, 0.2]


def test_find_roots_takes_a_tolerance_per_bracket():
    roots, scale, lo, hi = seeded_cubics()
    xtol = np.random.default_rng(8).choice([1e-13, 1e-8, 1e-6, 1e-3], roots.size)
    found = find_roots(lambda i, x: cubic(x, roots[i], scale[i]), lo, hi, xtol=xtol)
    assert (np.abs(found - roots) <= xtol + 4 * np.finfo(float).eps * np.abs(roots)).all()
    # Each bracket runs as it would alone at its own tolerance.
    for tol in np.unique(xtol):
        alone = find_roots(lambda i, x: cubic(x, roots[i], scale[i]), lo, hi, xtol=tol)
        assert found[xtol == tol].tolist() == alone[xtol == tol].tolist()


@pytest.mark.parametrize("xtol", [1e-8, 1e-6, 1e-13])
def test_bisect_takes_scipys_steps(xtol):
    # The halving bisection that find_roots replaced took scipy.optimize.bisect's
    # steps bit for bit. Chandrupatla's steps differ, so on the same seeded cubics
    # the two now meet within their tolerances.
    optimize = pytest.importorskip("scipy.optimize")
    roots, scale, lo, hi = seeded_cubics()
    theirs = np.array([
        optimize.bisect(cubic, lo[k], hi[k], args=(roots[k], scale[k]), xtol=xtol, maxiter=scan.ROOT_MAXITER)
        for k in range(200)
    ])
    found = find_roots(lambda i, x: cubic(x, roots[i], scale[i]), lo, hi, xtol=xtol)
    # Both lie within xtol + 4 eps |root| of the root.
    assert (np.abs(found - theirs) <= 2 * (xtol + 4 * np.finfo(float).eps * np.abs(roots))).all()


@pytest.mark.parametrize("xtol", [1e-8, 1e-6, 1e-13])
def test_find_roots_agrees_with_scipy(xtol):
    elementwise = pytest.importorskip("scipy.optimize.elementwise")
    roots, scale, lo, hi = seeded_cubics()
    theirs = elementwise.find_root(cubic, (lo, hi), args=(roots, scale), tolerances={"xatol": xtol, "fatol": 0.0})
    assert theirs.success.all()
    found = find_roots(lambda i, x: cubic(x, roots[i], scale[i]), lo, hi, xtol=xtol)
    # Both lie within xtol + 4 eps |root| of the root.
    assert (np.abs(found - theirs.x) <= 2 * (xtol + 4 * np.finfo(float).eps * np.abs(roots))).all()
