"""Steering criterion for Gaussian measurements, with analytic channel boundaries.

Direction convention: the B_TO_A test asks whether the state is steerable from
B to A, i.e. whether measurements on the untrusted mode B can steer the trusted
mode A.  It fails (state steerable) exactly when gamma + i*Omega_A (+) 0_B has
a negative eigenvalue (Kogias, Lee, Ragy & Adesso, PRL 114, 060403 (2015));
A_TO_B puts the symplectic block on mode B instead.  That matrix splits into
[[a - 1, c], [c, b]] and [[a + 1, c], [c, b]]; the margin is minus the smaller
eigenvalue of the first, with a - 1 exact, so it is precise down to the vacuum.
"""

import numpy as np

from .covariance import (  # noqa: F401, perfbench traces check_physical here
    TwoModeCovariance, _min_eigenvalue, _require, check_physical, require_physical, tmsv_covariance)
from .verdict import A_TO_B, B_TO_A, SteeringVerdict


def gaussian_margin(cov: TwoModeCovariance, direction: str = B_TO_A):
    """Signed margin of the Gaussian steering test (positive = steerable), one
    per state of a batch.  The covariance is taken to be physical."""
    if direction == B_TO_A:
        return -_min_eigenvalue(cov.excess_a, cov.b, cov.c)
    if direction == A_TO_B:
        return -_min_eigenvalue(cov.a, cov.excess_b, cov.c)
    raise ValueError(f"unknown direction {direction!r}")


def gaussian_steerable(cov: TwoModeCovariance, direction: str = B_TO_A) -> SteeringVerdict:
    """Decide steerability under Gaussian measurements in the given direction."""
    require_physical(cov)
    margin = gaussian_margin(cov, direction)
    return SteeringVerdict.from_margin("gaussian", direction, margin)


def gaussian_loss_boundary(r):
    """Transmittance at which B->A Gaussian steerability of a lossy two-mode
    squeezed vacuum is lost (r: a squeezing or a 1-D array of them).

    Equals 1/2 independently of the squeezing.
    """
    return _per_squeezing(r, lambda x: np.full_like(x, 0.5))


def gaussian_gain_boundary(r):
    """Gain factor at which A->B Gaussian steerability of an amplified two-mode
    squeezed vacuum is lost (r: a squeezing or a 1-D array of them).

    Equals 2*cosh(2r)/(cosh(2r) + 1) = 1 + x/(2 + x), x = 2*sinh(r)^2 the
    squeezed vacuum's excess noise, which keeps the small-r digits.
    """
    return _per_squeezing(r, lambda x: 1.0 + x / (2.0 + x))


def _per_squeezing(r, boundary):
    """boundary(x) for the squeezings r > 0, x the excess noise of their squeezed
    vacua as a 1-D array; a float for a scalar r."""
    rs = np.atleast_1d(np.asarray(r, dtype=float))
    _require(~(rs <= 0.0), rs, "squeezing parameter must be > 0")  # NaN: tmsv_covariance names its domain
    out = boundary(tmsv_covariance(rs).excess_a)
    return float(out[0]) if np.ndim(r) == 0 else out
