"""Steering criterion for Gaussian measurements, with analytic channel boundaries.

Direction convention: the "BtoA" test asks whether the state is steerable from
B to A, i.e. whether measurements on the untrusted mode B can steer the trusted
mode A.  It fails (state steerable) exactly when gamma + i*Omega_A (+) 0_B has
a negative eigenvalue; "AtoB" puts the symplectic block on mode B instead.
"""

import numpy as np
from scipy.optimize import bisect

from .covariance import (
    TwoModeCovariance,
    apply_gain,
    apply_loss,
    check_physical,
    symplectic_form,
    tmsv_covariance,
)
from .verdict import A_TO_B, B_TO_A, SteeringVerdict

_OMEGA_MODE = symplectic_form(1)

# Bisection settings for boundary finding; the Gaussian margins are smooth and
# monotone across these boundaries.
BISECT_XTOL = 1e-8
BISECT_MAXITER = 200


def gaussian_margin(cov: TwoModeCovariance, direction: str = B_TO_A):
    """Signed margin of the Gaussian steering test (positive = steerable), one
    per state of a batch.  The covariance is taken to be physical."""
    gamma = cov.matrix().astype(complex)
    if direction == B_TO_A:
        gamma[..., :2, :2] += 1j * _OMEGA_MODE
    elif direction == A_TO_B:
        gamma[..., 2:, 2:] += 1j * _OMEGA_MODE
    else:
        raise ValueError(f"unknown direction {direction!r}")
    return -np.linalg.eigvalsh(gamma)[..., 0]


def gaussian_steerable(cov: TwoModeCovariance, direction: str = B_TO_A) -> SteeringVerdict:
    """Decide steerability under Gaussian measurements in the given direction."""
    if not check_physical(cov):
        raise ValueError("covariance matrix violates the uncertainty relation")
    margin = gaussian_margin(cov, direction)
    return SteeringVerdict.from_margin("gaussian", direction, margin)


def gaussian_loss_boundary(r: float) -> float:
    """Transmittance at which B->A Gaussian steerability of a lossy two-mode
    squeezed vacuum is lost.

    Found by bisection on the margin; equals 1/2 independently of the squeezing.
    """
    if r <= 0.0:
        raise ValueError(f"squeezing parameter must be > 0, got {r}")
    base = tmsv_covariance(r)

    def margin(eta: float) -> float:
        return gaussian_margin(apply_loss(base, eta, "B"), B_TO_A)

    return float(bisect(margin, 1e-9, 1.0 - 1e-9, xtol=BISECT_XTOL, maxiter=BISECT_MAXITER))


def gaussian_gain_boundary(r: float) -> float:
    """Gain factor at which A->B Gaussian steerability of an amplified two-mode
    squeezed vacuum is lost.

    Found by bisection on the margin; equals 2*cosh(2r)/(cosh(2r) + 1).
    """
    if r <= 0.0:
        raise ValueError(f"squeezing parameter must be > 0, got {r}")
    base = tmsv_covariance(r)

    def margin(gain: float) -> float:
        return gaussian_margin(apply_gain(base, gain, "B"), A_TO_B)

    # The closed-form boundary is always below 2, so [1, 4] brackets it.
    lo, hi = 1.0 + 1e-12, 4.0
    if margin(lo) <= 0.0:
        # No steering window at (numerically) zero squeezing.
        return 1.0
    return float(bisect(margin, lo, hi, xtol=BISECT_XTOL, maxiter=BISECT_MAXITER))
