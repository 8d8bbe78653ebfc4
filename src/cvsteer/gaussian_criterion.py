"""Steering criterion for Gaussian measurements, with analytic channel boundaries.

Direction convention: the "BtoA" test asks whether the state is steerable from
B to A, i.e. whether measurements on the untrusted mode B can steer the trusted
mode A.  It fails (state steerable) exactly when gamma + i*Omega_A (+) 0_B has
a negative eigenvalue; "AtoB" puts the symplectic block on mode B instead.
"""

import numpy as np

from .covariance import (
    TwoModeCovariance,
    _require,
    apply_gain,
    apply_loss,
    check_physical,
    symplectic_form,
    tmsv_covariance,
)
from .verdict import A_TO_B, B_TO_A, SteeringVerdict

_OMEGA_MODE = symplectic_form(1)

# Bisection settings for boundary finding; the Gaussian margins are smooth and
# monotone across these boundaries.  The relative tolerance is scipy's default.
BISECT_XTOL = 1e-8
BISECT_MAXITER = 200
_BISECT_RTOL = 4 * np.finfo(float).eps


def bisect(margins, lo, hi, xtol: float = BISECT_XTOL) -> np.ndarray:
    """Sign changes of a batch of margins, one per bracket [lo[i], hi[i]] (1-D).

    margins(index, x) returns the margins of the elements `index` (an integer
    array) at parameters x, as one batch.  Each element takes the steps of
    scipy.optimize.bisect, so its result is bit-identical to scipy's; an empty
    bracket (lo == hi) returns hi unevaluated.  Raises ValueError on ends of
    the same sign or a NaN margin, RuntimeError after BISECT_MAXITER halvings.
    """
    xa, xb = np.array(np.broadcast_arrays(lo, hi), dtype=float)
    root, todo = xb.copy(), np.flatnonzero(xa != xb)

    def f(index, x):
        fx = np.asarray(margins(index, x) if index.size else (), dtype=float)
        if np.isnan(fx).any():
            raise ValueError(f"margin is NaN at {x[np.isnan(fx)][0]}")
        return fx

    fa, fb = np.split(f(np.tile(todo, 2), np.concatenate([xa[todo], xb[todo]])), 2)
    same = todo[fa * fb > 0]
    if same.size:
        raise ValueError(f"margin has the same sign at both ends of [{xa[same[0]]}, {xb[same[0]]}]")
    root[todo[fa == 0]] = xa[todo[fa == 0]]
    live = (fa != 0) & (fb != 0)
    todo, fa = todo[live], fa[live]
    xa, dm = xa[todo], xb[todo] - xa[todo]
    for _ in range(BISECT_MAXITER):
        if not todo.size:
            return root
        dm = dm * 0.5
        xm = xa + dm
        fm = f(todo, xm)
        xa = np.where(fm * fa >= 0, xm, xa)
        done = (fm == 0) | (np.abs(dm) < xtol + _BISECT_RTOL * np.abs(xm))
        root[todo[done]] = xm[done]
        todo, xa, fa, dm = todo[~done], xa[~done], fa[~done], dm[~done]
    if todo.size:
        raise RuntimeError(f"bisection did not converge in {BISECT_MAXITER} steps, value is {xa[0]}")
    return root


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


def gaussian_loss_boundary(r):
    """Transmittance at which B->A Gaussian steerability of a lossy two-mode
    squeezed vacuum is lost (r: a squeezing or a 1-D array of them).

    Found by bisection on the margin; equals 1/2 independently of the squeezing.
    """
    rs, margins = _vacuum_margins(apply_loss, B_TO_A, r)
    out = bisect(margins, np.full(rs.size, 1e-9), np.full(rs.size, 1.0 - 1e-9))
    return float(out[0]) if np.ndim(r) == 0 else out


def gaussian_gain_boundary(r):
    """Gain factor at which A->B Gaussian steerability of an amplified two-mode
    squeezed vacuum is lost (r: a squeezing or a 1-D array of them).

    Found by bisection on the margin; equals 2*cosh(2r)/(cosh(2r) + 1).
    """
    rs, margins = _vacuum_margins(apply_gain, A_TO_B, r)
    # The closed-form boundary is always below 2, so [1, 4] brackets it.  With
    # no steering window at (numerically) zero squeezing the bracket is [1, 1].
    lo = np.full(rs.size, 1.0 + 1e-12)
    shut = margins(np.arange(rs.size), lo) <= 0.0
    out = bisect(margins, np.where(shut, 1.0, lo), np.where(shut, 1.0, 4.0))
    return float(out[0]) if np.ndim(r) == 0 else out


def _vacuum_margins(apply, direction: str, r):
    """The squeezings r > 0 as a 1-D array, and margins(index, param) of their
    squeezed vacua through the channel on mode B."""
    rs = np.atleast_1d(np.asarray(r, dtype=float))
    _require(~(rs <= 0.0), rs, "squeezing parameter must be > 0")  # NaN: tmsv_covariance names its domain
    return rs, lambda i, param: gaussian_margin(apply(tmsv_covariance(rs[i]), param, "B"), direction)
