"""Two-mode Gaussian covariance matrices in standard form.

Units: hbar = 1 with quadratures X = (a + a^dag)/sqrt(2), P = (a - a^dag)/(sqrt(2) i)
and second moments scaled so that the vacuum covariance matrix is the identity.
Every routine in the package uses this convention, and also takes a batch:
TwoModeCovariance fields may be 1-D arrays, stacking the matrices to (N, 4, 4).
"""

import math
from dataclasses import dataclass

import numpy as np

# Absolute eigenvalue tolerance for all positive-semidefiniteness checks.
# Double-precision eigensolves on 4x4 matrices are accurate well below 1e-12.
PHYSICALITY_TOL = 1e-10

_OMEGA_BLOCK = np.array([[0.0, 1.0], [-1.0, 0.0]])


def symplectic_form(n_modes: int = 2) -> np.ndarray:
    """Block-diagonal symplectic form, one [[0,1],[-1,0]] block per mode."""
    blocks = [_OMEGA_BLOCK] * n_modes
    out = np.zeros((2 * n_modes, 2 * n_modes))
    for i, blk in enumerate(blocks):
        out[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = blk
    return out


_I_OMEGA = 1j * symplectic_form(2)


@dataclass(frozen=True)
class TwoModeCovariance:
    """Standard-form covariance of a two-mode Gaussian state.

    Parameterised by (a, b, c1, c2): the diagonal is (a, a, b, b) and the
    off-diagonal mode-coupling block is diag(c1, -c2).  The physical single-mode
    marginals are thermal states with mean photon numbers (a - 1)/2 and
    (b - 1)/2 respectively.  A batch of states has 1-D array fields.
    """

    a: float | np.ndarray
    b: float | np.ndarray
    c1: float | np.ndarray
    c2: float | np.ndarray

    def matrix(self) -> np.ndarray:
        """Explicit covariance matrix (X_A, P_A, X_B, P_B order): 4x4, or (N, 4, 4) for a batch."""
        gamma = np.zeros(np.shape(self.a) + (4, 4))
        gamma[..., 0, 0] = gamma[..., 1, 1] = self.a
        gamma[..., 2, 2] = gamma[..., 3, 3] = self.b
        gamma[..., 0, 2] = gamma[..., 2, 0] = self.c1
        gamma[..., 1, 3] = gamma[..., 3, 1] = -self.c2
        return gamma

    def swap_modes(self) -> "TwoModeCovariance":
        """Relabel the modes (A <-> B); the coupling block is unchanged."""
        return TwoModeCovariance(self.b, self.a, self.c1, self.c2)

    @property
    def mean_photons_a(self) -> float:
        return (self.a - 1.0) / 2.0

    @property
    def mean_photons_b(self) -> float:
        return (self.b - 1.0) / 2.0


def tmsv_covariance(r) -> TwoModeCovariance:
    """Two-mode squeezed vacuum with squeezing parameter r >= 0.

    Returns the standard form a = b = cosh(2r), c1 = c2 = sinh(2r); r = 0 is
    the two-mode vacuum.  A 1-D array of r gives a batch.
    """
    if np.any(np.less(r, 0.0)):
        raise ValueError(f"squeezing parameter must be >= 0, got {r}")
    ch, sh = _per_element(math.cosh, 2.0 * r), _per_element(math.sinh, 2.0 * r)
    return TwoModeCovariance(ch, ch, sh, sh)


def _per_element(fn, x):
    # numpy's cosh/sinh may round differently from math's; batches must match single states.
    if np.ndim(x) == 0:
        return fn(x)
    return np.array([fn(v) for v in x])


def apply_loss(cov: TwoModeCovariance, eta, mode: str = "B") -> TwoModeCovariance:
    """Pure-loss (vacuum noise) channel with transmittance eta on one mode.

    The targeted diagonal maps to eta*x + 1 - eta and both couplings pick up a
    factor sqrt(eta); the standard form is preserved.
    """
    if not np.all(np.greater(eta, 0.0) & np.less_equal(eta, 1.0)):
        raise ValueError(f"transmittance must lie in (0, 1], got {eta}")
    require_physical(cov)
    s = np.sqrt(eta)
    if mode == "B":
        return TwoModeCovariance(cov.a, eta * cov.b + 1.0 - eta, s * cov.c1, s * cov.c2)
    if mode == "A":
        return TwoModeCovariance(eta * cov.a + 1.0 - eta, cov.b, s * cov.c1, s * cov.c2)
    raise ValueError(f"mode must be 'A' or 'B', got {mode!r}")


def apply_gain(cov: TwoModeCovariance, gain, mode: str = "B") -> TwoModeCovariance:
    """Phase-insensitive amplifier with gain factor >= 1 on one mode.

    The targeted diagonal maps to G*x + G - 1 and both couplings pick up a
    factor sqrt(G).
    """
    if np.any(np.less(gain, 1.0)):
        raise ValueError(f"gain factor must be >= 1, got {gain}")
    require_physical(cov)
    s = np.sqrt(gain)
    if mode == "B":
        return TwoModeCovariance(cov.a, gain * cov.b + gain - 1.0, s * cov.c1, s * cov.c2)
    if mode == "A":
        return TwoModeCovariance(gain * cov.a + gain - 1.0, cov.b, s * cov.c1, s * cov.c2)
    raise ValueError(f"mode must be 'A' or 'B', got {mode!r}")


def check_physical(cov) -> bool:
    """True iff the covariance matrix (every one of a batch) is physical.

    Accepts a TwoModeCovariance or a symmetric 4x4 (or (N, 4, 4)) array;
    checks that gamma + i*Omega has no eigenvalue below -PHYSICALITY_TOL.
    """
    return bool((physicality_eigenvalue(cov) >= -PHYSICALITY_TOL).all())


def physicality_eigenvalue(cov):
    """Minimum eigenvalue of gamma + i*Omega (zero for pure Gaussian states),
    one per state of a batch."""
    return np.linalg.eigvalsh(_as_matrix(cov) + _I_OMEGA)[..., 0]


def _as_matrix(cov) -> np.ndarray:
    if isinstance(cov, TwoModeCovariance):
        return cov.matrix()
    gamma = np.asarray(cov, dtype=float)
    if gamma.shape[-2:] != (4, 4) or gamma.ndim > 3:
        raise ValueError(f"expected a 4x4 covariance matrix, got shape {gamma.shape}")
    if not np.allclose(gamma, np.swapaxes(gamma, -1, -2), atol=1e-12):
        raise ValueError("covariance matrix must be symmetric")
    return gamma


def require_physical(cov) -> None:
    """Raise ValueError unless check_physical(cov) holds."""
    if not check_physical(cov):
        raise ValueError("covariance matrix violates the uncertainty relation")
