"""Two-mode Gaussian covariance matrices in standard form.

Units: hbar = 1 with quadratures X = (a + a^dag)/sqrt(2), P = (a - a^dag)/(sqrt(2) i)
and second moments scaled so that the vacuum covariance matrix is the identity.
Every routine in the package uses this convention, and also takes a batch:
TwoModeCovariance fields may be 1-D arrays, one entry per state.  Squeezed vacua
through phase-insensitive loss or gain have one coupling c, so every covariance
spectrum the package needs is the smaller eigenvalue of a real symmetric 2x2 block.
"""

import math
from dataclasses import KW_ONLY, dataclass

import numpy as np

# Absolute eigenvalue tolerance for all positive-semidefiniteness checks.
PHYSICALITY_TOL = 1e-10

# Largest squeezing accepted.  Up to r = 5 the Gaussian margin on the exact channel
# boundaries stays within 4e-12 of zero; beyond it the rounding of cosh(2r) breaks
# the conservative verdicts at MARGIN_TOL (from r = 7.12) and the physicality check
# of pure states (from r = 7.14).
MAX_SQUEEZING = 5.0

# Largest amplifier gain accepted, five times the paper's window G < 2.  The check
# does not limit it: with r <= MAX_SQUEEZING the amplified squeezed vacuum keeps its
# smallest eigenvalue above -6e-12 up to G = 10, and above -8e-12 up to G = 1000.
MAX_GAIN = 10.0


@dataclass(frozen=True)
class TwoModeCovariance:
    """Standard-form covariance of a two-mode Gaussian state.

    Parameterised by (a, b, c): the diagonal is (a, a, b, b) and the mode-coupling
    block is diag(c, -c).  The single-mode marginals are thermal states with mean
    photon numbers (a - 1)/2 and (b - 1)/2.  The keyword-only excess_a and excess_b
    carry a - 1 and b - 1 without the cancellation of that subtraction (they default
    to it); the channels below update them exactly.  A batch has 1-D array fields.
    """

    a: float | np.ndarray
    b: float | np.ndarray
    c: float | np.ndarray
    _: KW_ONLY
    excess_a: float | np.ndarray | None = None
    excess_b: float | np.ndarray | None = None

    def __post_init__(self):
        if self.excess_a is None:
            object.__setattr__(self, "excess_a", self.a - 1.0)
        if self.excess_b is None:
            object.__setattr__(self, "excess_b", self.b - 1.0)

    def matrix(self) -> np.ndarray:
        """Explicit covariance matrix (X_A, P_A, X_B, P_B order): 4x4, or (N, 4, 4) for a batch."""
        gamma = np.zeros(np.shape(self.a) + (4, 4))
        gamma[..., 0, 0] = gamma[..., 1, 1] = self.a
        gamma[..., 2, 2] = gamma[..., 3, 3] = self.b
        gamma[..., 0, 2] = gamma[..., 2, 0] = self.c
        gamma[..., 1, 3] = gamma[..., 3, 1] = -self.c
        return gamma

    def swap_modes(self) -> "TwoModeCovariance":
        """Relabel the modes (A <-> B); the coupling block is unchanged."""
        return TwoModeCovariance(self.b, self.a, self.c, excess_a=self.excess_b, excess_b=self.excess_a)

    @property
    def mean_photons_a(self) -> float:
        return self.excess_a / 2.0

    @property
    def mean_photons_b(self) -> float:
        return self.excess_b / 2.0


def tmsv_covariance(r) -> TwoModeCovariance:
    """Two-mode squeezed vacuum with squeezing parameter 0 <= r <= MAX_SQUEEZING.

    Returns the standard form a = b = cosh(2r), c = sinh(2r), with
    excess noise a - 1 = 2 sinh(r)^2; r = 0 is the two-mode vacuum.  A 1-D
    array of r gives a batch.
    """
    _require((r >= 0.0) & (r <= MAX_SQUEEZING), r, f"squeezing parameter must lie in [0, {MAX_SQUEEZING:g}]")
    ch, sh = _per_element(math.cosh, 2.0 * r), _per_element(math.sinh, 2.0 * r)
    shr = _per_element(math.sinh, r)
    excess = 2.0 * shr * shr
    return TwoModeCovariance(ch, ch, sh, excess_a=excess, excess_b=excess)


def _require(ok, values, message: str) -> None:
    """Raise ValueError(message) naming the first value where ok is False."""
    if not _all(ok):
        raise ValueError(f"{message}, got {np.broadcast_to(values, np.shape(ok))[np.logical_not(ok)][0]}")


def _all(ok) -> bool:
    """ok.all() of an array, the truth of a scalar (bool or numpy bool) without numpy's per-call cost."""
    return bool(ok.all() if isinstance(ok, np.ndarray) else ok)


def _per_element(fn, x):
    # numpy's cosh/sinh may round differently from math's; batches must match single states.
    if np.ndim(x) == 0:
        return fn(x)
    return np.fromiter(map(fn, x.tolist()), float, len(x))


def apply_loss(cov: TwoModeCovariance, eta, mode: str = "B") -> TwoModeCovariance:
    """Pure-loss (vacuum noise) channel with transmittance eta on one mode.

    The targeted diagonal maps to eta*x + 1 - eta (its excess noise to
    eta times itself) and the coupling picks up a factor sqrt(eta); the
    standard form is preserved.
    """
    _require((eta > 0.0) & (eta <= 1.0), eta, "transmittance must lie in (0, 1]")
    require_physical(cov)
    s = np.sqrt(eta)
    return _on_mode(cov, mode, lambda c: TwoModeCovariance(
        c.a, eta * c.b + 1.0 - eta, s * c.c, excess_a=c.excess_a, excess_b=eta * c.excess_b))


def apply_gain(cov: TwoModeCovariance, gain, mode: str = "B") -> TwoModeCovariance:
    """Phase-insensitive amplifier with gain factor 1 <= G <= MAX_GAIN on one mode.

    The targeted diagonal maps to G*x + G - 1 (its excess noise x - 1 to
    G*(x - 1) + 2*(G - 1)) and the coupling picks up a factor sqrt(G).
    """
    _require((gain >= 1.0) & (gain <= MAX_GAIN), gain, f"gain factor must be finite and lie in [1, {MAX_GAIN:g}]")
    require_physical(cov)
    s = np.sqrt(gain)
    return _on_mode(cov, mode, lambda c: TwoModeCovariance(
        c.a, gain * c.b + gain - 1.0, s * c.c,
        excess_a=c.excess_a, excess_b=gain * c.excess_b + 2.0 * (gain - 1.0)))


def _on_mode(cov: TwoModeCovariance, mode: str, update) -> TwoModeCovariance:
    """update (a channel on mode B) applied to the named mode: mode A is mode B of the swapped state."""
    if mode == "B":
        return update(cov)
    if mode == "A":
        return update(cov.swap_modes()).swap_modes()
    raise ValueError(f"mode must be 'A' or 'B', got {mode!r}")


def check_physical(cov: TwoModeCovariance) -> bool:
    """True iff the covariance (every one of a batch) is physical: gamma + i*Omega
    has no eigenvalue below -PHYSICALITY_TOL."""
    return _all(physicality_eigenvalue(cov) >= -PHYSICALITY_TOL)


def physicality_eigenvalue(cov: TwoModeCovariance):
    """Minimum eigenvalue of gamma + i*Omega (zero for pure Gaussian states), one per
    state of a batch.  The matrix splits on {A(1, i), B(1, -i)} and {A(1, -i), B(1, i)}
    into [[a - 1, c], [c, b + 1]] and [[a + 1, c], [c, b - 1]], a - 1 and b - 1 exact."""
    lower = _min_eigenvalue(cov.excess_a, cov.b + 1.0, cov.c)
    return np.minimum(lower, _min_eigenvalue(cov.a + 1.0, cov.excess_b, cov.c))


def _min_eigenvalue(p, q, c):
    """Smaller eigenvalue of the real symmetric [[p, c], [c, q]], max(p, q) > 0, as the
    determinant over the larger one, so that a small one keeps its relative precision."""
    return 2.0 * (p * q - c * c) / (p + q + np.hypot(p - q, 2.0 * c))


def require_physical(cov) -> None:
    """Raise ValueError unless check_physical(cov) holds."""
    if not check_physical(cov):
        raise ValueError("covariance matrix violates the uncertainty relation")
