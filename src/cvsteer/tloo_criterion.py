"""Steering detection from truncated local orthogonal observables.

The test statistic is the trace norm of the TLOO correlation matrix
C_ij = <A_i x B_j> - <A_i><B_j>.  A state that admits a local-hidden-state
model for the untrusted mode must satisfy

    ||C||_tr <= sqrt((w_A - sum <A_i>^2) * (n' * w_B - sum <B_j>^2))

where w_A, w_B are the weights on the truncated levels; the trusted factor
carries no level multiplier while the untrusted one does.  For any TLOO set
sum <A_i>^2 = Tr rho_A^2, so the trusted factor is evaluated as
Tr rho_A - Tr rho_A^2, which does not cancel on a near-vacuum marginal.
Violations come with an explicit witness: rotating both observable sets by the
singular-value factors of C concentrates all correlation on the diagonal, where
a single linear-estimate variance sum beats its uncertainty bound.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .fock import FockDensity
from .observables import TlooSet, _variances, build_tloos, expectation_values, rotate_tloos, uncertainty_sum
from .verdict import A_TO_B, B_TO_A, DIRECTIONS, MARGIN_TOL, SteeringVerdict


@dataclass(frozen=True)
class CorrelationMatrix:
    """TLOO covariances of a two-mode state (or a batch) plus the cached local data."""

    entries: np.ndarray  # (level_a**2, level_b**2), real
    mean_a: np.ndarray
    mean_b: np.ndarray
    weight_a: float | np.ndarray
    weight_b: float | np.ndarray
    level_a: int
    level_b: int
    reduced_a: np.ndarray  # (level_a, level_a) truncated reduced state
    reduced_b: np.ndarray
    excited_a: float | np.ndarray  # 1 - <0|rho_A|0>, exact
    excited_b: float | np.ndarray

    @cached_property
    def trace_norm(self):
        return np.linalg.svd(self.entries, compute_uv=False).sum(axis=-1)

    def variance_sum_a(self):
        """Sum of local variances over the A-side set (completeness identity)."""
        return self.level_a * self.weight_a - (self.mean_a**2).sum(axis=-1)

    def variance_sum_b(self):
        return self.level_b * self.weight_b - (self.mean_b**2).sum(axis=-1)

    def trusted_factor_a(self):
        """Tr rho_A - Tr rho_A^2 on the truncated levels (= weight_a - sum of squared means)."""
        return _trusted_factor(self.reduced_a, self.excited_a)

    def trusted_factor_b(self):
        return _trusted_factor(self.reduced_b, self.excited_b)


def _trusted_factor(reduced: np.ndarray, excited):
    """rho_00 (1 - rho_00) plus the other diagonal entries minus the other squared entries, with
    1 - rho_00 exact: none of the three terms cancels when rho is close to the vacuum."""
    squares = reduced**2
    squares[..., 0, 0] = 0.0
    others = reduced.diagonal(0, -2, -1)[..., 1:].sum(axis=-1) - squares.sum(axis=(-2, -1))
    return reduced[..., 0, 0] * excited + others


def correlation_matrix(
    rho: FockDensity,
    level_a: int,
    level_b: int,
    tloos_a: TlooSet | None = None,
    tloos_b: TlooSet | None = None,
) -> CorrelationMatrix:
    """Assemble the correlation matrix for the given truncation levels.

    The observables act inside the cutoffs, so the joint expectations are
    exact functions of the truncated elements; the local means and weights
    come from the exact reduced states carried by rho.  Alternative (e.g.
    rotated) observable sets may be supplied.  The elements are real and
    symmetric under (m1, m2) <-> (n1, n2), as FockDensity requires, so every
    joint expectation is real and only its real part is computed.
    """
    tloos_a = tloos_a if tloos_a is not None else build_tloos(level_a)
    tloos_b = tloos_b if tloos_b is not None else build_tloos(level_b)
    if tloos_a.level != level_a or tloos_b.level != level_b:
        raise ValueError("observable sets do not match the requested levels")
    n_a, n_b = rho.cutoffs
    if level_a > n_a or level_b > n_b:
        raise ValueError(
            f"truncation levels ({level_a}, {level_b}) exceed density cutoffs ({n_a}, {n_b})"
        )

    # Tr(rho A_i x B_j) = (T_a M T_b^T)_ij, M[(m n), (p q)] = <m p|rho|n q> real, T the flattened
    # transposes, as real matmuls: Re(T_a) M Re(T_b)^T - Im(T_a) M Im(T_b)^T, the imaginary part being zero.
    block = rho.elements[..., :level_a, :level_b, :level_a, :level_b]
    joint = block.swapaxes(-3, -2).reshape(*block.shape[:-4], level_a**2, level_b**2)
    (re_a, im_a), (re_b, im_b) = tloos_a.flat_transposed, tloos_b.flat_transposed
    entries = re_a @ (joint @ re_b.T) - im_a @ (joint @ im_b.T)
    red_a = rho.reduced_a[..., :level_a, :level_a]
    red_b = rho.reduced_b[..., :level_b, :level_b]
    mean_a = expectation_values(red_a, tloos_a)
    mean_b = expectation_values(red_b, tloos_b)
    entries -= mean_a[..., :, None] * mean_b[..., None, :]
    weight_a = np.trace(red_a, axis1=-2, axis2=-1).real
    weight_b = np.trace(red_b, axis1=-2, axis2=-1).real
    return CorrelationMatrix(
        entries, mean_a, mean_b, weight_a, weight_b, level_a, level_b, red_a, red_b, rho.excited_a, rho.excited_b
    )


def criterion_rhs(corr: CorrelationMatrix, direction: str = B_TO_A):
    """Local-hidden-state bound on the trace norm for the given direction, one
    per state of a batch.

    The trusted-side factor is weight - sum of squared means, taken as
    Tr rho - Tr rho^2; the untrusted side additionally carries its level
    multiplier.
    """
    if direction == B_TO_A:
        radicand = corr.trusted_factor_a() * corr.variance_sum_b()
    elif direction == A_TO_B:
        radicand = corr.trusted_factor_b() * corr.variance_sum_a()
    else:
        raise ValueError(f"unknown direction {direction!r}")
    if np.any(radicand < -1e-12):
        raise ValueError(f"negative bound radicand ({np.min(radicand)}); inconsistent local data")
    return np.sqrt(np.maximum(radicand, 0.0))


def tloo_margin(corr: CorrelationMatrix, direction: str = B_TO_A):
    """Signed margin of the trace-norm test (positive = steerable): the trace
    norm minus its local-hidden-state bound, one per state of a batch."""
    return corr.trace_norm - criterion_rhs(corr, direction)


def tloo_steerable(
    rho: FockDensity, level_a: int, level_b: int, direction: str = B_TO_A
) -> SteeringVerdict:
    """Decide steerability from the trace-norm criterion at the given levels."""
    margin = tloo_margin(correlation_matrix(rho, level_a, level_b), direction)
    return SteeringVerdict.from_margin("tloo", direction, margin)


def optimal_gain(corr: CorrelationMatrix) -> float:
    """Linear-estimate gain -(sum of the first min(n_a^2, n_b^2) diagonal covariances) / (sum of all n_b^2
    untrusted-side variances): the vertex of paired_variance_sum when level_a >= level_b, and otherwise of
    the larger sum that also pairs each surplus B_j with the zero operator."""
    denom = corr.variance_sum_b()
    if denom <= 0.0:
        raise ValueError("untrusted-side variance sum is not positive")
    pairs = min(len(corr.mean_a), len(corr.mean_b))
    diag = float(np.trace(corr.entries[:pairs, :pairs]))
    return -diag / denom


def paired_variance_sum(
    rho: FockDensity, tloos_a: TlooSet, tloos_b: TlooSet, gain: float
) -> tuple[float, float]:
    """Variance sum of the gain-combined observable pairs and its bound.

    Evaluates sum_j var(A_j x 1 + gain * 1 x B_j) against (n - 1) * w_A, with
    A the trusted side.  Local moments use the exact reduced states; the cross
    terms use the truncated joint elements, which is exact because the
    observables act inside the cutoffs.  A_j beyond the size of the B set are
    paired with the zero operator.
    """
    level_a, level_b = tloos_a.level, tloos_b.level
    corr = correlation_matrix(rho, level_a, level_b, tloos_a, tloos_b)
    pairs = min(len(tloos_a), len(tloos_b))
    local, bound = uncertainty_sum(rho.reduced_a[:level_a, :level_a], tloos_a)
    var_b = _variances(rho.reduced_b[:level_b, :level_b], tloos_b)[:pairs]
    lhs = local + (gain**2 * var_b + 2.0 * gain * np.diag(corr.entries)[:pairs]).sum()
    return float(lhs), bound


@dataclass(frozen=True)
class Witness:
    """Explicit violation certificate built from the singular value basis."""

    direction: str
    tloos_a: TlooSet
    tloos_b: TlooSet
    gain: float
    variance_sum: float
    bound: float
    diagonal_correlations: np.ndarray


def build_witness(
    rho: FockDensity, level_a: int, level_b: int, direction: str = B_TO_A
) -> Witness:
    """Turn a trace-norm violation into an explicit variance-sum violation.

    Rotates both observable sets by the singular-value factors of the
    correlation matrix, which makes the rotated correlations diagonal with the
    singular values on the diagonal, then applies the gain that minimises the
    paired variance sum reported.  Raises on states the trace-norm criterion
    does not flag.
    """
    if direction not in DIRECTIONS:
        raise ValueError(f"unknown direction {direction!r}")
    if direction == A_TO_B:
        # Mirror the state so the trusted side is always labelled A below.
        rho = swap_fock_modes(rho)
        level_a, level_b = level_b, level_a

    corr = correlation_matrix(rho, level_a, level_b)
    if not tloo_margin(corr, B_TO_A) > MARGIN_TOL:
        raise ValueError(f"state is not flagged steerable ({direction}); no witness exists")
    u, singular, vt = np.linalg.svd(corr.entries)
    rot_a = rotate_tloos(build_tloos(level_a), u.T)
    rot_b = rotate_tloos(build_tloos(level_b), vt)
    rotated = correlation_matrix(rho, level_a, level_b, rot_a, rot_b)
    pairs = min(len(rot_a), len(rot_b))
    diag = np.diag(rotated.entries)[:pairs].copy()
    if abs(diag.sum() - singular.sum()) > 1e-9:
        raise RuntimeError("rotated diagonal correlations do not reproduce the trace norm")
    gain = float(-diag.sum() / _variances(rotated.reduced_b, rot_b)[:pairs].sum())
    lhs, bound = paired_variance_sum(rho, rot_a, rot_b, gain)
    if not lhs < bound:
        raise RuntimeError("witness failed to violate the variance-sum bound")
    return Witness(direction, rot_a, rot_b, gain, lhs, bound, diag)


def swap_fock_modes(rho: FockDensity) -> FockDensity:
    """Relabel the two modes of a truncated density (A <-> B)."""
    return FockDensity(
        np.ascontiguousarray(rho.elements.transpose(1, 0, 3, 2)),
        rho.reduced_b,
        rho.reduced_a,
        rho.excited_b,
        rho.excited_a,
    )
