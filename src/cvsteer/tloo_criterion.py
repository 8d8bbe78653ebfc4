"""Steering detection from truncated local orthogonal observables.

The test statistic is the trace norm of the TLOO correlation matrix
C_ij = <A_i x B_j> - <A_i><B_j>.  A state that admits a local-hidden-state
model for the untrusted mode must satisfy

    ||C||_tr <= sqrt((w_A - sum <A_i>^2) * (n' * w_B - sum <B_j>^2))

where w_A, w_B are the weights on the truncated levels; the trusted factor
carries no level multiplier while the untrusted one does.  Violations come
with an explicit witness: rotating both observable sets by the singular-value
factors of C concentrates all correlation on the diagonal, where a single
linear-estimate variance sum beats its uncertainty bound.
"""

from dataclasses import dataclass

import numpy as np

from .fock import FockDensity
from .observables import TlooSet, build_tloos, rotate_tloos
from .verdict import A_TO_B, B_TO_A, SteeringVerdict


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

    @property
    def trace_norm(self):
        return np.linalg.svd(self.entries, compute_uv=False).sum(axis=-1)

    def variance_sum_a(self):
        """Sum of local variances over the A-side set (completeness identity)."""
        return self.level_a * self.weight_a - (self.mean_a**2).sum(axis=-1)

    def variance_sum_b(self):
        return self.level_b * self.weight_b - (self.mean_b**2).sum(axis=-1)


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
    rotated) observable sets may be supplied.
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

    block = rho.elements[..., :level_a, :level_b, :level_a, :level_b]
    joint = np.einsum("...mpnq,inm,jqp->...ij", block, tloos_a.matrices, tloos_b.matrices)
    if np.abs(joint.imag).max(initial=0.0) >= 1e-12:
        raise ValueError("joint expectations acquired an imaginary part; state not real?")
    red_a = rho.reduced_a[..., :level_a, :level_a]
    red_b = rho.reduced_b[..., :level_b, :level_b]
    mean_a = np.einsum("...ab,jba->...j", red_a, tloos_a.matrices).real
    mean_b = np.einsum("...ab,jba->...j", red_b, tloos_b.matrices).real
    entries = joint.real - mean_a[..., :, None] * mean_b[..., None, :]
    weight_a = np.trace(red_a, axis1=-2, axis2=-1).real
    weight_b = np.trace(red_b, axis1=-2, axis2=-1).real
    return CorrelationMatrix(entries, mean_a, mean_b, weight_a, weight_b, level_a, level_b)


def criterion_rhs(corr: CorrelationMatrix, direction: str = B_TO_A):
    """Local-hidden-state bound on the trace norm for the given direction, one
    per state of a batch.

    The trusted-side factor is weight - sum of squared means; the untrusted
    side additionally carries its level multiplier.
    """
    factor_a = corr.weight_a - (corr.mean_a**2).sum(axis=-1)
    factor_b = corr.weight_b - (corr.mean_b**2).sum(axis=-1)
    if direction == B_TO_A:
        radicand = factor_a * corr.variance_sum_b()
    elif direction == A_TO_B:
        radicand = factor_b * corr.variance_sum_a()
    else:
        raise ValueError(f"unknown direction {direction!r}")
    if np.any(radicand < -1e-12):
        raise ValueError(f"negative bound radicand ({np.min(radicand)}); inconsistent local data")
    return np.sqrt(np.maximum(radicand, 0.0))


def tloo_steerable(
    rho: FockDensity, level_a: int, level_b: int, direction: str = B_TO_A
) -> SteeringVerdict:
    """Decide steerability from the trace-norm criterion at the given levels."""
    corr = correlation_matrix(rho, level_a, level_b)
    trace_norm = corr.trace_norm
    bound = criterion_rhs(corr, direction)
    margin = trace_norm - bound
    return SteeringVerdict.from_margin(
        "tloo",
        direction,
        margin,
        trace_norm=trace_norm,
        bound=bound,
        levels=(level_a, level_b),
        weight_a=corr.weight_a,
        weight_b=corr.weight_b,
    )


def optimal_gain(corr: CorrelationMatrix) -> float:
    """Linear-estimate gain minimising the paired variance sum.

    g = -(sum of diagonal covariances) / (sum of untrusted-side variances).
    """
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
    n_a, n_b = rho.cutoffs
    if tloos_a.level > n_a or tloos_b.level > n_b:
        raise ValueError("observable levels exceed density cutoffs")
    red_a = rho.reduced_a[: tloos_a.level, : tloos_a.level]
    red_b = rho.reduced_b[: tloos_b.level, : tloos_b.level]
    block = rho.elements[: tloos_a.level, : tloos_b.level, : tloos_a.level, : tloos_b.level]

    lhs = 0.0
    pairs = min(len(tloos_a), len(tloos_b))
    for j, mat_a in enumerate(tloos_a.matrices):
        mean_a = np.einsum("ab,ba->", red_a, mat_a).real
        var_a = np.einsum("ab,ba->", red_a, mat_a @ mat_a).real - mean_a**2
        lhs += var_a
        if j < pairs:
            mat_b = tloos_b.matrices[j]
            mean_b = np.einsum("ab,ba->", red_b, mat_b).real
            var_b = np.einsum("ab,ba->", red_b, mat_b @ mat_b).real - mean_b**2
            joint = np.einsum("mpnq,nm,qp->", block, mat_a, mat_b).real
            lhs += gain**2 * var_b + 2.0 * gain * (joint - mean_a * mean_b)
    weight_a = float(np.trace(red_a).real)
    bound = (tloos_a.level - 1) * weight_a
    return float(lhs), float(bound)


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
    singular values on the diagonal, then applies the optimal gain.  Raises on
    states the trace-norm criterion does not flag.
    """
    verdict = tloo_steerable(rho, level_a, level_b, direction)
    if not verdict.steerable:
        raise ValueError(f"state is not flagged steerable ({direction}); no witness exists")
    if direction == A_TO_B:
        # Mirror the state so the trusted side is always labelled A below.
        rho = swap_fock_modes(rho)
        level_a, level_b = level_b, level_a

    corr = correlation_matrix(rho, level_a, level_b)
    u, singular, vt = np.linalg.svd(corr.entries)
    rot_a = rotate_tloos(build_tloos(level_a), u.T)
    rot_b = rotate_tloos(build_tloos(level_b), vt)
    rotated = correlation_matrix(rho, level_a, level_b, rot_a, rot_b)
    pairs = min(len(rot_a), len(rot_b))
    diag = np.diag(rotated.entries)[:pairs].copy()
    if abs(diag.sum() - singular.sum()) > 1e-9:
        raise RuntimeError("rotated diagonal correlations do not reproduce the trace norm")
    gain = optimal_gain(rotated)
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
    )
