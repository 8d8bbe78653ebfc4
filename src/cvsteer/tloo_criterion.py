"""Steering detection from truncated local orthogonal observables.

The test statistic is the trace norm of the TLOO correlation matrix
C_ij = <A_i x B_j> - <A_i><B_j>.  A state that admits a local-hidden-state
model for the untrusted mode must satisfy

    ||C||_tr <= sqrt((w_A - sum <A_i>^2) * (n' * w_B - sum <B_j>^2))

where w_A, w_B are the weights on the truncated levels; the trusted factor
carries no level multiplier while the untrusted one does.  Neither side needs
an observable basis: C = T_a K T_b^T with T_a, T_b unitary and K the realignment
of rho - rho_A x rho_B, and sum <A_i>^2 = Tr rho_A^2 for any TLOO set, so the
trusted factor Tr rho_A - Tr rho_A^2 does not cancel on a near-vacuum marginal.
On a Gaussian state K is zero off its gap blocks K[(i i+g), (j j+g)], 1x1, 2x2
and 3x3 at levels 2 and 3, with closed-form trace norms: no LAPACK call there.
Violations come with an explicit witness: rotating both observable sets by the
singular-value factors of C concentrates all correlation on the diagonal, where
a single linear-estimate variance sum beats its uncertainty bound.
"""

import math
from dataclasses import dataclass, replace
from functools import cache, cached_property

import numpy as np

from .fock import FockDensity
from .observables import TlooSet, _variances, build_tloos, rotate_tloos
from .verdict import A_TO_B, B_TO_A, DIRECTIONS, MARGIN_TOL, SteeringVerdict


@dataclass(frozen=True)
class CorrelationMatrix:
    """A two-mode state (or a batch), the observable sets and the truncated reduced states; K and C on first read."""

    rho: FockDensity
    tloos_a: TlooSet
    tloos_b: TlooSet
    reduced_a: np.ndarray  # (level_a, level_a) truncated reduced state
    reduced_b: np.ndarray

    @cached_property
    def block(self) -> np.ndarray:
        """K[(m n), (p q)] = <m p|rho|n q> - <m|rho_A|n><p|rho_B|q>, real: rho - rho_A x rho_B realigned."""
        return _realigned(self.rho.elements, self.reduced_a, self.reduced_b)

    @cached_property
    def trace_norm(self):
        """Sum of the singular values of K, one per state of a batch: ||B_0||_tr + 2 sum_{g>=1} ||B_g||_tr on
        the gap blocks (_gap_cells, read from rho and the reduced states) of a sector state at equal levels 2
        and 3, each a closed form (_gap_trace_norm); the SVD of K otherwise and for a B_0 too near rank one."""
        level, batch = self.tloos_a.level, self.rho.elements.shape[:-4]
        if level != self.tloos_b.level or level > 3 or not self.rho.sector:
            return _svd_trace_norm(self.block)
        m_a, m_b, n_a, n_b = _gap_cells(level)
        cells = self.rho.elements[..., m_a, m_b, n_a, n_b] - self.reduced_a[..., m_a, n_a] * self.reduced_b[..., m_b, n_b]
        cells = cells.reshape(-1, len(m_a))
        if 0 < len(cells) < _FLOAT_BATCH:
            norm, coarse = map(np.array, zip(*(_gap_trace_norm(row, level, *_FLOAT_OPS) for row in cells.tolist())))
        else:
            norm, coarse = _gap_trace_norm(cells.T, level, *_ARRAY_OPS)
        if np.any(coarse):  # K of only these states, not cached
            mask = coarse.reshape(batch)
            norm[coarse] = _svd_trace_norm(_realigned(self.rho.elements[mask], self.reduced_a[mask], self.reduced_b[mask]))
        return norm.reshape(batch)[()]

    @cached_property
    def entries(self) -> np.ndarray:
        """TLOO covariances C_ij = <A_i x B_j> - <A_i><B_j> = (T_a K T_b^T)_ij, T[j, (m n)] = <n|A_j|m> row-major."""
        t_a, t_b = (tloos.matrices.swapaxes(-1, -2).reshape(len(tloos), -1) for tloos in (self.tloos_a, self.tloos_b))
        return (t_a @ self.block @ t_b.T).real

    def variance_sum_a(self):
        """Sum of local variances over any A-side set: level * Tr rho_A - Tr rho_A^2 (completeness identity)."""
        return _variance_sum(self.reduced_a)

    def variance_sum_b(self):
        return _variance_sum(self.reduced_b)

    @cached_property
    def paired_variance_b(self):
        """Sum of Var(B_j) over the first min(n_a^2, n_b^2) B-side observables, those paired with an A_j."""
        pairs = min(len(self.tloos_a), len(self.tloos_b))
        if pairs == len(self.tloos_b):
            return self.variance_sum_b()
        return _variances(self.reduced_b, self.tloos_b)[..., :pairs].sum(axis=-1)

    def trusted_factor_a(self):
        """Tr rho_A - Tr rho_A^2 on the truncated levels."""
        return _trusted_factor(self.reduced_a, self.rho.excited_a)

    def trusted_factor_b(self):
        return _trusted_factor(self.reduced_b, self.rho.excited_b)


def _realigned(elements, reduced_a, reduced_b) -> np.ndarray:
    """A new K[..., (m n), (p q)] = elements[..., m, p, n, q] - rho_A[m, n] rho_B[p, q]: rho - rho_A x rho_B realigned."""
    n_a, n_b = reduced_a.shape[-1], reduced_b.shape[-1]
    block = elements[..., :n_a, :n_b, :n_a, :n_b].swapaxes(-3, -2).copy().reshape(*elements.shape[:-4], n_a**2, n_b**2)
    block -= reduced_a.reshape(*reduced_a.shape[:-2], -1, 1) * reduced_b.reshape(*reduced_b.shape[:-2], 1, -1)
    return block


@cache
def _gap_cells(level: int) -> tuple[np.ndarray, ...]:
    """The (m_a, m_b, n_a, n_b) of B_g[i, j] = K[(i i+g), (j j+g)] by g < level, i, j; B_-g = B_g as rho is symmetric."""
    g, i, j = np.array([(g, i, j) for g in range(level) for i in range(level - g) for j in range(level - g)]).T
    return i, j, i + g, j + g


# Batches smaller than this take the closed forms state by state in Python floats, which round as
# numpy's arrays do: numpy's cost per call, near a microsecond, outweighs a few states' arithmetic.
# Each path's (sqrt, largest |cell|).
_FLOAT_BATCH = 8
_FLOAT_OPS = (math.sqrt, lambda cells: max(max(cells), -min(cells)))
_ARRAY_OPS = (np.sqrt, lambda cells: np.abs(cells).max(axis=0))


def _gap_trace_norm(cells, level, sqrt, largest):
    """||B_0||_tr + 2 sum_{g>=1} ||B_g||_tr from the _gap_cells cells of one state (Python floats) or of
    a batch (one array per cell), and whether _three_by_three refers B_0 to the SVD."""
    if level == 2:  # B_0 2x2, B_1 1x1
        return _two_by_two(*cells[:4], sqrt) + 2.0 * abs(cells[4]), False
    norm, coarse = _three_by_three(cells[:9], sqrt, largest)
    return norm + 2.0 * (_two_by_two(*cells[9:13], sqrt) + abs(cells[13])), coarse


def _two_by_two(a, b, c, d, sqrt):
    """sigma_1 + sigma_2 of [[a, b], [c, d]]: its square is ||B||_F^2 + 2 |det B|."""
    return sqrt(a * a + b * b + c * c + d * d + 2.0 * abs(a * d - b * c))


def _three_by_three(cells, sqrt, largest):
    """s = sigma_1 + sigma_2 + sigma_3 of a 3x3 block (row-major cells), and whether its det is too coarse for s.

    With F = ||B||_F^2, A = ||adj B||_F^2 and D = |det B|, q = e_2(sigma) solves q^2 = A + 2 D sqrt(F + 2q)
    and s = sqrt(F + 2q).  That g(q) is convex with g' = 2 (q - D/s) > 0 above the root, so three Newton
    steps from the upper bound sqrt(A + 2 D sqrt(F + 2 sqrt(3A))) (Cauchy-Schwarz: q <= sqrt(3A)) descend
    to it; the guard on A = 0 keeps the zero block from 0/0.  The block is scaled to a largest |entry| of 1
    first (A is a fourth power).  D, expanded along the first row, is off by up to about eps P, P the sum
    of its six products' magnitudes, and that moves s by eps P / (q s) relative: near rank one that can
    reach eps sigma_1 / sigma_2 on a dense block, while a fock_density block, graded, keeps P small.  A
    block with P > 10 q s is flagged for the SVD.
    """
    scale = largest(cells)
    scale = scale + (scale == 0.0)
    a, b, c, d, e, f, g, h, i = [x / scale for x in cells]
    ei, fh, di, fg, dh, eg = e * i, f * h, d * i, f * g, d * h, e * g
    m0, m1, m2 = ei - fh, di - fg, dh - eg  # the minors, written out: a fixed order of rounding
    m3, m4, m5 = b * i - c * h, a * i - c * g, a * h - b * g
    m6, m7, m8 = b * f - c * e, a * f - c * d, a * e - b * d
    frob = a * a + b * b + c * c + d * d + e * e + f * f + g * g + h * h + i * i
    adj = m0 * m0 + m1 * m1 + m2 * m2 + m3 * m3 + m4 * m4 + m5 * m5 + m6 * m6 + m7 * m7 + m8 * m8
    det = abs(a * m0 - b * m1 + c * m2)
    products = abs(a) * (abs(ei) + abs(fh)) + abs(b) * (abs(di) + abs(fg)) + abs(c) * (abs(dh) + abs(eg))
    q = sqrt(adj + 2.0 * det * sqrt(frob + 2.0 * sqrt(3.0 * adj)))
    for _ in range(3):
        s = sqrt(frob + 2.0 * q)
        q = (s * (q * q + adj) + 2.0 * det * (frob + q)) / (2.0 * (q * s - det) + (adj == 0.0))
    s = sqrt(frob + 2.0 * q)
    return scale * s, products > 10.0 * q * s


def _svd_trace_norm(block: np.ndarray):
    return np.linalg.svd(block, compute_uv=False).sum(axis=-1)


def _variance_sum(reduced: np.ndarray):
    return reduced.shape[-1] * reduced.trace(axis1=-2, axis2=-1) - (reduced**2).sum(axis=(-2, -1))


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
    exact functions of the truncated elements; the local terms come from the
    exact reduced states carried by rho.  K is built on first read (entries,
    the SVD); a sector state's margin reads its gap-block cells from rho.
    Alternative (e.g. rotated) observable sets may be supplied; the margin reads none.
    """
    tloos_a = tloos_a if tloos_a is not None else build_tloos(level_a)
    tloos_b = tloos_b if tloos_b is not None else build_tloos(level_b)
    if tloos_a.level != level_a or tloos_b.level != level_b:
        raise ValueError("observable sets do not match the requested levels")
    if level_a > rho.cutoffs[0] or level_b > rho.cutoffs[1]:
        raise ValueError(f"truncation levels ({level_a}, {level_b}) exceed density cutoffs {rho.cutoffs}")
    red_a, red_b = rho.reduced_a[..., :level_a, :level_a], rho.reduced_b[..., :level_b, :level_b]
    return CorrelationMatrix(rho, tloos_a, tloos_b, red_a, red_b)


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
    if (radicand < -1e-12).any():
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
    """Linear-estimate gain -(sum of the first min(n_a^2, n_b^2) diagonal covariances) / (sum of those
    min(n_a^2, n_b^2) untrusted-side variances): the vertex of the paired variance sum on corr's own sets."""
    denom = corr.paired_variance_b
    if denom <= 0.0:
        raise ValueError("untrusted-side variance sum is not positive")
    return float(-corr.entries.trace() / denom)


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
    return _paired_sum(correlation_matrix(rho, tloos_a.level, tloos_b.level, tloos_a, tloos_b), gain)


def _paired_sum(corr: CorrelationMatrix, gain: float) -> tuple[float, float]:
    """paired_variance_sum on corr's own sets and reduced states; the A-side sum is over the whole set."""
    weight = float(corr.reduced_a.trace())
    if not weight <= 1.0 + 1e-9:  # NaN included
        raise ValueError(f"state weight must be at most 1, got {weight}")
    lhs = corr.variance_sum_a() + gain**2 * corr.paired_variance_b + 2.0 * gain * corr.entries.trace()
    return float(lhs), float((corr.tloos_a.level - 1) * weight)


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

    Rotates both observable sets by the singular-value factors of C = U S V^T,
    so the rotated correlations U^T C V are diagonal with the singular values,
    then applies optimal_gain, the vertex of the paired variance sum, and reports
    that sum: V_A - ||C||_tr^2 / V_B at equal levels, V_X = n Tr rho_X - Tr rho_X^2
    by completeness.  Raises on states the trace-norm criterion does not flag.
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
    rotated = replace(corr, tloos_a=rotate_tloos(corr.tloos_a, u.T), tloos_b=rotate_tloos(corr.tloos_b, vt))
    vars(rotated)["entries"] = u.T @ corr.entries @ vt.T  # the rotated sets' covariances, from the one SVD
    diag = rotated.entries.diagonal().copy()
    if abs(diag.sum() - singular.sum()) > 1e-9:
        raise RuntimeError("rotated diagonal correlations do not reproduce the trace norm")
    gain = optimal_gain(rotated)
    lhs, bound = _paired_sum(rotated, gain)
    if not lhs < bound:
        raise RuntimeError("witness failed to violate the variance-sum bound")
    return Witness(direction, rotated.tloos_a, rotated.tloos_b, gain, lhs, bound, diag)


def swap_fock_modes(rho: FockDensity) -> FockDensity:
    """Relabel the two modes of a truncated density (A <-> B)."""
    return FockDensity(
        np.ascontiguousarray(rho.elements.transpose(1, 0, 3, 2)),
        rho.reduced_b,
        rho.reduced_a,
        rho.excited_b,
        rho.excited_a,
        rho.sector,
    )
