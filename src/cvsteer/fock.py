"""Truncated Fock-basis density matrices of two-mode Gaussian states.

The matrix elements <m1 m2|rho|n1 n2> of a zero-mean Gaussian state are Taylor
coefficients of a Gaussian generating function exp(-y^T R y) in four variables,
up to factorial and determinant prefactors, both closed forms of the standard
form (a, b, c).  The Taylor table is filled by the derivative recurrence of the
generating function, which is exact term by term.

Truncated densities are deliberately *not* renormalised: a renormalised
truncated state is a different state and detects strictly less.  The weight
terms in the steering criteria account for the leakage outside the cutoff.
"""

import math
from dataclasses import dataclass

import numpy as np

from .covariance import TwoModeCovariance, check_physical

# Desk-scale guard on Fock indices: per-index order of the generating-function
# derivative.  Cutoffs above MAX_ORDER + 1 are rejected.
MAX_ORDER = 6


def hermite_kernel(cov: TwoModeCovariance) -> np.ndarray:
    """Kernel matrix R of the Fock-element generating function exp(-y^T R y): real
    symmetric 4x4 in (m1, m2, n1, n2) order, one per state of a batch.  With
    d = (a + 1)(b + 1) - c^2, R[m1, m2] = R[n1, n2] = -c/d, R[m1, n1] =
    (c^2 - (a - 1)(b + 1))/2d, R[m2, n2] = (c^2 - (b - 1)(a + 1))/2d, a - 1 and
    b - 1 exact, and the rest is zero."""
    c, d = cov.c, _sqrt_det_gamma_plus_identity(cov)
    kernel = np.zeros(np.shape(d) + (4, 4))
    kernel[..., 0, 1] = kernel[..., 1, 0] = kernel[..., 2, 3] = kernel[..., 3, 2] = -c / d
    kernel[..., 0, 2] = kernel[..., 2, 0] = (c * c - cov.excess_a * (cov.b + 1.0)) / (2.0 * d)
    kernel[..., 1, 3] = kernel[..., 3, 1] = (c * c - cov.excess_b * (cov.a + 1.0)) / (2.0 * d)
    return kernel


def _sqrt_det_gamma_plus_identity(cov: TwoModeCovariance):
    return (cov.a + 1.0) * (cov.b + 1.0) - cov.c * cov.c


def _exp_neg_quadratic(kernel: np.ndarray, degrees: tuple[int, int, int, int]) -> np.ndarray:
    """Taylor table of exp(-y^T R y) truncated at the given per-variable degrees.

    Entry [..., p1, p2, p3, p4] is the coefficient c[p] of y1^p1 y2^p2 y3^p3 y4^p4,
    with the batch axes of the kernel in front.  Differentiating the function
    gives (p_i + 1) c[p + e_i] = -2 sum_j R_ij c[p - e_j] (Miatto & Quesada,
    Quantum 4, 366 (2020)).  Axis i is filled last to first, a slice at a time:
    the earlier axes are held at 0, so only the terms j >= i are nonzero, and
    the later axes are already complete.  The arithmetic is elementwise, so
    each state's table is bit-identical to the one it gets on its own.
    """
    batch = kernel.shape[:-2]
    table = np.zeros(batch + tuple(d + 1 for d in degrees))
    table[..., 0, 0, 0, 0] = 1.0
    for i in reversed(range(4)):
        head, rest = (...,) + (0,) * i, (slice(None),) * (3 - i)  # earlier axes at 0, later axes whole
        weight = [kernel[..., i, j][(...,) + (None,) * (3 - i)] for j in range(4)]
        for k in range(degrees[i]):
            current = table[head + (k,) + rest]
            step = weight[i] * table[head + (k - 1,) + rest] if k else np.zeros_like(current)
            for j in range(i + 1, 4):  # c[p - e_j] is zero where p_j = 0
                tail = (slice(None),) * (3 - j)
                step[(..., slice(1, None)) + tail] += weight[j] * current[(..., slice(None, -1)) + tail]
            table[head + (k + 1,) + rest] = step * (-2.0 / (k + 1))
    return table


@dataclass(frozen=True)
class FockDensity:
    """Two-mode density matrix truncated at Fock cutoffs (n_a, n_b).

    elements[m1, m2, n1, n2] = <m1 m2|rho|n1 n2> (real for all states in
    scope).  reduced_a / reduced_b are the *exact* single-mode reduced density
    matrices on the truncated levels, including the weight the other mode
    carries beyond its cutoff; for standard-form Gaussian states they are
    diagonal thermal states.  excited_a / excited_b are 1 - <0|rho_A|0> and
    1 - <0|rho_B|0>, exact where the constructor knows them (nbar / (1 + nbar)
    for thermal marginals) and that subtraction otherwise.  A batch of states
    puts one leading axis in front of every array.
    """

    elements: np.ndarray
    reduced_a: np.ndarray
    reduced_b: np.ndarray
    excited_a: float | np.ndarray | None = None
    excited_b: float | np.ndarray | None = None

    def __post_init__(self):
        if self.excited_a is None:
            object.__setattr__(self, "excited_a", 1.0 - self.reduced_a[..., 0, 0])
        if self.excited_b is None:
            object.__setattr__(self, "excited_b", 1.0 - self.reduced_b[..., 0, 0])

    @property
    def cutoffs(self) -> tuple[int, int]:
        return self.elements.shape[-4], self.elements.shape[-3]

    @property
    def trace_weight(self):
        """Probability weight inside the truncated two-mode space (per state)."""
        return np.einsum("...klkl->...", self.elements)

    @classmethod
    def from_elements(cls, elements: np.ndarray) -> "FockDensity":
        """Wrap a raw truncated array for a state supported entirely inside the
        cutoffs; the reduced matrices are then plain partial traces."""
        elements = np.asarray(elements, dtype=float)
        if elements.ndim != 4 or elements.shape[0] != elements.shape[2] or elements.shape[1] != elements.shape[3]:
            raise ValueError(f"expected shape (na, nb, na, nb), got {elements.shape}")
        reduced_a = np.einsum("mknk->mn", elements)
        reduced_b = np.einsum("kmkn->mn", elements)
        return cls(elements, reduced_a, reduced_b)


def thermal_occupations(mean_photons, n: int) -> np.ndarray:
    """Fock occupations p_k = nbar^k / (1 + nbar)^(k+1) for k < n (last axis)."""
    k = np.arange(n)
    nbar = np.asarray(mean_photons)[..., None]
    return nbar**k / (1.0 + nbar) ** (k + 1)


def fock_density(cov: TwoModeCovariance, n_a: int, n_b: int) -> FockDensity:
    """All truncated Fock elements of a standard-form Gaussian state, or of
    each state of a batch.

    One Taylor table of the generating function yields every element with
    indices below the cutoffs.  Raises if a cutoff exceeds the order
    guard or a covariance is unphysical.
    """
    if n_a < 1 or n_b < 1:
        raise ValueError(f"cutoffs must be >= 1, got ({n_a}, {n_b})")
    if max(n_a, n_b) - 1 > MAX_ORDER:
        raise ValueError(f"cutoffs above {MAX_ORDER + 1} are not supported, got ({n_a}, {n_b})")
    if not check_physical(cov):
        raise ValueError("covariance matrix violates the uncertainty relation")

    kernel = hermite_kernel(cov)
    table = _exp_neg_quadratic(kernel, (n_a - 1, n_b - 1, n_a - 1, n_b - 1))
    prefactor = np.asarray(4.0 / _sqrt_det_gamma_plus_identity(cov))[..., None, None, None, None]

    # Factorial products (exact in floats) of (m1, m2), then of (m1, m2, n1, n2).  rho = prefactor *
    # H / sqrt(m!...) with H = (-1)^total * (m!...) * coeff; coeff vanishes at odd totals, exp(-y^T R y) being even.
    facs = np.multiply.outer(*(np.array([math.factorial(k) for k in range(n)], dtype=float) for n in (n_a, n_b)))
    elements = prefactor * np.sqrt(np.multiply.outer(facs, facs)) * table

    nbar_a, nbar_b = cov.mean_photons_a, cov.mean_photons_b
    reduced_a = thermal_occupations(nbar_a, n_a)[..., None] * np.eye(n_a)
    reduced_b = thermal_occupations(nbar_b, n_b)[..., None] * np.eye(n_b)
    return FockDensity(elements, reduced_a, reduced_b, nbar_a / (1.0 + nbar_a), nbar_b / (1.0 + nbar_b))


def fock_density_json(rho: FockDensity, threshold: float = 1e-14) -> dict:
    """JSON-ready dict of a FockDensity: cutoffs plus all elements above threshold."""
    # argwhere lists the indices in C order, i.e. (m1, m2, n1, n2) lexicographically.
    idx = np.argwhere(np.abs(rho.elements) > threshold)
    vals = rho.elements[tuple(idx.T)].tolist()
    return {"cutoffs": list(rho.cutoffs), "elements": [{"idx": i, "val": v} for i, v in zip(idx.tolist(), vals)]}
