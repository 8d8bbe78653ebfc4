"""Truncated Fock-basis density matrices of two-mode Gaussian states.

The matrix elements <m1 m2|rho|n1 n2> of a zero-mean Gaussian state are Taylor
coefficients of a Gaussian generating function exp(-y^T R y) in four variables,
up to factorial and determinant prefactors, both closed forms of the standard
form (a, b, c).  R has three couplings, so a Taylor coefficient is a sum of at
most min(m2, n2) + 1 monomials on the sector m1 - m2 = n1 - n2, zero off it.

Truncated densities are deliberately *not* renormalised: a renormalised
truncated state is a different state and detects strictly less.  The weight
terms in the steering criteria account for the leakage outside the cutoff.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .covariance import TwoModeCovariance, check_physical, require_physical  # noqa: F401, perfbench traces check_physical here

# Largest Fock index taken from outside (fock-dump --cutoffs, fock_density): a dense table
# is (n_a n_b)^2 floats per state, and cutoffs <= 7 are checked against the Kraus sum.
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


@functools.cache
def _sector_plan(shape: tuple[int, int, int, int]):
    """What a table of this shape needs that depends on the shape alone, built once and read-only: the sector
    cells (m1 - m2 = n1 - n2), the offset of each one's first term, every term's orders, the factorials n! up
    to the largest degree, sqrt(m1! m2! n1! n2!) on the sector cells, and the identities of the first two axes."""
    cells, orders = zip(*[(cell, (m2 - d, n2 - d, m1 - m2 + d, d)) for cell, (m1, m2, n1, n2) in enumerate(np.ndindex(shape))
                          if m1 - m2 == n1 - n2 for d in range(max(0, m2 - m1), min(m2, n2) + 1)])
    cells, starts = np.unique(cells, return_index=True)
    cells = np.unravel_index(cells, shape)
    factorials = np.array([math.factorial(n) for n in range(max(shape))], dtype=float)
    roots = np.sqrt(factorials[cells[0]] * factorials[cells[1]] * factorials[cells[2]] * factorials[cells[3]])  # exact products
    orders, eyes = np.array(orders).T, (np.eye(shape[0]), np.eye(shape[1]))
    for array in (*cells, starts, orders, factorials, roots, *eyes):
        array.setflags(write=False)
    return cells, starts, orders, factorials, roots, eyes


def _exp_neg_quadratic(kernel: np.ndarray, degrees: tuple[int, int, int, int], _prefactor=None) -> np.ndarray:
    """Taylor table of exp(-y^T R y) truncated at the given per-variable degrees.

    Entry [..., p1, p2, p3, p4] is the coefficient c[p] of y1^p1 y2^p2 y3^p3 y4^p4, the kernel's batch axes in front.
    A hermite_kernel R couples only through u = -2 R[0, 1] = -2 R[2, 3], v = -2 R[0, 2] and x = -2 R[1, 3], so the
    terms (y1 y2)^(m2 - d) (y3 y4)^(n2 - d) (y1 y3)^(j + d) (y2 y4)^d of exp(u (y1 y2 + y3 y4) + v y1 y3 + x y2 y4)
    all have j = m1 - m2 = n1 - n2: c = 0 off that sector, and on it c sums u^(m2 + n2 - 2d) v^(j + d) x^d / ((m2 - d)!
    (n2 - d)! (j + d)! d!) over max(0, -j) <= d <= min(m2, n2), at most min(m2, n2) + 1 terms, elementwise per state.
    fock_density passes its prefactor (one per state): each sector entry is then multiplied by _prefactor *
    sqrt(m1! m2! n1! n2!) before it is scattered, which gives the Fock elements.
    """
    shape = tuple(d + 1 for d in degrees)
    cells, starts, orders, factorials, roots, _ = _sector_plan(shape)
    powers = (-2.0 * kernel[..., (0, 0, 1), (1, 2, 3), None]) ** np.arange(factorials.size) / factorials
    u, v, x = powers[..., 0, :], powers[..., 1, :], powers[..., 2, :]  # w^n / n! for w = u, v, x
    sums = np.add.reduceat(u[..., orders[0]] * u[..., orders[1]] * v[..., orders[2]] * x[..., orders[3]], starts, axis=-1)
    if _prefactor is not None:
        sums *= np.multiply.outer(_prefactor, roots)
    table = np.zeros(kernel.shape[:-2] + shape)
    table[(...,) + cells] = sums
    return table


@dataclass(frozen=True)
class FockDensity:
    """Two-mode density matrix truncated at Fock cutoffs (n_a, n_b).

    elements[m1, m2, n1, n2] = <m1 m2|rho|n1 n2>, real and symmetric under
    (m1, m2) <-> (n1, n2) (rho Hermitian), which correlation_matrix assumes:
    from_elements checks raw arrays, fock_density builds exactly symmetric
    tables, swap_fock_modes keeps them so, and the bare constructor trusts its
    input, reduced states included.  sector: every element off m1 - m2 = n1 - n2
    is zero, as fock_density's are (from_elements tests it); without it the
    TLOO trace norm takes the SVD.  reduced_a / reduced_b are the *exact*
    single-mode reduced density matrices on the truncated levels, including
    the weight the other mode carries beyond its cutoff; for standard-form
    Gaussian states they are diagonal thermal states.  excited_a / excited_b
    are 1 - <0|rho_A|0> and 1 - <0|rho_B|0>, exact where the constructor knows
    them (nbar / (1 + nbar) for thermal marginals) and that subtraction
    otherwise.  A batch of states puts one leading axis in front of every array.
    """

    elements: np.ndarray
    reduced_a: np.ndarray
    reduced_b: np.ndarray
    excited_a: float | np.ndarray | None = None
    excited_b: float | np.ndarray | None = None
    sector: bool = False

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
        """Wrap a raw truncated array for a state supported entirely inside the cutoffs; the reduced matrices
        are then plain partial traces, and sector is whether every cell off m1 - m2 = n1 - n2 is zero.  Raises
        unless the array is real and symmetric under (m1, m2) <-> (n1, n2) to 1e-12."""
        if np.any(np.imag(elements)):  # NaN included
            raise ValueError("elements must be real: correlation_matrix computes real parts only")
        elements = np.asarray(np.real(elements), dtype=float)
        if elements.ndim != 4 or elements.shape[0] != elements.shape[2] or elements.shape[1] != elements.shape[3]:
            raise ValueError(f"expected shape (na, nb, na, nb), got {elements.shape}")
        asymmetry = np.abs(elements - elements.transpose(2, 3, 0, 1)).max(initial=0.0)
        if not asymmetry < 1e-12:  # NaN included
            raise ValueError(f"elements are not symmetric under (m1, m2) <-> (n1, n2): they differ by {asymmetry:.3g}")
        reduced_a = np.einsum("mknk->mn", elements)
        reduced_b = np.einsum("kmkn->mn", elements)
        m1, m2, n1, n2 = np.indices(elements.shape, sparse=True)
        return cls(elements, reduced_a, reduced_b, sector=not elements[m1 - m2 != n1 - n2].any())


def thermal_occupations(mean_photons, n: int) -> np.ndarray:
    """Fock occupations p_k = nbar^k / (1 + nbar)^(k+1) for k < n (last axis)."""
    k = np.arange(n)
    nbar = np.asarray(mean_photons)[..., None]
    return nbar**k / (1.0 + nbar) ** (k + 1)


def fock_density(cov: TwoModeCovariance, n_a: int, n_b: int) -> FockDensity:
    """All truncated Fock elements of a standard-form Gaussian state, or of
    each state of a batch.

    One Taylor table of the generating function yields every element with
    indices below the cutoffs: its sector sums are scaled and scattered into a
    zero table, and the constants of the cutoff pair come from its cached plan
    (_sector_plan), so every returned array is new.  Raises if a cutoff lies
    outside 1..MAX_ORDER + 1 (see MAX_ORDER) or a covariance is unphysical.
    """
    if n_a < 1 or n_b < 1:
        raise ValueError(f"cutoffs must be >= 1, got ({n_a}, {n_b})")
    if max(n_a, n_b) - 1 > MAX_ORDER:
        raise ValueError(f"cutoffs above {MAX_ORDER + 1} are not supported, got ({n_a}, {n_b})")
    require_physical(cov)

    # rho = prefactor * H / sqrt(m!...) with H = (-1)^total * (m!...) * coeff; coeff vanishes at odd totals,
    # exp(-y^T R y) being even, so rho = prefactor * sqrt(m!...) * coeff on the sector and 0 off it.
    elements = _exp_neg_quadratic(hermite_kernel(cov), (n_a - 1, n_b - 1, n_a - 1, n_b - 1),
                                  _prefactor=4.0 / _sqrt_det_gamma_plus_identity(cov))
    eye_a, eye_b = _sector_plan((n_a, n_b, n_a, n_b))[-1]

    nbar_a, nbar_b = cov.mean_photons_a, cov.mean_photons_b
    reduced_a = thermal_occupations(nbar_a, n_a)[..., None] * eye_a
    reduced_b = thermal_occupations(nbar_b, n_b)[..., None] * eye_b
    return FockDensity(elements, reduced_a, reduced_b, nbar_a / (1.0 + nbar_a), nbar_b / (1.0 + nbar_b), sector=True)


@functools.cache
def _json_indices(shape: tuple[int, int, int, int]) -> np.ndarray:
    """Read-only (m1, m2, n1, n2) rows of a table of this shape, one per flat index in C order."""
    indices = np.indices(shape, np.min_scalar_type(max(shape))).reshape(4, -1).T.copy()
    indices.setflags(write=False)
    return indices


def fock_density_json(rho: FockDensity, threshold: float = 1e-14) -> dict:
    """JSON-ready dict of one state's FockDensity: its cutoffs, and every element above threshold in magnitude
    as {"idx": [m1, m2, n1, n2], "val": float}, in C order, i.e. (m1, m2, n1, n2) lexicographically.  Raises
    ValueError for a batch (elements not 4-D), whose entries the cutoffs would not describe."""
    if rho.elements.ndim != 4:
        raise ValueError(f"expected the elements of one state, shape (na, nb, na, nb), got {rho.elements.shape}")
    flat = rho.elements.ravel()  # C order of the logical indices, whatever the memory layout
    kept = np.flatnonzero(np.abs(flat) > threshold)
    idx, vals = _json_indices(rho.elements.shape)[kept].tolist(), flat[kept].tolist()
    return {"cutoffs": list(rho.cutoffs), "elements": [{"idx": i, "val": v} for i, v in zip(idx, vals)]}
