"""Truncated Fock-basis density matrices of two-mode Gaussian states.

The matrix elements <m1 m2|rho|n1 n2> of a zero-mean Gaussian state are Taylor
coefficients of a Gaussian generating function exp(-y^T R y) in four variables,
up to factorial and determinant prefactors.  The kernel matrix R is an explicit
function of the covariance matrix.  Elements are computed here by expanding the
generating function exactly (truncated polynomial arithmetic).

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

_SQRT2 = math.sqrt(2.0)

# Mode-ordering transformation between quadrature and ladder-operator bases,
# and the index shuffles that put derivative variables in (m1, m2, n1, n2) order.
_U = np.array([[1, 1j, 0, 0], [1, -1j, 0, 0], [0, 0, 1, 1j], [0, 0, 1, -1j]]) / _SQRT2
_B = np.eye(4)[[0, 2, 1, 3]]
_D = np.eye(4)[[2, 0, 3, 1]]


# Monomials y_i y_j (i <= j) of y^T R y, with weight 2 off the diagonal.
_UPPER = np.triu_indices(4)
_UPPER_WEIGHT = np.where(_UPPER[0] == _UPPER[1], 1.0, 2.0)


def hermite_kernel(cov: TwoModeCovariance) -> np.ndarray:
    """Kernel matrix R of the Fock-element generating function exp(-y^T R y).

    Real symmetric 4x4 (one per state of a batch) for every physical
    standard-form covariance; the intermediate complex algebra is asserted to
    cancel to < 1e-12.
    """
    gamma = cov.matrix()
    inner = np.linalg.inv(gamma + np.eye(4)) - 0.5 * np.eye(4)
    kernel = _B @ _U @ inner @ _U.conj().T @ _D
    if np.abs(kernel.imag).max(initial=0.0) >= 1e-12:
        raise ValueError("kernel acquired an imaginary part; covariance not in standard form?")
    kernel = kernel.real
    transpose = np.swapaxes(kernel, -1, -2)
    if np.abs(kernel - transpose).max(initial=0.0) >= 1e-12:
        raise ValueError("kernel is not symmetric; covariance not in standard form?")
    return 0.5 * (kernel + transpose)


def _exp_neg_quadratic(kernel: np.ndarray, degrees: tuple[int, int, int, int]) -> np.ndarray:
    """Taylor table of exp(-y^T R y) truncated at the given per-variable degrees.

    Entry [..., p1, p2, p3, p4] is the coefficient of y1^p1 y2^p2 y3^p3 y4^p4,
    with the batch axes of the kernel in front.  Multiplication only raises
    powers, so clipping at the target degrees is exact for every retained
    coefficient.  A monomial is dropped only when its coefficient vanishes at
    every state, and the expansion stops when the whole batch's term vanishes;
    the zeros this adds elsewhere leave each state's table bit-identical to
    its own expansion.
    """
    shape = kernel.shape[:-2] + tuple(d + 1 for d in degrees)
    coeffs = -kernel[..., _UPPER[0], _UPPER[1]] * _UPPER_WEIGHT
    live = coeffs.reshape(-1, len(_UPPER_WEIGHT)).any(axis=0)
    monomials = []
    for m in np.flatnonzero(live):
        shift = np.bincount([_UPPER[0][m], _UPPER[1][m]], minlength=4)
        src = (...,) + tuple(slice(0, d + 1 - s) for d, s in zip(degrees, shift))
        dst = (...,) + tuple(slice(s, d + 1) for d, s in zip(degrees, shift))
        monomials.append((coeffs[..., m, None, None, None, None], src, dst))
    table = np.zeros(shape)
    table[..., 0, 0, 0, 0] = 1.0
    term = table.copy()
    for k in range(1, sum(degrees) // 2 + 1):
        nxt = np.zeros(shape)
        for coeff, src, dst in monomials:
            nxt[dst] += coeff * term[src]
        term = nxt / k
        if not term.any():
            break
        table += term
    return table


@dataclass(frozen=True)
class FockDensity:
    """Two-mode density matrix truncated at Fock cutoffs (n_a, n_b).

    elements[m1, m2, n1, n2] = <m1 m2|rho|n1 n2> (real for all states in
    scope).  reduced_a / reduced_b are the *exact* single-mode reduced density
    matrices on the truncated levels, including the weight the other mode
    carries beyond its cutoff; for standard-form Gaussian states they are
    diagonal thermal states.  A batch of states puts one leading axis in front
    of every array.
    """

    elements: np.ndarray
    reduced_a: np.ndarray
    reduced_b: np.ndarray

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

    One truncated expansion of the generating function yields every element
    with indices below the cutoffs.  Raises if a cutoff exceeds the order
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
    prefactor = 4.0 / np.sqrt(np.linalg.det(cov.matrix() + np.eye(4)))[..., None, None, None, None]

    # Photon totals and factorial products (exact in floats) of (m1, m2), then of (m1, m2, n1, n2).
    total = np.add.outer(np.arange(n_a), np.arange(n_b))
    facs = np.multiply.outer(*(np.array([math.factorial(k) for k in range(n)], dtype=float) for n in (n_a, n_b)))
    total, fac_products = np.add.outer(total, total), np.multiply.outer(facs, facs)
    # rho = prefactor * H / sqrt(m!...) with H = (-1)^total * (m!...) * coeff
    elements = prefactor * (-1.0) ** total * np.sqrt(fac_products) * table

    reduced_a = thermal_occupations(cov.mean_photons_a, n_a)[..., None] * np.eye(n_a)
    reduced_b = thermal_occupations(cov.mean_photons_b, n_b)[..., None] * np.eye(n_b)
    return FockDensity(elements, reduced_a, reduced_b)


def fock_density_json(rho: FockDensity, threshold: float = 1e-14) -> dict:
    """JSON-ready dict of a FockDensity: cutoffs plus all elements above threshold."""
    # argwhere lists the indices in C order, i.e. (m1, m2, n1, n2) lexicographically.
    idx = np.argwhere(np.abs(rho.elements) > threshold)
    vals = rho.elements[tuple(idx.T)].tolist()
    return {"cutoffs": list(rho.cutoffs), "elements": [{"idx": i, "val": v} for i, v in zip(idx.tolist(), vals)]}
