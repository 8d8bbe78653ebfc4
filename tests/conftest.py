"""Shared builders for random states, and independent oracles for the channels
and for the Fock elements."""

import math

import numpy as np

from cvsteer import MAX_ORDER, FockDensity
from cvsteer.fock import _exp_neg_quadratic


def symplectic_form(n_modes: int) -> np.ndarray:
    """Block-diagonal symplectic form, one [[0,1],[-1,0]] block per mode."""
    return np.kron(np.eye(n_modes), np.array([[0.0, 1.0], [-1.0, 0.0]]))


def random_orthogonal(rng: np.random.Generator, size: int) -> np.ndarray:
    """Haar-ish orthogonal matrix from the QR factorisation of a Gaussian matrix."""
    q, r = np.linalg.qr(rng.standard_normal((size, size)))
    return q * np.sign(np.diag(r))


def random_mixed_state(rng: np.random.Generator, n: int, weight: float | None = None) -> np.ndarray:
    """Random positive matrix normalised to a (possibly sub-unity) weight."""
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    rho = m @ m.conj().T
    rho /= np.trace(rho).real
    if weight is None:
        weight = rng.uniform(0.2, 1.0)
    return rho * weight


def random_pure_state(rng: np.random.Generator, n: int) -> np.ndarray:
    psi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    psi /= np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


def random_real_mixed(rng: np.random.Generator, n: int, weight: float | None = None) -> np.ndarray:
    """Real-symmetric variant for building FockDensity test states."""
    m = rng.standard_normal((n, n))
    rho = m @ m.T
    rho /= np.trace(rho)
    if weight is None:
        weight = rng.uniform(0.2, 1.0)
    return rho * weight


def product_density(rho_a: np.ndarray, rho_b: np.ndarray) -> FockDensity:
    """Two-mode product state supported entirely inside the cutoffs."""
    elements = np.einsum("mn,pq->mpnq", rho_a, rho_b)
    return FockDensity.from_elements(elements)


def loss_dilation(gamma: np.ndarray, eta: float) -> np.ndarray:
    """Loss on mode B via an explicit beamsplitter with a vacuum ancilla.

    Independent of the closed-form channel update: builds the 6x6 symplectic
    beamsplitter on (B, ancilla), applies it to gamma (+) identity and keeps
    the (A, B) block.
    """
    ext = np.eye(6)
    ext[:4, :4] = gamma
    s = np.eye(6)
    c, t = np.sqrt(eta), np.sqrt(1.0 - eta)
    s[2:4, 2:4] = c * np.eye(2)
    s[2:4, 4:6] = t * np.eye(2)
    s[4:6, 2:4] = -t * np.eye(2)
    s[4:6, 4:6] = c * np.eye(2)
    omega = symplectic_form(3)
    assert np.allclose(s @ omega @ s.T, omega)
    return (s @ ext @ s.T)[:4, :4]


def gain_dilation(gamma: np.ndarray, gain: float) -> np.ndarray:
    """Amplification of mode B via a two-mode squeezer with a vacuum ancilla."""
    ext = np.eye(6)
    ext[:4, :4] = gamma
    s = np.eye(6)
    ch, sh = np.sqrt(gain), np.sqrt(gain - 1.0)
    z = np.diag([1.0, -1.0])
    s[2:4, 2:4] = ch * np.eye(2)
    s[2:4, 4:6] = sh * z
    s[4:6, 2:4] = sh * z
    s[4:6, 4:6] = ch * np.eye(2)
    omega = symplectic_form(3)
    assert np.allclose(s @ omega @ s.T, omega)
    return (s @ ext @ s.T)[:4, :4]


def hermite_coefficient(kernel: np.ndarray, orders: tuple[int, int, int, int]) -> float:
    """Value at the origin of the four-variable Hermite polynomial of exp(-y^T R y).

    Equals (-1)^(sum of orders) times orders! times the Taylor coefficient of
    y^orders; exact up to floating point.
    """
    if any(o < 0 for o in orders):
        raise ValueError(f"orders must be non-negative, got {orders}")
    if max(orders) > MAX_ORDER:
        raise ValueError(f"orders above {MAX_ORDER} are not supported, got {orders}")
    table = _exp_neg_quadratic(np.asarray(kernel, dtype=float), tuple(orders))
    total = sum(orders)
    fac = math.prod(math.factorial(o) for o in orders)
    return float((-1.0) ** total * fac * table[tuple(orders)])


def lossy_tmsv_element(r: float, eta: float, indices: tuple[int, int, int, int]) -> float:
    """Closed-form Fock element of a two-mode squeezed vacuum after loss on mode B.

    Independent oracle for fock_density: derived by summing the loss channel's
    Kraus operators on the squeezed-vacuum Schmidt decomposition, so it never
    touches the generating-function route.  Loss only removes photons from B and
    preserves the photon-number difference, hence the element vanishes unless
    m1 - m2 = n1 - n2 >= 0.
    """
    m1, m2, n1, n2 = indices
    if min(indices) < 0 or max(indices) > 2:
        raise ValueError(f"indices must lie in 0..2, got {indices}")
    if r < 0.0:
        raise ValueError(f"squeezing parameter must be >= 0, got {r}")
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"transmittance must lie in (0, 1], got {eta}")
    k = m1 - m2
    if k != n1 - n2 or k < 0:
        return 0.0
    lam = math.tanh(r)

    def amplitude(m: int) -> float:
        return lam**m * math.sqrt(math.comb(m, k)) * eta ** ((m - k) / 2.0) * (1.0 - eta) ** (k / 2.0)

    return (1.0 - lam**2) * amplitude(m1) * amplitude(n1)


def thermal_marginal(r: float, eta: float, k: int) -> float:
    """Fock occupation <k|rho_B|k> of the mode-B marginal of a lossy two-mode
    squeezed vacuum.

    The marginal is thermal with mean photon number eta*(cosh(2r) - 1)/2; the
    occupations follow the geometric law nbar^k / (1 + nbar)^(k+1).  Mode A's
    marginal is the eta = 1 case.
    """
    if k not in (0, 1, 2):
        raise ValueError(f"occupation index must be 0, 1 or 2, got {k}")
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"transmittance must lie in (0, 1], got {eta}")
    nbar = eta * (math.cosh(2.0 * r) - 1.0) / 2.0
    return float(nbar**k / (1.0 + nbar) ** (k + 1))
