"""Shared builders for random states, and independent oracles for the channels,
the Gaussian margin, the Hermite kernel, the Taylor table, the Fock elements, the
TLOO correlation matrix, the TLOO margin and the squeezing-range search."""

import math

import mpmath
import numpy as np

from cvsteer import (
    A_TO_B,
    B_TO_A,
    MARGIN_TOL,
    MAX_ORDER,
    FockDensity,
    SqueezingRange,
    TlooSet,
    expectation_values,
    scan,
)


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


def reference_gaussian_margin(channel: str, r: float, param: float, direction: str):
    """Gaussian steering margin of a squeezed vacuum through the channel on B, at 50 digits.

    Minus the smallest eigenvalue of the 4x4 gamma + i*Omega_A (+) 0 (B->A) or
    0 (+) i*Omega_B (A->B), with gamma built from r and the channel parameter
    alone: a = cosh 2r, c = sqrt(param) sinh 2r, and b = eta cosh 2r + 1 - eta
    (loss) or G cosh 2r + G - 1 (gain).  direction None puts the symplectic
    block on both modes and returns minus the physicality eigenvalue.
    """
    with mpmath.workdps(50):
        r, x = mpmath.mpf(r), mpmath.mpf(param)
        a, sh = mpmath.cosh(2 * r), mpmath.sinh(2 * r)
        b = x * a + 1 - x if channel == "loss" else x * a + x - 1
        c = mpmath.sqrt(x) * sh
        gamma = mpmath.matrix([[a, 0, c, 0], [0, a, 0, -c], [c, 0, b, 0], [0, -c, 0, b]])
        for mode in {B_TO_A: (0,), A_TO_B: (2,), None: (0, 2)}[direction]:
            gamma[mode, mode + 1], gamma[mode + 1, mode] = 1j, -1j
        return -min(mpmath.eighe(gamma, eigvals_only=True))


# Quadrature-to-ladder transformation times sqrt(2), and the index shuffles that put the
# derivative variables of the generating function in (m1, m2, n1, n2) order.
_LADDER = np.array([[1, 1j, 0, 0], [1, -1j, 0, 0], [0, 0, 1, 1j], [0, 0, 1, -1j]])
_SHUFFLES = np.eye(4)[[0, 2, 1, 3]], np.eye(4)[[2, 0, 3, 1]]


def inverse_hermite_kernel(gamma: np.ndarray, digits: int | None = None) -> np.ndarray:
    """Kernel R of exp(-y^T R y) from the inverse of gamma + I, for one 4x4 covariance.

    The oracle for hermite_kernel's closed form: R = B L ((gamma + I)^-1 - I/2) L^dag D / 2,
    symmetrised, with L the ladder transformation above and B, D the shuffles.  In
    doubles, or with digits the inverse and the products are taken at that many
    digits from the same floats.
    """
    (b, d), ladder = _SHUFFLES, _LADDER
    if digits is None:
        kernel = b @ ladder @ (np.linalg.inv(gamma + np.eye(4)) - 0.5 * np.eye(4)) @ ladder.conj().T @ d / 2
    else:
        with mpmath.workdps(digits):
            b, d, ladder = (mpmath.matrix(m.tolist()) for m in (b, d, ladder))
            inner = (mpmath.matrix(gamma.tolist()) + mpmath.eye(4)) ** -1 - mpmath.eye(4) / 2
            product = b * ladder * inner * ladder.transpose_conj() * d / 2
            kernel = np.array(product.tolist(), dtype=complex)
    assert np.abs(kernel.imag).max() < 1e-12
    return 0.5 * (kernel.real + kernel.real.T)


def reference_taylor_table(kernel: np.ndarray, degrees: tuple[int, int, int, int]) -> np.ndarray:
    """Taylor table of exp(-y^T R y) for any real symmetric 4x4 kernel R, truncated at
    the given per-variable degrees, by the derivative recurrence of the function.

    The general-kernel oracle for fock._exp_neg_quadratic, which relies on the
    couplings of hermite_kernel alone.  Differentiating the function gives
    (p_i + 1) c[p + e_i] = -2 sum_j R_ij c[p - e_j] (Miatto & Quesada, Quantum 4,
    366 (2020)).  Axis i is filled last to first, a slice at a time: the earlier
    axes are held at 0, so only the terms j >= i are nonzero, and the later axes
    are already complete.  Batch axes of the kernel go in front.
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


def hermite_coefficient(kernel: np.ndarray, orders: tuple[int, int, int, int]) -> float:
    """Value at the origin of the four-variable Hermite polynomial of exp(-y^T R y).

    Equals (-1)^(sum of orders) times orders! times the Taylor coefficient of
    y^orders, taken from reference_taylor_table; exact up to floating point.
    """
    if any(o < 0 for o in orders):
        raise ValueError(f"orders must be non-negative, got {orders}")
    if max(orders) > MAX_ORDER:
        raise ValueError(f"orders above {MAX_ORDER} are not supported, got {orders}")
    table = reference_taylor_table(np.asarray(kernel, dtype=float), tuple(orders))
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


def kraus_tmsv_elements(channel: str, r: float, param: float, n_a: int, n_b: int) -> np.ndarray:
    """Closed-form <m1 m2|rho|n1 n2> of a two-mode squeezed vacuum after loss or gain on mode B,
    as 50-digit mpmath numbers in an object array of shape (n_a, n_b, n_a, n_b).

    Sums the channel's Kraus operators over the Schmidt decomposition
    sqrt(1 - l^2) sum_m l^m |m, m>, l = tanh r, so it never touches the
    generating function.  Loss (transmittance eta) takes k photons from B with
    amplitude sqrt(C(m, k) eta^(m - k) (1 - eta)^k); gain G adds k photons with
    amplitude sqrt(C(m + k, k) (G - 1)^k / G^(k + 1)) G^(-m/2).  An element
    vanishes unless both sides have the same photon-number difference.
    """
    if channel not in ("loss", "gain"):
        raise ValueError(f"unknown channel {channel!r}")
    out = np.full((n_a, n_b, n_a, n_b), mpmath.mpf(0), dtype=object)
    with mpmath.workdps(50):
        lam, x = mpmath.tanh(r), mpmath.mpf(param)
        for m1, m2, n1, n2 in np.ndindex(out.shape):
            k = m1 - m2 if channel == "loss" else m2 - m1
            if k < 0 or k != (n1 - n2 if channel == "loss" else n2 - n1):
                continue
            if channel == "loss":
                amps = [lam**m * mpmath.sqrt(math.comb(m, k) * x ** (m - k) * (1 - x) ** k) for m in (m1, n1)]
            else:
                amps = [(lam / mpmath.sqrt(x)) ** m * mpmath.sqrt(math.comb(m + k, k) * (x - 1) ** k / x ** (k + 1))
                        for m in (m1, n1)]
            out[m1, m2, n1, n2] = (1 - lam**2) * amps[0] * amps[1]
    return out


def reference_margin(channel: str, r: float, param: float, level: int, direction: str):
    """TLOO margin at the given level of a squeezed vacuum through the channel on B, at 50 digits.

    The TLOOs are an orthonormal Hermitian basis, so the correlation matrix is
    the realignment M[(m n), (p q)] of rho - rho_A (x) rho_B up to unitaries on
    each side and its trace norm is M's nuclear norm; the squared means sum to
    Tr rho_X^2.  The marginals are thermal with mean photon numbers sinh(r)^2 on
    A and eta sinh(r)^2 (loss) or G sinh(r)^2 + G - 1 (gain) on B.
    """
    with mpmath.workdps(50):
        trace_norm, p_a, p_b = _reference_trace_norm(channel, r, param, level)
        trusted, untrusted = (p_a, p_b) if direction == B_TO_A else (p_b, p_a)
        trusted_factor = mpmath.fsum(trusted) - mpmath.fsum(p**2 for p in trusted)
        return trace_norm - mpmath.sqrt(trusted_factor * _reference_variance_sum(untrusted))


def reference_witness(channel: str, r: float, param: float, level: int, direction: str):
    """(gain, variance sum) of the witness at equal levels of the reference_margin state, at 50 digits.

    The rotated sets' diagonal covariances are the singular values of C and the
    variance sum of a whole set is V_X = n Tr rho_X - Tr rho_X^2, so the vertex
    gain is -||C||_tr / V_B and the sum there V_A - ||C||_tr^2 / V_B, A trusted.
    """
    with mpmath.workdps(50):
        trace_norm, p_a, p_b = _reference_trace_norm(channel, r, param, level)
        trusted, untrusted = (p_a, p_b) if direction == B_TO_A else (p_b, p_a)
        v_trusted, v_untrusted = _reference_variance_sum(trusted), _reference_variance_sum(untrusted)
        return -trace_norm / v_untrusted, v_trusted - trace_norm**2 / v_untrusted


def _reference_variance_sum(populations):
    """n Tr rho - Tr rho^2 of a diagonal truncated state, in the caller's precision."""
    return len(populations) * mpmath.fsum(populations) - mpmath.fsum(p**2 for p in populations)


def _reference_trace_norm(channel: str, r: float, param: float, level: int):
    """||C||_tr and the thermal populations p_a, p_b of the truncated marginals, in the caller's precision."""
    block = kraus_tmsv_elements(channel, r, param, level, level)
    nbar_a = mpmath.sinh(r) ** 2
    nbar_b = param * nbar_a if channel == "loss" else param * nbar_a + (mpmath.mpf(param) - 1)
    p_a, p_b = ([nbar**k / (1 + nbar) ** (k + 1) for k in range(level)] for nbar in (nbar_a, nbar_b))
    realigned = mpmath.matrix(level**2, level**2)
    for m, p, n, q in np.ndindex(block.shape):
        realigned[m * level + n, p * level + q] = block[m, p, n, q] - (p_a[m] * p_b[p] if (m, p) == (n, q) else 0)
    try:
        singular_values = mpmath.svd_r(realigned, compute_uv=False)
    except RuntimeError:
        # svd_r's convergence test can fail at one precision and hold at another, as at
        # r=2.4693126541524966, G=1.0352422396122654, level 3, which converges at 40 and 60 digits.
        with mpmath.workdps(60):
            singular_values = mpmath.svd_r(realigned, compute_uv=False)
    return mpmath.fsum(singular_values), p_a, p_b


def einsum_correlation_entries(rho: FockDensity, tloos_a: TlooSet, tloos_b: TlooSet) -> np.ndarray:
    """TLOO covariances from one complex three-operand einsum over the Fock block.

    The oracle for CorrelationMatrix.entries, which maps the realigned block to
    the observable sets: it contracts the elements with both sets in the
    original index layout, subtracts the products of the sets' means and keeps
    the real part, and its singular values are those of the trace norm.
    """
    level_a, level_b = tloos_a.level, tloos_b.level
    block = rho.elements[..., :level_a, :level_b, :level_a, :level_b]
    joint = np.einsum("...mpnq,inm,jqp->...ij", block, tloos_a.matrices, tloos_b.matrices)
    mean_a = expectation_values(rho.reduced_a[..., :level_a, :level_a], tloos_a)
    mean_b = expectation_values(rho.reduced_b[..., :level_b, :level_b], tloos_b)
    return joint.real - mean_a[..., :, None] * mean_b[..., None, :]


def reference_squeezing_range(channel: str, criterion: str, direction: str, r_step: float, r_max: float) -> SqueezingRange:
    """squeezing_range by separate root searches, each evaluating its own bracket ends.

    The oracle for the single search of scan.squeezing_range, which starts from the
    points its scan and eps grid already hold: the ends where detection flips are
    searched first, to PARAM_XTOL, then each eps point to EPS_XTOL, bracketed by
    G* + 0.07 or, where the margin is still positive there, by G* + 0.5, all
    through the public find_roots.  The two converge to the same sign changes,
    each within its tolerance.  Takes a scan with a detection.
    """
    spec, pair = scan.CHANNELS[channel], ((criterion, direction),)
    edge = spec.blind_edge[direction]
    steps = int(r_max / r_step * (1.0 + 1e-12))
    rs = np.minimum(r_step * np.arange(1, steps + 1), r_max)
    params = edge(rs)
    detected = scan.batch_margins(channel, rs, params, pair)[0] > MARGIN_TOL
    first, last = np.flatnonzero(detected)[[0, -1]]

    def blind(_, r):
        return scan.batch_margins(channel, r, edge(r), pair)[0] - MARGIN_TOL

    lo, hi = rs[[max(first - 1, 0), last]], rs[[first, min(last + 1, steps - 1)]]
    r_low, r_high = scan.find_roots(blind, lo, hi, xtol=scan.PARAM_XTOL).tolist()
    eps_curve = None
    if spec.eps_curve:
        r_hit, boundary = rs[detected], params[detected]

        def margins(i, param):
            return scan.batch_margins(channel, r_hit[i], param, pair)[0]

        hi = boundary + 0.07
        hi = np.where(margins(np.arange(r_hit.size), hi) > 0.0, boundary + 0.5, hi)
        assert (margins(np.arange(r_hit.size), hi) <= 0.0).all(), "margin is positive 0.5 above the boundary"
        eps = scan.find_roots(margins, boundary, hi, xtol=scan.EPS_XTOL) - boundary
        eps_curve = tuple(zip(r_hit.tolist(), eps.tolist()))
    return SqueezingRange(channel, criterion, direction, True, r_low, r_high, eps_curve)
