"""Reference results the benchmark checks the program's outputs against.

Every function here is derived on paper and computed without calling
`cvsteer`, so a wrong fast path in the package cannot also make its own
reference wrong.  Conventions follow the package: vacuum covariance = identity,
the channel acts on mode B, and direction "BtoA" asks whether B steers A.
"""

import math

import numpy as np

# Verdict rule documented by the package: margins within this band of zero
# count as not steerable.
MARGIN_TOL = 1e-10

# Closed-form B->A Gaussian boundary of a lossy two-mode squeezed vacuum.
LOSS_BOUNDARY_ETA = 0.5

# `rrange` references from the acceptance suite (tolerance 0.01 on each end).
LOSS_N3_R_LOW = 0.364
LOSS_N3_R_HIGH = 0.987
RRANGE_R_TOL = 0.01
GAIN_N2_EPS_MAX = 0.08

_MAX_INDEX = 16
_COMB = np.array([[math.comb(m, k) for k in range(_MAX_INDEX)] for m in range(_MAX_INDEX)], dtype=float)


def gain_boundary(r: float) -> float:
    """Closed-form A->B Gaussian boundary of an amplified two-mode squeezed vacuum."""
    ch = math.cosh(2.0 * r)
    return 2.0 * ch / (ch + 1.0)


def gaussian_steerable(channel: str, r: float, param: float, direction: str) -> bool:
    """Closed-form Gaussian steerability of a squeezed vacuum after the channel.

    From det(gamma_untrusted) > det(gamma) (Kogias et al., PRL 114, 060403):
    under loss, B->A holds iff eta > 1/2 and A->B holds at every eta; under
    gain, A->B holds iff G < 2cosh2r/(cosh2r+1) and B->A at every G.
    Assumes r > 0.
    """
    if channel == "loss":
        return param > LOSS_BOUNDARY_ETA if direction == "BtoA" else True
    return param < gain_boundary(r) if direction == "AtoB" else True


def gaussian_boundary_distance(channel: str, r: float, param: float, direction: str) -> float:
    """Distance of the channel parameter from its Gaussian boundary (inf if none)."""
    if channel == "loss" and direction == "BtoA":
        return abs(param - LOSS_BOUNDARY_ETA)
    if channel == "gain" and direction == "AtoB":
        return abs(param - gain_boundary(r))
    return math.inf


def fock_elements(channel: str, r: float, param: float, n_a: int, n_b: int) -> np.ndarray:
    """Closed-form <m1 m2|rho|n1 n2> of a squeezed vacuum after loss or gain on B.

    Sums the channel's Kraus operators over the Schmidt decomposition
    sqrt(1 - l^2) sum_m l^m |m, m>, l = tanh r.  Loss (transmittance eta)
    removes k photons from B with amplitude sqrt(C(m, k) eta^(m-k) (1-eta)^k);
    gain G adds k photons with the amplifier Kraus operator
    sqrt((G-1)^k / (k! G^(k+1))) a^dag^k G^(-n/2).  Elements vanish unless the
    photon-number difference is the same on both sides.  Valid for any cutoff
    below 16.
    """
    if max(n_a, n_b) > _MAX_INDEX:
        raise ValueError(f"cutoffs above {_MAX_INDEX} are not supported")
    lam = math.tanh(r)
    m1, m2, n1, n2 = np.indices((n_a, n_b, n_a, n_b))
    if channel == "loss":
        k = m1 - m2
        allowed = (k == n1 - n2) & (k >= 0)
        k = np.where(allowed, k, 0)

        def amp(m):
            return lam**m * np.sqrt(_COMB[m, k]) * param ** ((m - k) / 2.0) * (1.0 - param) ** (k / 2.0)

        values = (1.0 - lam**2) * amp(m1) * amp(n1)
    elif channel == "gain":
        k = m2 - m1
        allowed = (k == n2 - n1) & (k >= 0)
        k = np.where(allowed, k, 0)
        scale = lam / math.sqrt(param)
        values = (
            (1.0 - lam**2)
            / param
            * ((param - 1.0) / param) ** k
            * scale ** (m1 + n1)
            * np.sqrt(_COMB[m2, k] * _COMB[n2, k])
        )
    else:
        raise ValueError(f"unknown channel {channel!r}")
    return np.where(allowed, values, 0.0)


def thermal_marginals(channel: str, r: float, param: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact Fock occupations below n of both single-mode marginals (thermal)."""
    nbar_a = math.sinh(r) ** 2
    nbar_b = param * nbar_a if channel == "loss" else param * math.cosh(r) ** 2 - 1.0
    k = np.arange(n)
    return tuple(nbar**k / (1.0 + nbar) ** (k + 1) for nbar in (nbar_a, nbar_b))


def tloo_trace_norm_and_bound(
    channel: str, r: float, param: float, level: int, direction: str
) -> tuple[float, float]:
    """Trace norm of the level-n TLOO correlation matrix and its local bound.

    Basis-free: the TLOOs are an orthonormal Hermitian operator basis, so the
    correlation matrix is the realignment of rho - rho_A (x) rho_B up to
    unitaries on each side, and its trace norm is that realignment's nuclear
    norm.  For the same reason the squared means sum to Tr(rho_X^2).
    """
    block = fock_elements(channel, r, param, level, level)
    p_a, p_b = thermal_marginals(channel, r, param, level)
    product = np.einsum("m,p,mn,pq->mpnq", p_a, p_b, np.eye(level), np.eye(level))
    realigned = (block - product).transpose(0, 2, 1, 3).reshape(level * level, level * level)
    trace_norm = float(np.linalg.svd(realigned, compute_uv=False).sum())
    w_a, w_b = p_a.sum(), p_b.sum()
    purity_a, purity_b = (p_a**2).sum(), (p_b**2).sum()
    if direction == "BtoA":
        radicand = (w_a - purity_a) * (level * w_b - purity_b)
    else:
        radicand = (w_b - purity_b) * (level * w_a - purity_a)
    return trace_norm, math.sqrt(max(radicand, 0.0))


def tloo_margin(channel: str, r: float, param: float, level: int, direction: str) -> float:
    """Signed TLOO criterion margin: trace norm minus local-hidden-state bound."""
    trace_norm, bound = tloo_trace_norm_and_bound(channel, r, param, level, direction)
    return trace_norm - bound
