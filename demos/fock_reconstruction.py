"""Reconstruct truncated Fock elements of noisy squeezed states and check them
against the independent closed forms.

The generating-function route works for any standard-form covariance; the
lossy two-mode squeezed vacuum additionally has Kraus-sum closed forms, which
makes it the natural cross-validation family.
"""

import math

import numpy as np

from cvsteer import apply_gain, apply_loss, fock_density, tmsv_covariance


def lossy_tmsv_element(r, eta, indices):
    """<m1 m2|rho|n1 n2> of a squeezed vacuum after loss eta on mode B.

    With lambda = tanh r the squeezed vacuum is sqrt(1 - lambda^2) sum_m
    lambda^m |m m>; the loss Kraus operator that removes k photons maps |m> to
    sqrt(C(m, k) eta^(m-k) (1-eta)^k) |m-k>.  Summing over k leaves only the
    elements with m1 - m2 = n1 - n2 = k >= 0.
    """
    m1, m2, n1, n2 = indices
    k = m1 - m2
    if k != n1 - n2 or k < 0:
        return 0.0
    lam = math.tanh(r)

    def amplitude(m):
        return lam**m * math.sqrt(math.comb(m, k)) * eta ** ((m - k) / 2.0) * (1.0 - eta) ** (k / 2.0)

    return (1.0 - lam**2) * amplitude(m1) * amplitude(n1)


def thermal_marginal(r, eta, k):
    """<k|rho_B|k>: a thermal state of mean photon number eta (cosh 2r - 1) / 2."""
    nbar = eta * (math.cosh(2.0 * r) - 1.0) / 2.0
    return nbar**k / (1.0 + nbar) ** (k + 1)


r, eta = 0.5, 0.5
rho = fock_density(apply_loss(tmsv_covariance(r), eta, "B"), 3, 3)

print(f"lossy two-mode squeezed vacuum, r = {r}, eta = {eta}, cutoffs (3, 3)")
print(f"  trace weight inside the box: {rho.trace_weight:.6f}")
print("\n  element            generating fn   closed form")
for idx in [(0, 0, 0, 0), (0, 0, 1, 1), (1, 0, 1, 0), (1, 0, 2, 1), (2, 2, 2, 2)]:
    via_kernel = rho.elements[idx]
    via_kraus = lossy_tmsv_element(r, eta, idx)
    print(f"  rho{idx}:   {via_kernel:.10f}   {via_kraus:.10f}")

worst = max(
    abs(rho.elements[idx] - lossy_tmsv_element(r, eta, idx)) for idx in np.ndindex(3, 3, 3, 3)
)
print(f"\n  max |difference| over all 81 elements: {worst:.2e}")

print("\nselection rule: loss preserves the photon-number difference, so")
print("elements with m1 - n1 != m2 - n2 vanish:")
off = max(
    abs(rho.elements[m1, m2, n1, n2])
    for m1, m2, n1, n2 in np.ndindex(3, 3, 3, 3)
    if m1 - n1 != m2 - n2
)
print(f"  max |off-rule element| = {off:.2e}")

print("\nthermal marginals: each mode alone is a thermal state")
print("  k    mode B occupation   partial trace over A")
big = fock_density(apply_loss(tmsv_covariance(0.2), eta, "B"), 7, 3)
for k in range(3):
    traced = big.elements[:, k, :, k].trace()
    print(f"  {k}    {thermal_marginal(0.2, eta, k):.8f}          {traced:.8f}")

print("\nthe amplified state has no printed closed form; the generating-function")
print("route still yields a positive truncated matrix obeying the selection rule:")
amp = fock_density(apply_gain(tmsv_covariance(0.3), 1.1, "B"), 3, 3)
eigs = np.linalg.eigvalsh(amp.elements.reshape(9, 9))
print(f"  min eigenvalue of the truncated matrix: {eigs[0]:+.2e}")
off = max(
    abs(amp.elements[m1, m2, n1, n2])
    for m1, m2, n1, n2 in np.ndindex(3, 3, 3, 3)
    if m1 - n1 != m2 - n2
)
print(f"  max |off-rule element| = {off:.2e}")
