"""Locate the Gaussian-measurement steering boundaries for both channels.

The lossy B->A boundary sits at transmittance 1/2 for every squeezing; the
amplified A->B boundary follows the closed form 2*cosh(2r)/(cosh(2r) + 1).
Each is printed beside the channel parameter where the eigenvalue criterion
itself flips, found by bisection.
"""

from cvsteer import (
    A_TO_B,
    B_TO_A,
    apply_gain,
    apply_loss,
    find_boundary,
    gaussian_gain_boundary,
    gaussian_loss_boundary,
    gaussian_steerable,
    tmsv_covariance,
)

print("lossy channel, steering from B to A under Gaussian measurements")
print("  r      bisected eta*   closed form")
for r in (0.1, 0.3, 0.5, 1.0, 2.0):
    print(f"  {r:4.2f}   {find_boundary('loss', r, 'gaussian', B_TO_A):.8f}      {gaussian_loss_boundary(r):.8f}")

print("\n  verdicts straddling the boundary at r = 0.3:")
base = tmsv_covariance(0.3)
for eta in (0.4, 0.6):
    verdict = gaussian_steerable(apply_loss(base, eta, "B"), B_TO_A)
    print(f"    eta = {eta}: steerable = {verdict.steerable}  (margin {verdict.margin:+.4f})")

print("\n  steering from A to B survives any transmittance:")
for eta in (0.05, 0.2, 0.9):
    verdict = gaussian_steerable(apply_loss(base, eta, "B"), A_TO_B)
    print(f"    eta = {eta}: steerable = {verdict.steerable}  (margin {verdict.margin:+.4f})")

print("\namplification channel, steering from A to B")
print("  r      bisected G*     closed form")
for r in (0.2, 0.5, 1.0):
    print(f"  {r:4.2f}   {find_boundary('gain', r, 'gaussian', A_TO_B):.8f}   {gaussian_gain_boundary(r):.8f}")

print("\n  B to A remains steerable at any gain (r = 0.5):")
for gain in (1.0, 2.0, 4.0):
    verdict = gaussian_steerable(apply_gain(tmsv_covariance(0.5), gain, "B"), B_TO_A)
    print(f"    G = {gain}: steerable = {verdict.steerable}  (margin {verdict.margin:+.4f})")
