"""Build two-mode squeezed vacua and push them through loss and gain channels.

Shows the standard-form parameters, the physicality check, and the
multiplicative composition of loss.
"""

import numpy as np

from cvsteer import (
    TwoModeCovariance,
    apply_gain,
    apply_loss,
    check_physical,
    physicality_eigenvalue,
    tmsv_covariance,
)

r = 0.5
cov = tmsv_covariance(r)
print(f"two-mode squeezed vacuum, r = {r}")
print(f"  (a, b, c) = ({cov.a:.7f}, {cov.b:.7f}, {cov.c:.7f})")
print(f"  full matrix:\n{np.array_str(cov.matrix(), precision=7)}")
print(f"  physical: {check_physical(cov)}")
print(f"  min eigenvalue of gamma + i*Omega: {physicality_eigenvalue(cov):+.2e}"
      "  (zero = pure state)")

print("\nloss channel on mode B, eta = 0.5")
lossy = apply_loss(cov, 0.5, "B")
print(f"  (a, b, c) = ({lossy.a:.7f}, {lossy.b:.7f}, {lossy.c:.7f})")
print(f"  physical: {check_physical(lossy)}")

print("\nloss composes multiplicatively: eta1*eta2 in one step equals two steps")
two_steps = apply_loss(apply_loss(cov, 0.8, "B"), 0.625, "B")
one_step = apply_loss(cov, 0.5, "B")
diff = np.abs(two_steps.matrix() - one_step.matrix()).max()
print(f"  max |difference| = {diff:.2e}")

print("\namplification channel on mode B, gain = 1.2")
amplified = apply_gain(cov, 1.2, "B")
print(f"  (a, b, c) = ({amplified.a:.7f}, {amplified.b:.7f}, {amplified.c:.7f})")
print(f"  physical: {check_physical(amplified)}")

print("\nbelow-vacuum noise is rejected by the physicality check:")
bad = TwoModeCovariance(0.5, 0.5, 0.0)
print(f"  a = b = 0.5 -> physical: {check_physical(bad)}")
