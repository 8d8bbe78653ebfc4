"""Acceptance suite: every shipped claim checked at its stated tolerance.

Each criterion prints exactly one PASS/FAIL line with its measurements
(visible with `pytest tests/test_acceptance.py -v -s`) and then asserts.
"""

import math
import time

import numpy as np
from conftest import lossy_tmsv_element, random_mixed_state, random_orthogonal, random_pure_state

from cvsteer import (
    A_TO_B,
    B_TO_A,
    build_tloos,
    build_witness,
    correlation_matrix,
    expectation_values,
    fock_density,
    gaussian_gain_boundary,
    gaussian_loss_boundary,
    monogamy_report,
    paired_variance_sum,
    rotate_tloos,
    squeezing_range,
    swap_fock_modes,
    tloo_steerable,
    uncertainty_sum,
)
from cvsteer.scan import channel_covariance, evaluate_point


def report(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number} failed: {detail}"


def test_criterion_01_fock_oracle_equivalence():
    start = time.perf_counter()
    worst = 0.0
    for r in np.arange(0.1, 1.25, 0.1):
        for eta in np.arange(0.1, 0.95, 0.1):
            rho = fock_density(channel_covariance("loss", r, eta), 3, 3)
            for idx in np.ndindex(3, 3, 3, 3):
                expected = lossy_tmsv_element(r, eta, idx)
                worst = max(worst, abs(rho.elements[idx] - expected))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 5.0
    report(1, "Fock oracle equivalence", ok, f"max|diff|={worst:.3e}, {elapsed:.2f}s")


def test_criterion_02_gaussian_loss_boundary():
    worst = max(abs(gaussian_loss_boundary(r) - 0.5) for r in (0.1, 0.5, 1.0, 2.0))
    report(2, "Gaussian loss boundary", worst <= 1e-6, f"max|eta-0.5|={worst:.2e}")


def test_criterion_03_gaussian_gain_boundary():
    worst = max(
        abs(gaussian_gain_boundary(r) - 2 * math.cosh(2 * r) / (math.cosh(2 * r) + 1))
        for r in (0.2, 0.5, 1.0)
    )
    report(3, "Gaussian gain boundary", worst <= 1e-6, f"max|G-closed form|={worst:.2e}")


def test_criterion_04_loss_two_level_region():
    start = time.perf_counter()
    etas_below = np.arange(0.005, 0.5, 0.005)
    detected_r04 = any(
        evaluate_point("loss", 0.4, eta, "tloo-n2", B_TO_A).steerable for eta in etas_below
    )
    margins_r10 = [
        evaluate_point("loss", 1.0, eta, "tloo-n2", B_TO_A).margin for eta in etas_below
    ]
    absent_r10 = max(margins_r10) <= 0.0
    result = squeezing_range("loss", "tloo-n2", B_TO_A, r_step=1e-3, r_max=1.2)
    elapsed = time.perf_counter() - start
    endpoint_ok = result.detected and abs(result.r_high - 0.869) <= 0.01
    ok = detected_r04 and absent_r10 and endpoint_ok and elapsed < 120.0
    report(
        4,
        "2-level detection region below eta=1/2",
        ok,
        f"r=0.4 detected={detected_r04}, r=1.0 max margin={max(margins_r10):.3e}, "
        f"r_high={result.r_high:.4f}, {elapsed:.1f}s",
    )


def test_criterion_05_loss_three_level_region():
    start = time.perf_counter()
    result = squeezing_range("loss", "tloo-n3", B_TO_A, r_step=1e-3, r_max=1.2)
    endpoints_ok = (
        result.detected
        and abs(result.r_low - 0.364) <= 0.01
        and abs(result.r_high - 0.987) <= 0.01
    )
    etas_below = np.arange(0.005, 0.5, 0.005)
    three_detects = any(
        evaluate_point("loss", 0.9, eta, "tloo-n3", B_TO_A).steerable for eta in etas_below
    )
    two_margins = [
        evaluate_point("loss", 0.9, eta, "tloo-n2", B_TO_A).margin for eta in etas_below
    ]
    two_silent = max(two_margins) <= 0.0
    elapsed = time.perf_counter() - start
    ok = endpoints_ok and three_detects and two_silent and elapsed < 600.0
    report(
        5,
        "3-level detection region below eta=1/2",
        ok,
        f"r_low={result.r_low:.4f}, r_high={result.r_high:.4f}, "
        f"r=0.9: n3={three_detects}, n2 max margin={max(two_margins):.3e}, {elapsed:.1f}s",
    )


def test_criterion_06_amplifier_excess_window():
    r_set = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6)
    above = all(
        evaluate_point(
            "gain", r, gaussian_gain_boundary(r) + 1e-4, "tloo-n2", A_TO_B
        ).steerable
        for r in r_set
    )
    result = squeezing_range("gain", "tloo-n2", A_TO_B, r_step=0.025, r_max=0.7)
    curve = result.eps_curve or ()

    def excess_at(r):
        hits = [eps for rr, eps in curve if abs(rr - r) < 1e-9]
        return hits[0] if hits else None

    all_r_detected = all((excess_at(r) or 0.0) > 0.0 for r in r_set)
    eps_max = result.eps_max or 0.0
    ok = above and all_r_detected and 0.0 < eps_max <= 0.08
    report(
        6,
        "amplifier detection above the Gaussian boundary",
        ok,
        f"detected at all r in {r_set}: {all_r_detected}, eps_max={eps_max:.4f} "
        f"at r={result.eps_argmax}",
    )


def test_criterion_07_monogamy_demo():
    rep = monogamy_report(0.4, 0.55)
    ok = rep.bob.steerable and rep.eve.steerable and rep.simultaneous
    report(
        7,
        "simultaneous Bob/Eve steering at eta=0.55",
        ok,
        f"bob margin={rep.bob.margin:.4f}, eve margin={rep.eve.margin:.4f}",
    )


def test_criterion_08_uncertainty_property_suite():
    rng = np.random.default_rng(2024)
    worst_mixed = 0.0  # most negative (sum - bound)
    for i in range(1000):
        n = 2 if i % 2 == 0 else 3
        state = random_mixed_state(rng, n)
        total, bound = uncertainty_sum(state, build_tloos(n))
        worst_mixed = min(worst_mixed, total - bound)
    worst_pure = 0.0  # largest |sum - bound|
    for i in range(1000):
        n = 2 if i % 2 == 0 else 3
        state = random_pure_state(rng, n)
        total, bound = uncertainty_sum(state, build_tloos(n))
        worst_pure = max(worst_pure, abs(total - bound))
    ok = worst_mixed >= -1e-9 and worst_pure <= 1e-9
    report(
        8,
        "uncertainty bound on 1000 mixed + 1000 pure states",
        ok,
        f"min(sum-bound)={worst_mixed:.2e}, max pure |sum-bound|={worst_pure:.2e}",
    )


def _grid_points():
    """Deterministic candidate grid over both channel families."""
    points = []
    for r in np.arange(0.05, 1.25, 0.05):
        for eta in np.arange(0.1, 1.0, 0.1):
            points.append(("loss", round(float(r), 4), round(float(eta), 4), B_TO_A))
    for r in np.arange(0.1, 0.65, 0.1):
        for gain in (1.0, 1.05, 1.1, 1.5):
            points.append(("gain", round(float(r), 4), gain, A_TO_B))
    return points


def _no_violation_under_scan(rho, level, rotations, g_grid, rng):
    """Randomised rotation-and-gain scan; True when the variance bound holds
    throughout.  The paired sum is quadratic in the gain with
    rotation-invariant coefficients apart from the diagonal correlation trace,
    which is validated against the honest evaluator once per state."""
    corr = correlation_matrix(rho, level, level)
    sum_var_a = corr.variance_sum_a()
    sum_var_b = corr.variance_sum_b()
    bound = (level - 1) * np.trace(corr.reduced_a)
    tloos = build_tloos(level)

    rot_a = rotate_tloos(tloos, random_orthogonal(rng, level**2))
    rot_b = rotate_tloos(tloos, random_orthogonal(rng, level**2))
    rotated = correlation_matrix(rho, level, level, rot_a, rot_b)
    diag_trace = float(np.trace(rotated.entries))
    for g in (-1.3, 0.0, 0.7):
        lhs, bnd = paired_variance_sum(rho, rot_a, rot_b, g)
        quadratic = sum_var_a + g * g * sum_var_b + 2.0 * g * diag_trace
        assert abs(lhs - quadratic) < 1e-10
        assert abs(bnd - bound) < 1e-12

    for _ in range(rotations):
        o_a = random_orthogonal(rng, level**2)
        o_b = random_orthogonal(rng, level**2)
        t = float(np.trace(o_a @ corr.entries @ o_b.T))
        lhs = sum_var_a + g_grid**2 * sum_var_b + 2.0 * g_grid * t
        if (lhs < bound - 1e-9).any():
            return False
    return True


def test_criterion_09_witness_equivalence():
    rng = np.random.default_rng(99)
    violating, silent = [], []
    for channel, r, param, direction in _grid_points():
        rho = fock_density(channel_covariance(channel, r, param), 2, 2)
        verdict = tloo_steerable(rho, 2, 2, direction)
        if verdict.steerable and len(violating) < 50:
            violating.append((rho, direction))
        elif not verdict.steerable and len(silent) < 50:
            silent.append((rho, direction))
    assert len(violating) == 50 and len(silent) == 50

    worst_gap = np.inf  # bound - variance_sum, must stay positive
    worst_identity = 0.0
    for rho, direction in violating:
        witness = build_witness(rho, 2, 2, direction)
        worst_gap = min(worst_gap, witness.bound - witness.variance_sum)
        base = correlation_matrix(
            rho if direction == B_TO_A else swap_fock_modes(rho), 2, 2
        )
        worst_identity = max(
            worst_identity, abs(witness.diagonal_correlations.sum() - base.trace_norm)
        )

    g_grid = np.arange(-5.0, 5.0 + 1e-9, 0.01)
    scans_clean = all(
        _no_violation_under_scan(
            rho if direction == B_TO_A else swap_fock_modes(rho), 2, 500, g_grid, rng
        )
        for rho, direction in silent
    )
    ok = worst_gap > 0.0 and worst_identity <= 1e-9 and scans_clean
    report(
        9,
        "witness equivalence at 50 violating / 50 silent points",
        ok,
        f"min witness gap={worst_gap:.3e}, max diag-sum error={worst_identity:.2e}, "
        f"silent scans clean={scans_clean}",
    )


def test_criterion_10_orthogonal_invariance():
    rng = np.random.default_rng(7)
    rho = fock_density(channel_covariance("loss", 0.5, 0.5), 3, 3)
    corr = correlation_matrix(rho, 3, 3)
    base_norm = corr.trace_norm
    # trace_norm reads no observable set: the rotated sets' own covariances and squared means are
    # compared with it and with the purities Tr rho_X^2.
    purity_a = float(np.trace(corr.reduced_a @ corr.reduced_a))
    purity_b = float(np.trace(corr.reduced_b @ corr.reduced_b))
    tloos = build_tloos(3)
    worst = 0.0
    for _ in range(100):
        rot_a = rotate_tloos(tloos, random_orthogonal(rng, 9))
        rot_b = rotate_tloos(tloos, random_orthogonal(rng, 9))
        rotated = correlation_matrix(rho, 3, 3, rot_a, rot_b)
        worst = max(worst, abs(np.linalg.svd(rotated.entries, compute_uv=False).sum() - base_norm))
        worst = max(worst, abs(float((expectation_values(rotated.reduced_a, rot_a) ** 2).sum()) - purity_a))
        worst = max(worst, abs(float((expectation_values(rotated.reduced_b, rot_b) ** 2).sum()) - purity_b))
    ok = worst <= 1e-10
    report(10, "orthogonal invariance over 100 rotations", ok, f"max deviation={worst:.2e}")
