import io
import math

import numpy as np
import pytest

from cvsteer import (
    A_TO_B,
    B_TO_A,
    SweepSpec,
    apply_gain,
    apply_loss,
    channel_covariance,
    evaluate_point,
    find_boundary,
    gaussian_gain_boundary,
    lossy_tmsv_element,
    monogamy_report,
    run_sweep,
    squeezing_range,
    thermal_marginal,
    tmsv_covariance,
    write_sweep_csv,
)
from cvsteer import scan
from cvsteer.scan import CRITERIA, DIRECTION_LABELS, batch_margins

ALL_PAIRS = tuple((criterion, direction) for criterion in CRITERIA for direction in DIRECTION_LABELS)

GAIN_BOUNDARY_R05 = 1.2135522670340726


def small_spec(**overrides):
    base = dict(
        channel="loss",
        r_range=(0.2, 0.8, 4),
        param_range=(0.3, 0.6, 3),
        criteria=(("gaussian", B_TO_A), ("tloo-n2", B_TO_A)),
    )
    base.update(overrides)
    return SweepSpec(**base)


def test_channel_covariance():
    assert channel_covariance("loss", 0.5, 0.4) == apply_loss(tmsv_covariance(0.5), 0.4, "B")
    assert channel_covariance("gain", 0.5, 1.3) == apply_gain(tmsv_covariance(0.5), 1.3, "B")
    with pytest.raises(ValueError):
        channel_covariance("squeeze", 0.5, 1.0)


def test_spec_validation():
    with pytest.raises(ValueError):
        small_spec(r_range=(0.2, 0.8, 1))  # degenerate 1-point range
    with pytest.raises(ValueError):
        small_spec(param_range=(0.0, 0.6, 3))  # eta = 0 unphysical
    with pytest.raises(ValueError):
        small_spec(channel="gain", param_range=(0.5, 2.0, 3))  # gain < 1
    with pytest.raises(ValueError):
        small_spec(criteria=(("tloo-n4", B_TO_A),))


@pytest.mark.parametrize(
    "field, bounds",
    [
        ("r_range", (0.1, math.inf, 3)),
        ("r_range", (math.nan, 0.5, 3)),
        ("param_range", (0.3, math.nan, 3)),
        ("param_range", (-math.inf, 0.6, 3)),
    ],
)
def test_spec_rejects_non_finite_bounds(field, bounds):
    with pytest.raises(ValueError, match="must be finite"):
        small_spec(**{field: bounds})


def test_spec_bounds_grid_size():
    small_spec(r_range=(0.2, 0.8, 500), param_range=(0.3, 0.6, 500))  # 250,000 points
    with pytest.raises(ValueError, match="at most 250000"):
        small_spec(r_range=(0.2, 0.8, 501), param_range=(0.3, 0.6, 500))


def basis_free_tloo_margin(r: float, eta: float, level: int, direction: str) -> float:
    """TLOO margin of a lossy squeezed vacuum without any observable basis.

    The singular values of the TLOO correlation matrix are those of the
    realigned rho - rho_A (x) rho_B, and the sum of squared TLOO means is the
    purity of the truncated marginal; elements and marginals come from the
    closed forms.
    """
    n = level
    rho = np.array(
        [
            [[[lossy_tmsv_element(r, eta, (m1, m2, n1, n2)) for n2 in range(n)] for n1 in range(n)]
             for m2 in range(n)]
            for m1 in range(n)
        ]
    )
    p_a = np.array([thermal_marginal(r, 1.0, k) for k in range(n)])
    p_b = np.array([thermal_marginal(r, eta, k) for k in range(n)])
    x = rho - np.einsum("mn,pq->mpnq", np.diag(p_a), np.diag(p_b))
    trace_norm = np.linalg.svd(x.transpose(0, 2, 1, 3).reshape(n * n, n * n), compute_uv=False).sum()
    trusted, untrusted = (p_a, p_b) if direction == B_TO_A else (p_b, p_a)
    bound = math.sqrt(
        (trusted.sum() - (trusted**2).sum()) * (n * untrusted.sum() - (untrusted**2).sum())
    )
    return trace_norm - bound


def loss_batch():
    """A 60-point loss grid that includes the Gaussian boundary eta = 1/2."""
    rs, etas = np.meshgrid(np.linspace(0.05, 1.4, 10), np.linspace(0.05, 0.95, 7), indexing="ij")
    return rs.ravel(), etas.ravel()


def test_batch_margins_match_oracles():
    rs, etas = loss_batch()
    margins = dict(zip(ALL_PAIRS, batch_margins("loss", rs, etas, ALL_PAIRS)))
    checked = 0
    for i, (r, eta) in enumerate(zip(rs, etas)):
        for direction in DIRECTION_LABELS:
            for level in (2, 3):
                reference = basis_free_tloo_margin(r, eta, level, direction)
                assert margins[(f"tloo-n{level}", direction)][i] == pytest.approx(reference, abs=1e-10)
            # Closed-form Gaussian verdicts: B->A iff eta > 1/2, A->B always.
            if direction == B_TO_A and abs(eta - 0.5) <= 1e-6:
                continue
            expected = eta > 0.5 if direction == B_TO_A else True
            assert (margins[("gaussian", direction)][i] > scan.MARGIN_TOL) == expected
            checked += 1
    assert checked == 2 * len(rs) - 10  # the ten points on eta = 1/2 are skipped once each


@pytest.mark.parametrize("channel, params", [("loss", (0.3, 0.5, 0.9)), ("gain", (1.0, 1.2, 1.9))])
def test_batch_of_one_is_bit_identical(channel, params):
    rs = np.repeat([0.1, 0.7, 1.3], 3)
    ps = np.tile(params, 3)
    for pair, margins in zip(ALL_PAIRS, batch_margins(channel, rs, ps, ALL_PAIRS)):
        single = [evaluate_point(channel, r, p, *pair).margin for r, p in zip(rs, ps)]
        assert margins.tolist() == single


def test_sweep_batches_join_seamlessly(monkeypatch):
    spec = small_spec(criteria=ALL_PAIRS)
    whole = run_sweep(spec)
    monkeypatch.setattr(scan, "_SWEEP_BATCH", 5)
    assert run_sweep(spec) == whole


def test_sweep_rows_match_direct_evaluation():
    spec = small_spec()
    rows = run_sweep(spec)
    assert len(rows) == 4 * 3 * 2
    for row in rows:
        verdict = evaluate_point(spec.channel, row.r, row.param, row.criterion, row.direction)
        assert row.margin == pytest.approx(verdict.margin, abs=1e-12)
        assert row.steerable == verdict.steerable


def test_sweep_deterministic():
    spec = small_spec()
    assert run_sweep(spec) == run_sweep(spec)


def test_sweep_grid_order():
    spec = small_spec()
    rows = run_sweep(spec)
    coords = [(row.r, row.param) for row in rows[::2]]
    assert coords == sorted(coords)


def test_csv_format():
    spec = small_spec(r_range=(0.2, 0.4, 2), param_range=(0.3, 0.6, 2))
    rows = run_sweep(spec)
    buffer = io.StringIO()
    write_sweep_csv(rows, buffer)
    lines = buffer.getvalue().strip().splitlines()
    assert lines[0] == "r,param,criterion,direction,margin,steerable"
    assert len(lines) == 1 + len(rows)
    first = lines[1].split(",")
    assert first[2] == "gaussian"
    assert first[3] == "b-to-a"
    assert first[5] in ("true", "false")
    float(first[4])  # margin parses


def test_loss_sweep_detection_regions():
    # Gaussian B->A detection is exactly eta > 1/2; the 2-level TLOO detects
    # below 1/2 at moderate squeezing.
    spec = SweepSpec(
        channel="loss",
        r_range=(0.1, 1.0, 4),
        param_range=(0.1, 0.9, 9),
        criteria=(("gaussian", B_TO_A), ("tloo-n2", B_TO_A)),
    )
    rows = run_sweep(spec)
    for row in rows:
        if row.criterion == "gaussian":
            assert row.steerable == (row.param > 0.5)
    below = [r for r in rows if r.criterion == "tloo-n2" and r.param < 0.5 and r.steerable]
    assert below and all(row.r < 0.9 for row in below)


def test_boundary_gaussian_loss():
    assert find_boundary("loss", 2.0, "gaussian", B_TO_A) == pytest.approx(0.5, abs=1e-6)


def test_boundary_gaussian_gain():
    assert find_boundary("gain", 0.5, "gaussian", A_TO_B) == pytest.approx(
        GAIN_BOUNDARY_R05, abs=1e-6
    )


def test_boundary_tloo_below_half():
    eta_star = find_boundary("loss", 0.4, "tloo-n2", B_TO_A)
    assert eta_star is not None
    assert eta_star < 0.5
    assert evaluate_point("loss", 0.4, eta_star + 1e-3, "tloo-n2", B_TO_A).steerable
    assert not evaluate_point("loss", 0.4, eta_star - 1e-3, "tloo-n2", B_TO_A).steerable


def test_boundary_absent():
    # Amplified states stay steerable B->A at every gain: no sign change.
    assert find_boundary("gain", 0.5, "gaussian", B_TO_A) is None


def test_boundary_rejects_bad_squeezing():
    with pytest.raises(ValueError):
        find_boundary("loss", 0.0, "gaussian", B_TO_A)


def test_squeezing_range_guard():
    with pytest.raises(ValueError):
        squeezing_range("loss", "gaussian", B_TO_A)


def test_squeezing_range_loss_two_level_coarse():
    result = squeezing_range("loss", "tloo-n2", B_TO_A, r_step=0.01, r_max=1.2)
    assert result.detected
    assert result.r_low <= 0.02
    assert result.r_high == pytest.approx(0.869, abs=0.01)
    assert result.eps_curve is None


def test_squeezing_range_gain_two_level_coarse():
    result = squeezing_range("gain", "tloo-n2", A_TO_B, r_step=0.05, r_max=0.8)
    assert result.detected
    assert result.eps_curve
    assert 0.0 < result.eps_max <= 0.08
    assert result.r_high < 0.7
    # Every recorded excess sits above the Gaussian boundary.
    for r, eps in result.eps_curve:
        assert eps > 0.0
        boundary = gaussian_gain_boundary(r)
        assert evaluate_point("gain", r, boundary + eps / 2, "tloo-n2", A_TO_B).steerable


def test_squeezing_range_gain_walk_is_capped(monkeypatch):
    def always_positive(channel, rs, params, criteria):
        return [np.ones(len(rs)) for _ in criteria]

    monkeypatch.setattr(scan, "batch_margins", always_positive)
    with pytest.raises(ValueError, match="stays positive up to gain 6"):
        squeezing_range("gain", "tloo-n2", A_TO_B, r_step=0.1, r_max=0.2)


def test_squeezing_range_stable_under_refinement():
    coarse = squeezing_range("loss", "tloo-n2", B_TO_A, r_step=0.004, r_max=1.0)
    fine = squeezing_range("loss", "tloo-n2", B_TO_A, r_step=0.002, r_max=1.0)
    assert abs(coarse.r_high - fine.r_high) < 2e-3


def test_monogamy_simultaneous_point():
    report = monogamy_report(0.4, 0.55)
    assert report.bob.steerable
    assert report.eve.steerable
    assert report.simultaneous


def test_monogamy_eve_not_detected_at_tiny_share():
    report = monogamy_report(0.1, 0.95)
    assert report.bob.steerable
    assert not report.eve.steerable
    assert not report.simultaneous


def test_monogamy_boundary_eta_conservative():
    report = monogamy_report(0.4, 0.5)
    assert not report.bob.steerable  # margin zero counts as non-steerable
    assert not report.simultaneous


def test_monogamy_rejects_out_of_range():
    for eta in (0.0, 1.0, -0.1, 1.2):
        with pytest.raises(ValueError):
            monogamy_report(0.4, eta)
