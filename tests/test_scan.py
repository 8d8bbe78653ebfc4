import csv
import io
import json
import math
import re

import mpmath
import numpy as np
import pytest

from conftest import lossy_tmsv_element, reference_margin, reference_squeezing_range, thermal_marginal
from cvsteer import (
    A_TO_B,
    B_TO_A,
    MARGIN_TOL,
    SweepResult,
    SweepSpec,
    apply_gain,
    apply_loss,
    channel_covariance,
    evaluate_point,
    find_boundary,
    gaussian_gain_boundary,
    monogamy_report,
    run_sweep,
    squeezing_range,
    tmsv_covariance,
    write_sweep_csv,
    write_sweep_json,
)
from cvsteer import scan
from cvsteer.scan import CRITERIA, DIRECTIONS, batch_margins

ALL_PAIRS = tuple((criterion, direction) for criterion in CRITERIA for direction in DIRECTIONS)

GAIN_BOUNDARY_R05 = 1.2135522670340726


def direction_id(value):
    """Parametrize ids name the directions BtoA and AtoB, so each case keeps the id earlier runs recorded."""
    return {B_TO_A: "BtoA", A_TO_B: "AtoB"}.get(value)


def small_spec(**overrides):
    base = dict(
        channel="loss",
        r_range=(0.2, 0.8, 4),
        param_range=(0.3, 0.6, 3),
        criteria=(("gaussian", B_TO_A), ("tloo-n2", B_TO_A)),
    )
    base.update(overrides)
    return SweepSpec(**base)


def assert_same_sweep(result, expected):
    """The same (criterion, direction) pairs, grid and margins, bit for bit."""
    assert result.criteria == expected.criteria
    columns = zip((result.r, result.param, *result.margins), (expected.r, expected.param, *expected.margins),
                  strict=True)
    assert all(np.array_equal(column, reference) for column, reference in columns)


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
    for field in ("r_range", "param_range"):
        for steps in (2.5, math.inf, math.nan):
            with pytest.raises(ValueError, match="grid STEPS must be a whole number"):
                small_spec(**{field: (0.3, 0.6, steps)})


@pytest.mark.parametrize("r_range, param_range", [((0.05, 1.4, 120), (0.05, 0.95, 120)), ((0.2, 0.8, 4), (0.3, 0.6, 3))])
def test_spec_takes_whole_float_steps(r_range, param_range):
    ints = small_spec(r_range=r_range, param_range=param_range)
    floats = small_spec(r_range=(*r_range[:2], float(r_range[2])), param_range=(*param_range[:2], float(param_range[2])))
    for a, b in zip(floats.grid(), ints.grid()):
        assert np.array_equal(a, b)


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


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: small_spec(criteria=(("gaussian", "x"),)), "unknown direction 'x'"),
        (lambda: squeezing_range("loss", "tloo-n2", "x"), "unknown direction 'x'"),
        (lambda: batch_margins("loss", np.array([0.5]), np.array([0.5]), (("bogus", B_TO_A),)),
         "unknown criterion in (('bogus', 'b-to-a'),)"),
    ],
    ids=["SweepSpec", "squeezing_range", "batch_margins"],
)
def test_refuses_an_unknown_direction_or_criterion(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


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
        for direction in DIRECTIONS:
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
    # 16 scan points, 12 of them detected: the scan, the blind edges and
    # the batched bisections all run in parts of 5.
    scanned = squeezing_range("gain", "tloo-n2", A_TO_B, r_step=0.05, r_max=0.8)
    monkeypatch.setattr(scan, "_SWEEP_BATCH", 5)
    assert_same_sweep(run_sweep(spec), whole)
    assert squeezing_range("gain", "tloo-n2", A_TO_B, r_step=0.05, r_max=0.8) == scanned


def test_sweep_rows_match_direct_evaluation():
    spec = small_spec()
    result = run_sweep(spec)
    assert len(result.r) * len(result.margins) == 4 * 3 * 2
    for pair, margins, flags in zip(result.criteria, result.margins, result.steerable):
        for r, param, margin, steerable in zip(result.r, result.param, margins, flags):
            verdict = evaluate_point(spec.channel, r, param, *pair)
            assert margin == pytest.approx(verdict.margin, abs=1e-12)
            assert steerable == verdict.steerable


def test_sweep_deterministic():
    spec = small_spec()
    assert_same_sweep(run_sweep(spec), run_sweep(spec))


def test_sweep_grid_order():
    result = run_sweep(small_spec())
    coords = list(zip(result.r.tolist(), result.param.tolist()))
    assert coords == sorted(coords) and len(set(coords)) == 4 * 3


def test_csv_format():
    spec = small_spec(r_range=(0.2, 0.4, 2), param_range=(0.3, 0.6, 2))
    result = run_sweep(spec)
    buffer = io.StringIO()
    write_sweep_csv(result, buffer)
    lines = buffer.getvalue().strip().splitlines()
    assert lines[0] == "r,param,criterion,direction,margin,steerable"
    assert len(lines) == 1 + 2 * 2 * 2
    first = lines[1].split(",")
    assert first[2] == "gaussian"
    assert first[3] == "b-to-a"
    assert first[5] in ("true", "false")
    float(first[4])  # margin parses


# Negative, e-notation and both-flag margins, and e-notation grid values, over five grid points.
HAND_BUILT_SWEEP = SweepResult(
    r=np.array([1e-9, 1e-9, 0.35, 0.35, 1.25]),
    param=np.array([0.3, 2.5e-7, 0.3, 2.5e-7, 0.1]),
    criteria=(("gaussian", B_TO_A), ("tloo-n3", A_TO_B)),
    margins=(np.array([-0.125, 1.5e-12, 2.0e-10, 0.3333333333333, 0.0]),
             np.array([-3.2e-17, MARGIN_TOL, 7.0, -1e22, 1e-300])),
)


def sweep_records(result):
    """The records of a sweep in grid order, one per grid point and pair, with the sweep fields as keys."""
    return [
        {"r": r, "param": param, "criterion": criterion, "direction": direction,
         "margin": margins[i], "steerable": flags[i]}
        for i, (r, param) in enumerate(zip(result.r.tolist(), result.param.tolist()))
        for (criterion, direction), margins, flags in zip(
            result.criteria, [m.tolist() for m in result.margins], [s.tolist() for s in result.steerable])
    ]


def test_csv_bytes_match_csv_writer():
    result = HAND_BUILT_SWEEP
    flags = np.concatenate(result.steerable)
    assert flags.any() and not flags.all()
    reference = io.StringIO()
    writer = csv.writer(reference)
    writer.writerow(["r", "param", "criterion", "direction", "margin", "steerable"])
    for record in sweep_records(result):
        writer.writerow([f"{record['r']:.9g}", f"{record['param']:.9g}", record["criterion"], record["direction"],
                         f"{record['margin']:.9g}", "true" if record["steerable"] else "false"])
    buffer = io.StringIO()
    write_sweep_csv(result, buffer)
    assert buffer.getvalue().encode() == reference.getvalue().encode()
    assert "e-" in buffer.getvalue() and "e+22" in buffer.getvalue()


@pytest.mark.parametrize("batch", [2, scan._SWEEP_BATCH])
def test_json_bytes_match_json_dumps(monkeypatch, batch):
    # At 2 points per batch the five grid points take three batches, the last one short.
    monkeypatch.setattr(scan, "_SWEEP_BATCH", batch)
    buffer = io.StringIO()
    write_sweep_json(HAND_BUILT_SWEEP, buffer)
    assert buffer.getvalue().encode() == (json.dumps(sweep_records(HAND_BUILT_SWEEP), indent=2) + "\n").encode()
    assert "e-" in buffer.getvalue() and "e+22" in buffer.getvalue() and "-0.125" in buffer.getvalue()
    csv_buffer = io.StringIO()
    write_sweep_csv(HAND_BUILT_SWEEP, csv_buffer)
    header = csv_buffer.getvalue().splitlines()[0].split(",")
    assert all(list(record) == header for record in json.loads(buffer.getvalue()))


def test_json_formats_repeated_and_signed_zero_grid_values_as_json_dumps():
    # The writer formats each distinct grid value once, told apart by its bits: 0.0 and -0.0 differ.
    result = SweepResult(r=np.array([-0.0, -0.0, 0.0, 0.0, 0.35]), param=np.array([0.0, -0.0, 0.0, -0.0, 0.0]),
                         criteria=(("gaussian", B_TO_A),), margins=(np.array([0.5, -0.0, 0.0, 1e-300, -2.0]),))
    buffer = io.StringIO()
    write_sweep_json(result, buffer)
    assert buffer.getvalue() == json.dumps(sweep_records(result), indent=2) + "\n"
    assert buffer.getvalue().count('"r": -0.0') == 2 and buffer.getvalue().count('"param": -0.0') == 2


@pytest.mark.parametrize(
    "result",
    [
        SweepResult(np.array([0.1, 0.2]), np.array([0.5, 0.5]), (), ()),
        SweepResult(np.array([]), np.array([]), (("gaussian", B_TO_A),), (np.array([]),)),
    ],
    ids=["no-pairs", "no-points"],
)
def test_json_of_an_empty_sweep_is_an_empty_list(monkeypatch, result):
    monkeypatch.setattr(scan, "_SWEEP_BATCH", 1)
    buffer = io.StringIO()
    write_sweep_json(result, buffer)
    assert buffer.getvalue() == json.dumps([], indent=2) + "\n" == "[]\n"


def test_loss_sweep_detection_regions():
    # Gaussian B->A detection is exactly eta > 1/2; the 2-level TLOO detects
    # below 1/2 at moderate squeezing.
    spec = SweepSpec(
        channel="loss",
        r_range=(0.1, 1.0, 4),
        param_range=(0.1, 0.9, 9),
        criteria=(("gaussian", B_TO_A), ("tloo-n2", B_TO_A)),
    )
    result = run_sweep(spec)
    gaussian, tloo = result.steerable
    assert np.array_equal(gaussian, result.param > 0.5)
    below = tloo & (result.param < 0.5)
    assert below.any() and (result.r[below] < 0.9).all()


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


# (r, loss tloo-n2 B->A, gain gaussian A->B) boundaries as find_boundary returns them.
# Each lies within PARAM_XTOL of the 50-digit root of its margin, except the loss ones at
# r = 1e-9 (8.4e-11 off) and r = 5.0 (1.6e-12 off), where the double margin's own rounding
# moves its sign change; near the vacuum the gain boundary 1 + tanh(r)^2 rounds to 1.
PINNED_FIND_BOUNDARY = [
    (1e-09, 0.49999999920943056, 1.0),
    (0.05, 0.46915986314403824, 1.002495839228432),
    (0.3, 0.4011129079834041, 1.084863038173369),
    (1.0, 0.5377304299676742, 1.580025658385975),
    (2.5, 0.6876785866350622, 1.973407773316819),
    (5.0, 0.6956659169765991, 1.999818416768495),
]
MARGIN_ROUNDING_STEP = {1e-09: 1e-10, 5.0: 2e-12}


@pytest.mark.parametrize("r, loss, gain", PINNED_FIND_BOUNDARY, ids=[f"r={r}" for r, _, _ in PINNED_FIND_BOUNDARY])
def test_find_boundary_is_pinned(r, loss, gain):
    assert repr(find_boundary("loss", r, "tloo-n2", B_TO_A)) == repr(loss)
    assert repr(find_boundary("gain", r, "gaussian", A_TO_B)) == repr(gain)
    # The 50-digit margin changes sign within PARAM_XTOL of the pinned loss boundary (or the
    # margin's rounding, where larger), and the pinned gain boundary lies within it of the closed form.
    step = MARGIN_ROUNDING_STEP.get(r, scan.PARAM_XTOL)
    assert reference_margin("loss", r, loss - step, 2, B_TO_A) < 0 < reference_margin("loss", r, loss + step, 2, B_TO_A)
    assert abs(gain - (1 + mpmath.tanh(r) ** 2)) <= scan.PARAM_XTOL


@pytest.mark.parametrize(
    "channel, criterion, direction, r, expected, batches",
    [
        ("loss", "tloo-n3", B_TO_A, 0.8, 0.4685611961103578, 3),
        ("gain", "tloo-n2", A_TO_B, 0.4, 1.1952401178417458, 4),
        ("loss", "gaussian", B_TO_A, 0.3, 0.5000000000000001, 3),
        ("gain", "gaussian", A_TO_B, 1e-4, 1.0000000099999997, 2),
    ],
    ids=direction_id,
)
def test_find_boundary_searches_from_its_pre_scan(monkeypatch, channel, criterion, direction, r, expected, batches):
    # The pre-scan grid holds the margins at the ends of the cell where the sign flips and at the
    # grid points beside it, so the search evaluates three points per step, all inside that cell.
    params = []

    def recording(*args):
        params.append(args[2].tolist())
        return batch_margins(*args)

    monkeypatch.setattr(scan, "batch_margins", recording)
    assert repr(find_boundary(channel, r, criterion, direction)) == repr(expected)
    assert len(params) == batches
    grid = np.linspace(*scan.CHANNELS[channel].bracket, 64)
    cell = grid[np.searchsorted(grid, expected) - 1 :][:2]
    assert params[0] == grid.tolist()
    assert all(len(step) == 3 and cell[0] < min(step) and max(step) < cell[1] for step in params[1:])


def two_crossings(channel, rs, params, criteria):
    return [(params - 0.3) * (params - 0.7) for _ in criteria]


def three_crossings(channel, rs, params, criteria):
    return [(params - 2) * (params - 3) * (params - 4) for _ in criteria]


def test_find_boundary_reports_every_crossing(monkeypatch):
    # Two crossings used to return None, three one of them silently.
    monkeypatch.setattr(scan, "batch_margins", two_crossings)
    with pytest.raises(ValueError, match=r"tloo-n2 margin changes sign 2 times at r=0.5: "
                                         r"between eta=0.285715 and 0.301588, eta=0.698413 and 0.714286$"):
        find_boundary("loss", 0.5, "tloo-n2", B_TO_A)
    monkeypatch.setattr(scan, "batch_margins", three_crossings)
    with pytest.raises(ValueError, match="changes sign 3 times"):
        find_boundary("gain", 0.5, "gaussian", A_TO_B)


@pytest.mark.parametrize("r", [1e-4, 1e-6, 1e-7, 1e-12])
def test_gain_boundary_is_found_near_the_vacuum(r):
    # G*(r) = 1 + tanh(r)^2 lies below 1 + 1e-12, where the gain bracket used to start,
    # for r <~ 1e-6, and rounds to 1 for r <~ 1e-8.
    gain = find_boundary("gain", r, "gaussian", A_TO_B)
    assert abs(gain - (1 + mpmath.tanh(r) ** 2)) <= scan.PARAM_XTOL
    assert gain < 1 + 1e-12 or r > 1e-6


def test_boundary_absent():
    # Amplified states stay steerable B->A at every gain: no sign change.
    assert find_boundary("gain", 0.5, "gaussian", B_TO_A) is None


def test_boundary_rejects_bad_squeezing():
    with pytest.raises(ValueError):
        find_boundary("loss", 0.0, "gaussian", B_TO_A)


def test_squeezing_range_guard():
    with pytest.raises(ValueError):
        squeezing_range("loss", "gaussian", B_TO_A)


def test_squeezing_range_refuses_a_point_count_that_overflows():
    # 1.4 / 1e-320 is inf as a float, which int() cannot take.
    with pytest.raises(ValueError, match="squeezing scan has inf points; it needs 1 to 250000"):
        squeezing_range("loss", "tloo-n2", B_TO_A, r_step=1e-320, r_max=1.4)


@pytest.mark.parametrize("channel, direction", [("loss", A_TO_B), ("gain", B_TO_A)], ids=direction_id)
def test_squeezing_range_without_blind_region(monkeypatch, channel, direction):
    # The Gaussian criterion detects loss A->B and gain B->A at every channel
    # parameter (Kogias et al., PRL 114, 060403), so nothing is scanned.
    def no_scan(*args):
        raise AssertionError("scanned a channel and direction with no Gaussian-blind region")

    monkeypatch.setattr(scan, "batch_margins", no_scan)
    result = squeezing_range(channel, "tloo-n2", direction, r_step=0.05, r_max=1.2)
    assert not result.detected
    assert not result.blind_region
    assert (result.r_low, result.r_high, result.eps_curve) == (None, None, None)


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


def test_squeezing_range_refuses_a_margin_positive_past_the_eps_bracket(monkeypatch):
    def always_positive(channel, rs, params, criteria):
        return [np.ones(len(rs)) for _ in criteria]

    def reaching(channel, rs, params, criteria):
        # Detection reaches 0.1 past G* at r = 0.2 and 0.03 past it elsewhere.
        return [np.where(rs == 0.2, 0.1, 0.03) - (params - gaussian_gain_boundary(rs)) for _ in criteria]

    monkeypatch.setattr(scan, "batch_margins", always_positive)
    with pytest.raises(ValueError, match=r"^tloo-n2 margin is positive 0.07 above the Gaussian boundary at r=0.1$"):
        squeezing_range("gain", "tloo-n2", A_TO_B, r_step=0.1, r_max=0.2)
    monkeypatch.setattr(scan, "batch_margins", reaching)
    with pytest.raises(ValueError, match=r"^tloo-n2 margin is positive 0.07 above the Gaussian boundary at r=0.2$"):
        squeezing_range("gain", "tloo-n2", A_TO_B, r_step=0.1, r_max=0.3)


@pytest.mark.parametrize("level", [2, 3])
def test_gain_margin_is_negative_half_above_the_gaussian_boundary(level):
    # squeezing_range brackets every eps point in [G*, G* + _EPS_BRACKET] and conftest's reference search
    # in [G*, G* + 0.5]; detection reaches at most about 0.05 past G*, and the margin at both ends stays negative.
    rs = np.tile(np.geomspace(1e-6, 5.0, 400), 2)
    above = np.repeat([scan._EPS_BRACKET, 0.5], 400)
    (margins,) = batch_margins("gain", rs, gaussian_gain_boundary(rs) + above, ((f"tloo-n{level}", A_TO_B),))
    assert (margins < 0.0).all()


def test_squeezing_range_reports_a_second_run(monkeypatch):
    def two_runs(channel, rs, params, criteria):
        detected = ((rs > 0.15) & (rs < 0.35)) | (rs > 0.55)
        return [np.where(detected, 1.0, -1.0) for _ in criteria]

    monkeypatch.setattr(scan, "batch_margins", two_runs)
    with pytest.raises(ValueError, match=r"stops after r=0.3 and resumes at r=0.6$"):
        squeezing_range("loss", "tloo-n2", B_TO_A, r_step=0.1, r_max=0.8)


def test_squeezing_range_ends_refine_where_detection_flips():
    # The loss n2 margin at r = 1e-5 is 9.9e-11: positive, but not past MARGIN_TOL.
    result = squeezing_range("loss", "tloo-n2", B_TO_A, r_step=1e-5, r_max=1e-3)
    assert result.detected
    assert result.r_low == pytest.approx(1.0625e-05, abs=1e-6)
    assert result.r_high == 1e-3


@pytest.mark.parametrize(
    "r_step, r_max, points",
    [
        (0.6, 1.0, [0.6]),  # 1.0 / 0.6 rounds to 2, which would scan r = 1.2
        (0.3, 5.0, [0.3 * k for k in range(1, 17)]),  # rounding to 17 would scan r = 5.1
        (5 / 147, 5.0, [5 / 147 * k for k in range(1, 147)] + [5.0]),  # 147 * step rounds past 5
    ],
)
def test_squeezing_range_scans_no_point_past_r_max(monkeypatch, r_step, r_max, points):
    scanned = []

    def recording(channel, rs, params, criteria):
        scanned.append(rs.tolist())
        return [np.full(len(rs), -1.0) for _ in criteria]

    monkeypatch.setattr(scan, "batch_margins", recording)
    assert not squeezing_range("loss", "tloo-n2", B_TO_A, r_step=r_step, r_max=r_max).detected
    assert scanned[0] == points


def test_squeezing_range_gain_edge_is_looked_up_at_call_time(monkeypatch):
    calls = []

    def counting(r):
        calls.append(len(r))
        return gaussian_gain_boundary(r)

    monkeypatch.setattr(scan, "gaussian_gain_boundary", counting)
    assert squeezing_range("gain", "tloo-n2", A_TO_B, r_step=0.1, r_max=0.5).detected
    assert calls


@pytest.mark.parametrize("channel, criterion, direction, most", [("loss", "tloo-n3", B_TO_A, 3), ("gain", "tloo-n2", A_TO_B, 5)],
                         ids=direction_id)
def test_squeezing_range_takes_few_margin_batches(monkeypatch, channel, criterion, direction, most):
    # Most of a margin batch's cost is fixed, so the batch count sets a search's cost.  Root steps
    # from the bracket ends alone took 6 batches for loss and 11 for gain here at these tolerances.
    # The scan's batch holds each scan point, under gain one batch the eps grid at the 31 detected
    # points, and every later batch three points per bracket.
    calls = []

    def counting(*args):
        calls.append(len(args[1]))
        return batch_margins(*args)

    monkeypatch.setattr(scan, "batch_margins", counting)
    assert squeezing_range(channel, criterion, direction, r_step=0.0205, r_max=1.22).detected
    assert len(calls) <= most
    assert calls[0] == 59
    grid = [31 * scan._EPS_STEPS] if scan.CHANNELS[channel].eps_curve else []
    assert calls[1 : 1 + len(grid)] == grid
    assert all(size % 3 == 0 for size in calls[1 + len(grid) :])


@pytest.mark.parametrize("criterion, most", [("tloo-n2", 6100), ("tloo-n3", 4800)])
def test_default_step_gain_scan_evaluates_few_margins(monkeypatch, criterion, most):
    # At the default step most of a batch's cost is per margin, so the margin count sets the search's
    # cost: 1,400 scan points, about 650 (n2) or 490 (n3) detected.  The eps grid is evaluated at the
    # detected points alone, and a search over more than _GUARDED_BRACKETS brackets evaluates its
    # estimates without guards.  Steps from the bracket ends alone took 6,207 and 4,767 margins at
    # looser tolerances, and a grid at every scan point with guarded steps 10,673 and 9,083.
    calls = []

    def counting(*args):
        calls.append(len(args[1]))
        return batch_margins(*args)

    monkeypatch.setattr(scan, "batch_margins", counting)
    result = squeezing_range("gain", criterion, A_TO_B)
    assert calls[:2] == [1400, scan._EPS_STEPS * len(result.eps_curve)]
    assert sum(calls) <= most
    assert max(calls[2:]) <= len(result.eps_curve) + 2  # one point per live bracket


@pytest.mark.parametrize("r_step", [0.02, 0.0205, 0.1])
@pytest.mark.parametrize(
    "channel, criterion, direction",
    [("loss", "tloo-n2", B_TO_A), ("loss", "tloo-n3", B_TO_A), ("gain", "tloo-n2", A_TO_B), ("gain", "tloo-n3", A_TO_B)],
    ids=direction_id,
)
def test_squeezing_range_equals_separate_searches(channel, criterion, direction, r_step):
    # One search from the points the scan and eps grid hold and separate searches evaluating their own
    # ends converge to the same sign changes: each result lies within its tolerance of one.
    result = squeezing_range(channel, criterion, direction, r_step=r_step, r_max=1.22)
    reference = reference_squeezing_range(channel, criterion, direction, r_step=r_step, r_max=1.22)
    assert result.detected and reference.detected

    def near(value, expected, xtol):
        return abs(value - expected) <= 2 * (xtol + 4 * np.finfo(float).eps * abs(expected))

    assert near(result.r_low, reference.r_low, scan.PARAM_XTOL) and near(result.r_high, reference.r_high, scan.PARAM_XTOL)
    if reference.eps_curve is None:
        assert result.eps_curve is None
    else:
        assert [r for r, _ in result.eps_curve] == [r for r, _ in reference.eps_curve]
        assert all(near(eps, expected, scan.EPS_XTOL) for (_, eps), (_, expected) in zip(result.eps_curve, reference.eps_curve))


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
