"""Parameter sweeps, boundary bisection and the monogamy scenario.

Everything here composes the criterion modules over (squeezing, channel
parameter) grids; no detection logic of its own.  Points are evaluated as one
batch: every stage runs once on the stacked covariances of a whole grid, and a
single point is a batch of one.  Output rows always come back in deterministic
grid order (squeezing-major, then channel parameter, then criterion).
"""

import csv
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import bisect

from .covariance import TwoModeCovariance, apply_gain, apply_loss, require_physical, tmsv_covariance
from .fock import fock_density
from .gaussian_criterion import gaussian_gain_boundary, gaussian_margin
from .tloo_criterion import correlation_matrix, criterion_rhs
from .verdict import A_TO_B, B_TO_A, MARGIN_TOL, SteeringVerdict

TLOO_LEVELS = {"tloo-n2": 2, "tloo-n3": 3}
CRITERIA = ("gaussian", *TLOO_LEVELS)
DIRECTION_LABELS = {B_TO_A: "b-to-a", A_TO_B: "a-to-b"}
DIRECTION_FROM_LABEL = {v: k for k, v in DIRECTION_LABELS.items()}

CSV_HEADER = ("r", "param", "criterion", "direction", "margin", "steerable")

# Channel-parameter search brackets for boundary bisection.
_LOSS_BRACKET = (1e-6, 1.0)
_GAIN_BRACKET = (1.0 + 1e-12, 6.0)
_BOUNDARY_XTOL = 1e-8

# Largest sweep grid, and points per batch: the default 120x120 grid is one
# batch, and the working arrays stay near 3 kB per point however large the grid.
MAX_GRID_POINTS = 250_000
_SWEEP_BATCH = 16_384


def channel_covariance(channel: str, r, param) -> TwoModeCovariance:
    """Squeezed vacuum through the named channel on mode B (1-D r and param: a batch)."""
    base = tmsv_covariance(r)
    if channel == "loss":
        return apply_loss(base, param, "B")
    if channel == "gain":
        return apply_gain(base, param, "B")
    raise ValueError(f"unknown channel {channel!r}")


def batch_margins(channel: str, rs, params, criteria) -> list[np.ndarray]:
    """Margins of each (criterion, direction) pair at every point of a batch.

    rs and params are 1-D arrays; the result holds one margin array per pair.
    The stack is checked once as squeezed vacuum and once as channel output,
    one Fock density at the largest level serves every level (elements below
    a cutoff do not depend on it) and a trace norm serves both directions.
    """
    if any(criterion not in CRITERIA for criterion, _ in criteria):
        raise ValueError(f"unknown criterion in {criteria!r}")
    cov = channel_covariance(channel, rs, params)
    levels = {TLOO_LEVELS[c] for c, _ in criteria if c != "gaussian"}
    if levels:
        rho = fock_density(cov, max(levels), max(levels))  # checks the channel output
    else:
        require_physical(cov)
    corr = {n: correlation_matrix(rho, n, n) for n in levels}
    norm = {n: c.trace_norm for n, c in corr.items()}
    margins = []
    for criterion, direction in criteria:
        if criterion == "gaussian":
            margins.append(gaussian_margin(cov, direction))
        else:
            n = TLOO_LEVELS[criterion]
            margins.append(norm[n] - criterion_rhs(corr[n], direction))
    return margins


def evaluate_point(
    channel: str, r: float, param: float, criterion: str, direction: str
) -> SteeringVerdict:
    """Run one criterion at one grid point, as a batch of one."""
    (margin,) = batch_margins(channel, np.array([r]), np.array([param]), ((criterion, direction),))
    return SteeringVerdict.from_margin(criterion.split("-")[0], direction, margin[0])


@dataclass(frozen=True)
class SweepSpec:
    """Grid description for a sweep: channel, ranges and criteria to run."""

    channel: str
    r_range: tuple[float, float, int]
    param_range: tuple[float, float, int]
    criteria: tuple[tuple[str, str], ...]  # (criterion, direction) pairs

    def __post_init__(self):
        if self.channel not in ("loss", "gain"):
            raise ValueError(f"unknown channel {self.channel!r}")
        for name, (lo, hi, steps) in (("r", self.r_range), ("param", self.param_range)):
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError(f"{name} range bounds must be finite, got ({lo}, {hi})")
            if steps < 2:
                raise ValueError(f"{name} range needs at least 2 steps, got {steps}")
            if not lo <= hi:
                raise ValueError(f"{name} range is inverted: ({lo}, {hi})")
        lo, hi, _ = self.param_range
        if self.channel == "loss" and not (0.0 < lo and hi <= 1.0):
            raise ValueError("loss transmittance range must lie in (0, 1]")
        if self.channel == "gain" and lo < 1.0:
            raise ValueError("gain range must start at >= 1")
        if self.r_range[0] < 0.0:
            raise ValueError("squeezing range must be non-negative")
        points = self.r_range[2] * self.param_range[2]
        if points > MAX_GRID_POINTS:
            raise ValueError(f"grid has {points} points; at most {MAX_GRID_POINTS} are supported")
        for criterion, direction in self.criteria:
            if criterion not in CRITERIA:
                raise ValueError(f"unknown criterion {criterion!r}")
            if direction not in DIRECTION_LABELS:
                raise ValueError(f"unknown direction {direction!r}")

    def grid(self) -> list[tuple[float, float]]:
        r_lo, r_hi, r_steps = self.r_range
        p_lo, p_hi, p_steps = self.param_range
        rs = [r_lo + (r_hi - r_lo) * i / (r_steps - 1) for i in range(r_steps)]
        ps = [p_lo + (p_hi - p_lo) * i / (p_steps - 1) for i in range(p_steps)]
        return [(r, p) for r in rs for p in ps]


@dataclass(frozen=True)
class SweepRow:
    r: float
    param: float
    criterion: str
    direction: str
    margin: float
    steerable: bool


def run_sweep(spec: SweepSpec) -> list[SweepRow]:
    """Evaluate every (criterion, direction) at every grid point, batched, in grid order."""
    points = spec.grid()
    margins = [[] for _ in spec.criteria]
    for start in range(0, len(points), _SWEEP_BATCH):
        rs, params = np.array(points[start : start + _SWEEP_BATCH]).T
        for out, batch in zip(margins, batch_margins(spec.channel, rs, params, spec.criteria)):
            out.extend(batch.tolist())
    return [
        SweepRow(r, param, criterion, direction, m[i], m[i] > MARGIN_TOL)
        for i, (r, param) in enumerate(points)
        for (criterion, direction), m in zip(spec.criteria, margins)
    ]


def write_sweep_csv(rows: list[SweepRow], stream) -> None:
    """Write sweep rows with the fixed header, 9 significant digits."""
    writer = csv.writer(stream)
    writer.writerow(CSV_HEADER)
    for row in rows:
        writer.writerow(
            [
                f"{row.r:.9g}",
                f"{row.param:.9g}",
                row.criterion,
                DIRECTION_LABELS[row.direction],
                f"{row.margin:.9g}",
                "true" if row.steerable else "false",
            ]
        )


def find_boundary(channel: str, r: float, criterion: str, direction: str) -> float | None:
    """Bisect the channel parameter where the criterion margin changes sign.

    Returns None when the margin has the same sign across the whole physical
    parameter range (no boundary).
    """
    if r <= 0.0:
        raise ValueError(f"squeezing parameter must be > 0, got {r}")
    lo, hi = _LOSS_BRACKET if channel == "loss" else _GAIN_BRACKET

    def margin(param: float) -> float:
        return evaluate_point(channel, r, param, criterion, direction).margin

    m_lo, m_hi = margin(lo), margin(hi)
    if (m_lo > 0.0) == (m_hi > 0.0):
        return None
    return float(bisect(margin, lo, hi, xtol=_BOUNDARY_XTOL, maxiter=200))


@dataclass(frozen=True)
class SqueezingRange:
    """Squeezing interval where a TLOO criterion beats the Gaussian one.

    For the loss channel the Gaussian-blind region is transmittance below 1/2;
    detection there exists iff the margin at 1/2 is positive (the margin is
    single-crossing in the transmittance).  For the gain channel the blind
    region is gain above the Gaussian boundary, and eps_curve records the
    measured excess gain (r, detected gain minus Gaussian boundary) at every
    detected squeezing.
    """

    channel: str
    criterion: str
    direction: str
    detected: bool
    r_low: float | None = None
    r_high: float | None = None
    eps_curve: tuple[tuple[float, float], ...] | None = None

    @property
    def eps_max(self) -> float | None:
        if not self.eps_curve:
            return None
        return max(eps for _, eps in self.eps_curve)

    @property
    def eps_argmax(self) -> float | None:
        if not self.eps_curve:
            return None
        return max(self.eps_curve, key=lambda pair: pair[1])[0]


def squeezing_range(
    channel: str,
    criterion: str,
    direction: str,
    r_step: float = 1e-3,
    r_max: float = 1.4,
) -> SqueezingRange:
    """Scan squeezing for detection inside the Gaussian-blind region.

    Scans r on a uniform grid with endpoint refinement by bisection; only the
    TLOO criteria are meaningful here.
    """
    if criterion not in TLOO_LEVELS:
        raise ValueError(f"squeezing-range scan requires a TLOO criterion, got {criterion!r}")
    steps = int(round(r_max / r_step))
    rs = [r_step * i for i in range(1, steps + 1)]

    if channel not in ("loss", "gain"):
        raise ValueError(f"unknown channel {channel!r}")

    def blind_param(r: float) -> float:
        return 0.5 if channel == "loss" else gaussian_gain_boundary(r)

    def blind_margin(r: float) -> float:
        return evaluate_point(channel, r, blind_param(r), criterion, direction).margin

    params = [blind_param(r) for r in rs]
    (margins,) = batch_margins(channel, np.array(rs), np.array(params), ((criterion, direction),))
    detected = [m > MARGIN_TOL for m in margins.tolist()]
    if not any(detected):
        return SqueezingRange(channel, criterion, direction, False)

    first = detected.index(True)
    last = len(detected) - 1 - detected[::-1].index(True)
    r_low, r_high = rs[first], rs[last]
    # Refine endpoints where a sign change brackets them.
    if first > 0:
        r_low = float(bisect(blind_margin, rs[first - 1], rs[first], xtol=1e-6, maxiter=200))
    if last < len(rs) - 1:
        r_high = float(bisect(blind_margin, rs[last], rs[last + 1], xtol=1e-6, maxiter=200))

    eps_curve = None
    if channel == "gain":
        curve = []
        for r, boundary, hit in zip(rs, params, detected):
            if not hit:
                continue

            def margin_at(gain: float) -> float:
                return evaluate_point("gain", r, gain, criterion, direction).margin

            # The margin must turn non-positive inside the gain bracket.
            hi = boundary + 0.5
            while margin_at(hi) > 0.0:
                if hi >= _GAIN_BRACKET[1]:
                    raise ValueError(
                        f"{criterion} margin stays positive up to gain {_GAIN_BRACKET[1]} at r={r:.9g}"
                    )
                hi = min(hi + 0.5, _GAIN_BRACKET[1])
            edge = float(bisect(margin_at, boundary, hi, xtol=1e-8, maxiter=200))
            curve.append((r, edge - boundary))
        eps_curve = tuple(curve)

    return SqueezingRange(channel, criterion, direction, True, r_low, r_high, eps_curve)


@dataclass(frozen=True)
class MonogamyReport:
    """Simultaneous-steering check for the beamsplitter loss model.

    Bob holds the transmitted fraction eta, Eve the reflected 1 - eta.  Bob is
    tested against Alice with the Gaussian criterion, Eve with the 2-level
    TLOO criterion.
    """

    r: float
    eta: float
    bob: SteeringVerdict
    eve: SteeringVerdict

    @property
    def simultaneous(self) -> bool:
        return self.bob.steerable and self.eve.steerable


def monogamy_report(r: float, eta: float) -> MonogamyReport:
    """Evaluate both parties' steering of Alice for a beamsplitter of
    transmittance eta (Bob's share)."""
    if not 0.0 < eta < 1.0:
        raise ValueError(f"transmittance must lie strictly inside (0, 1), got {eta}")
    bob = evaluate_point("loss", r, eta, "gaussian", B_TO_A)
    eve = evaluate_point("loss", r, 1.0 - eta, "tloo-n2", B_TO_A)
    return MonogamyReport(r, eta, bob, eve)
