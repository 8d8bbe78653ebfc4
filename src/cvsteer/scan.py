"""Parameter sweeps, boundary bisection and the monogamy scenario.

Everything here composes the criterion modules over (squeezing, channel
parameter) grids; no detection logic of its own.  Points are evaluated as one
batch: every stage runs once on the stacked covariances of a whole grid, and a
single point is a batch of one.  Output rows always come back in deterministic
grid order (squeezing-major, then channel parameter, then criterion).
"""

import csv
from collections.abc import Callable
from dataclasses import dataclass, fields

import numpy as np

from .covariance import TwoModeCovariance, apply_gain, apply_loss, require_physical, tmsv_covariance
from .fock import fock_density
from .gaussian_criterion import bisect, gaussian_gain_boundary, gaussian_margin
from .tloo_criterion import correlation_matrix, criterion_rhs
from .verdict import A_TO_B, B_TO_A, DIRECTION_LABELS, DIRECTIONS, MARGIN_TOL, SteeringVerdict

# Criterion name -> TLOO truncation level (None: the Gaussian criterion).
CRITERIA = {"gaussian": None, "tloo-n2": 2, "tloo-n3": 3}


@dataclass(frozen=True)
class Channel:
    """A channel acting on mode B of the squeezed vacuum, as the scans use it."""

    apply: Callable  # (covariance, parameter, mode) -> covariance
    param: str  # name of the channel parameter
    bracket: tuple[float, float]  # parameter interval searched for boundaries
    default_range: tuple[float, float, int]  # default sweep grid of the parameter
    # Direction -> parameters, as a function of a 1-D r, where the Gaussian criterion turns blind (no entry: never).
    blind_edge: dict[str, Callable[[np.ndarray], np.ndarray]]
    eps_curve: bool  # the blind region lies above the edge; squeezing_range measures how far detection reaches


CHANNELS = {
    "loss": Channel(apply_loss, "eta", (1e-6, 1.0), (0.05, 0.95, 120), {B_TO_A: lambda r: np.full_like(r, 0.5)}, False),
    # The lambda looks gaussian_gain_boundary up at call time, so a rebinding of the module attribute reaches it.
    "gain": Channel(apply_gain, "gain", (1 + 1e-12, 6.0), (1.0, 2.0, 120), {A_TO_B: lambda r: gaussian_gain_boundary(r)}, True),
}

# Largest sweep grid or squeezing scan, and points per batch: the default 120x120
# grid is one batch, and the working arrays stay near 3 kB per point however
# large the grid.
MAX_GRID_POINTS = 250_000
_SWEEP_BATCH = 16_384


def _channel(name: str) -> Channel:
    if name not in CHANNELS:
        raise ValueError(f"unknown channel {name!r}")
    return CHANNELS[name]


def channel_covariance(channel: str, r, param) -> TwoModeCovariance:
    """Squeezed vacuum through the named channel on mode B (1-D r and param: a batch)."""
    return _channel(channel).apply(tmsv_covariance(r), param, "B")


def batch_margins(channel: str, rs, params, criteria) -> list[np.ndarray]:
    """Margins of each (criterion, direction) pair at every point of a batch.

    rs and params are 1-D arrays; the result holds one margin array per pair.
    The stack is checked once as squeezed vacuum and once as channel output,
    one Fock density at the largest level serves every level (elements below
    a cutoff do not depend on it) and a trace norm serves both directions.
    Batches above _SWEEP_BATCH points are evaluated in parts.
    """
    if any(criterion not in CRITERIA for criterion, _ in criteria):
        raise ValueError(f"unknown criterion in {criteria!r}")
    if len(rs) > _SWEEP_BATCH:
        parts = [batch_margins(channel, rs[i : i + _SWEEP_BATCH], params[i : i + _SWEEP_BATCH], criteria)
                 for i in range(0, len(rs), _SWEEP_BATCH)]
        return [np.concatenate(pair) for pair in zip(*parts)]
    cov = channel_covariance(channel, rs, params)
    levels = {CRITERIA[c] for c, _ in criteria} - {None}
    if levels:
        rho = fock_density(cov, max(levels), max(levels))  # checks the channel output
    else:
        require_physical(cov)
    corr = {n: correlation_matrix(rho, n, n) for n in levels}
    norm = {n: c.trace_norm for n, c in corr.items()}

    def margin(criterion: str, direction: str):
        n = CRITERIA[criterion]
        return gaussian_margin(cov, direction) if n is None else norm[n] - criterion_rhs(corr[n], direction)

    return [margin(*pair) for pair in criteria]


def evaluate_point(channel: str, r: float, param: float, criterion: str, direction: str) -> SteeringVerdict:
    """Run one criterion at one grid point, as a batch of one."""
    (margin,) = batch_margins(channel, np.array([r]), np.array([param]), ((criterion, direction),))
    return SteeringVerdict.from_margin(criterion, direction, margin[0])


@dataclass(frozen=True)
class SweepSpec:
    """Grid description for a sweep: channel, ranges and criteria to run."""

    channel: str
    r_range: tuple[float, float, int]
    param_range: tuple[float, float, int]
    criteria: tuple[tuple[str, str], ...]  # (criterion, direction) pairs

    def __post_init__(self):
        for name, (lo, hi, steps) in (("r", self.r_range), ("param", self.param_range)):
            if not np.isfinite((lo, hi)).all():
                raise ValueError(f"{name} range bounds must be finite, got ({lo}, {hi})")
            if steps < 2:
                raise ValueError(f"{name} range needs at least 2 steps, got {steps}")
            if not lo <= hi:
                raise ValueError(f"{name} range is inverted: ({lo}, {hi})")
        points = self.r_range[2] * self.param_range[2]
        if points > MAX_GRID_POINTS:
            raise ValueError(f"grid has {points} points; at most {MAX_GRID_POINTS} are supported")
        for criterion, direction in self.criteria:
            if criterion not in CRITERIA:
                raise ValueError(f"unknown criterion {criterion!r}")
            if direction not in DIRECTIONS:
                raise ValueError(f"unknown direction {direction!r}")
        # The channel rejects squeezing or parameter values outside its domain.
        channel_covariance(self.channel, np.array(self.r_range[:2]), np.array(self.param_range[:2]))

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
    margins = [m.tolist() for m in batch_margins(spec.channel, *np.array(points).T, spec.criteria)]
    return [
        SweepRow(r, param, criterion, direction, m[i], m[i] > MARGIN_TOL)
        for i, (r, param) in enumerate(points)
        for (criterion, direction), m in zip(spec.criteria, margins)
    ]


def write_sweep_csv(rows: list[SweepRow], stream) -> None:
    """Write sweep rows under a header of the SweepRow field names, 9 significant digits."""
    writer = csv.writer(stream)
    writer.writerow([field.name for field in fields(SweepRow)])
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
    lo, hi = _channel(channel).bracket
    margins = _margins(channel, criterion, direction, np.array([r, r]))
    m_lo, m_hi = margins(np.arange(2), np.array([lo, hi]))
    if (m_lo > 0.0) == (m_hi > 0.0):
        return None
    return float(bisect(margins, [lo], [hi])[0])


def _margins(channel: str, criterion: str, direction: str, rs: np.ndarray):
    """margins(index, param) of one criterion at the squeezings rs[index], as one batch."""
    return lambda i, param: batch_margins(channel, rs[i], param, ((criterion, direction),))[0]


@dataclass(frozen=True)
class SqueezingRange:
    """Squeezing interval where a TLOO criterion beats the Gaussian one.

    The Gaussian criterion is blind only for loss B->A, at transmittance below
    1/2, and for gain A->B, at gain above its boundary; blind_region is False
    for the other two cases, which are never detected.  Under loss, detection
    in the blind region exists iff the margin at 1/2 is positive (the margin is
    single-crossing in the transmittance).  Under gain, eps_curve records the
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
    blind_region: bool = True

    @property
    def eps_max(self) -> float | None:
        return max(eps for _, eps in self.eps_curve) if self.eps_curve else None

    @property
    def eps_argmax(self) -> float | None:
        return max(self.eps_curve, key=lambda pair: pair[1])[0] if self.eps_curve else None


def squeezing_range(
    channel: str,
    criterion: str,
    direction: str,
    r_step: float = 1e-3,
    r_max: float = 1.4,
) -> SqueezingRange:
    """Scan squeezing for detection inside the Gaussian-blind region.

    Scans r on a uniform grid of r_max / r_step (1 to MAX_GRID_POINTS) points
    with endpoint refinement by bisection; only the TLOO criteria are
    meaningful here.
    """
    if CRITERIA.get(criterion) is None:
        raise ValueError(f"squeezing-range scan requires a TLOO criterion, got {criterion!r}")
    if direction not in DIRECTIONS:
        raise ValueError(f"unknown direction {direction!r}")
    for name, value in (("r_step", r_step), ("r_max", r_max)):
        if not (np.isfinite(value) and value > 0.0):
            raise ValueError(f"{name} must be finite and > 0, got {value}")
    steps = int(round(r_max / r_step))
    if not 1 <= steps <= MAX_GRID_POINTS:
        raise ValueError(f"squeezing scan has {steps} points; it needs 1 to {MAX_GRID_POINTS}")
    spec = _channel(channel)
    edge = spec.blind_edge.get(direction)
    if edge is None:
        return SqueezingRange(channel, criterion, direction, False, blind_region=False)
    pair = ((criterion, direction),)
    rs = r_step * np.arange(1, steps + 1)
    # Blind edges a batch at a time too, so their working arrays stay bounded.
    params = np.concatenate([edge(rs[i : i + _SWEEP_BATCH]) for i in range(0, steps, _SWEEP_BATCH)])
    detected = batch_margins(channel, rs, params, pair)[0] > MARGIN_TOL
    if not detected.any():
        return SqueezingRange(channel, criterion, direction, False)

    def blind(_, r):
        return batch_margins(channel, r, edge(r), pair)[0] - MARGIN_TOL

    # Refine each end where detection (margin > MARGIN_TOL) flips; an empty bracket keeps the scan point.
    first, last = np.flatnonzero(detected)[[0, -1]]
    lo, hi = rs[[max(first - 1, 0), last]], rs[[first, min(last + 1, steps - 1)]]
    r_low, r_high = bisect(blind, lo, hi, xtol=1e-6).tolist()

    eps_curve = None
    if spec.eps_curve:
        r_hit, boundary = rs[detected], params[detected]
        margins = _margins(channel, criterion, direction, r_hit)
        # Walk each detected r up in 0.5 steps until the margin turns non-positive
        # inside the parameter bracket, then bisect between boundary and that point.
        top, hi = spec.bracket[1], boundary + 0.5
        walking, stuck = np.arange(r_hit.size), []
        while walking.size:
            walking = walking[margins(walking, hi[walking]) > 0.0]
            stuck += walking[hi[walking] >= top].tolist()
            walking = walking[hi[walking] < top]
            hi[walking] = np.minimum(hi[walking] + 0.5, top)
        if stuck:
            raise ValueError(f"{criterion} margin stays positive up to {spec.param} {top} at r={r_hit[min(stuck)]:.9g}")
        eps_curve = tuple(zip(r_hit.tolist(), (bisect(margins, boundary, hi) - boundary).tolist()))

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
