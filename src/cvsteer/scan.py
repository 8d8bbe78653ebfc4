"""Parameter sweeps, boundary bisection and the monogamy scenario.

Everything here composes the criterion modules over (squeezing, channel
parameter) grids; no detection logic of its own.  Points are evaluated as one
batch: every stage runs once on the stacked covariances of a whole grid, and a
single point is a batch of one.  Sweep results come back as columns in
deterministic grid order (squeezing-major, then channel parameter), one margin
column per criterion.
"""

from collections.abc import Callable
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .covariance import TwoModeCovariance, apply_gain, apply_loss, require_physical, tmsv_covariance
from .fock import fock_density
from .gaussian_criterion import gaussian_gain_boundary, gaussian_loss_boundary, gaussian_margin
from .tloo_criterion import correlation_matrix, tloo_margin
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
    # The lambdas look the boundaries up at call time, so a rebinding of the module attributes reaches them.
    "loss": Channel(apply_loss, "eta", (1e-6, 1.0), (0.05, 0.95, 120), {B_TO_A: lambda r: gaussian_loss_boundary(r)}, False),
    "gain": Channel(apply_gain, "gain", (1 + 1e-12, 6.0), (1.0, 2.0, 120), {A_TO_B: lambda r: gaussian_gain_boundary(r)}, True),
}

# Largest sweep grid or squeezing scan, and points per batch: the default 120x120
# grid is one batch, and the working arrays stay near 3 kB per point however
# large the grid.
MAX_GRID_POINTS = 250_000
_SWEEP_BATCH = 16_384

# Points of the pre-scan find_boundary makes over a channel's parameter bracket.
_BOUNDARY_GRID = 64

# Bisection settings for boundary finding; the Gaussian margins are smooth and
# monotone across these boundaries.  The relative tolerance is scipy's default.
BISECT_XTOL = 1e-8
BISECT_MAXITER = 200
_BISECT_RTOL = 4 * np.finfo(float).eps


def bisect(margins, lo, hi, xtol: float = BISECT_XTOL) -> np.ndarray:
    """Sign changes of a batch of margins, one per bracket [lo[i], hi[i]] (1-D).

    margins(index, x) returns the margins of the elements `index` (an integer
    array) at parameters x, as one batch.  Each element takes the steps of
    scipy.optimize.bisect, so its result is bit-identical to scipy's; an empty
    bracket (lo == hi) returns hi unevaluated.  Raises ValueError on ends of
    the same sign or a NaN margin, RuntimeError after BISECT_MAXITER halvings.
    """
    xa, xb = np.array(np.broadcast_arrays(lo, hi), dtype=float)
    root, todo = xb.copy(), np.flatnonzero(xa != xb)

    def f(index, x):
        fx = np.asarray(margins(index, x) if index.size else (), dtype=float)
        if np.isnan(fx).any():
            raise ValueError(f"margin is NaN at {x[np.isnan(fx)][0]}")
        return fx

    fa, fb = np.split(f(np.tile(todo, 2), np.concatenate([xa[todo], xb[todo]])), 2)
    same = todo[fa * fb > 0]
    if same.size:
        raise ValueError(f"margin has the same sign at both ends of [{xa[same[0]]}, {xb[same[0]]}]")
    root[todo[fa == 0]] = xa[todo[fa == 0]]
    live = (fa != 0) & (fb != 0)
    todo, fa = todo[live], fa[live]
    xa, dm = xa[todo], xb[todo] - xa[todo]
    for _ in range(BISECT_MAXITER):
        if not todo.size:
            return root
        dm = dm * 0.5
        xm = xa + dm
        fm = f(todo, xm)
        xa = np.where(fm * fa >= 0, xm, xa)
        done = (fm == 0) | (np.abs(dm) < xtol + _BISECT_RTOL * np.abs(xm))
        root[todo[done]] = xm[done]
        todo, xa, fa, dm = todo[~done], xa[~done], fa[~done], dm[~done]
    if todo.size:
        raise RuntimeError(f"bisection did not converge in {BISECT_MAXITER} steps, value is {xa[0]}")
    return root


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
    a cutoff do not depend on it) and a correlation matrix, with its cached
    trace norm, serves both directions.
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
    return [gaussian_margin(cov, d) if CRITERIA[c] is None else tloo_margin(corr[CRITERIA[c]], d) for c, d in criteria]


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

    def grid(self) -> tuple[np.ndarray, np.ndarray]:
        """The r and parameter of every grid point, squeezing-major."""
        rs, ps = (lo + (hi - lo) * np.arange(steps) / (steps - 1) for lo, hi, steps in (self.r_range, self.param_range))
        return np.repeat(rs, ps.size), np.tile(ps, rs.size)


@dataclass(frozen=True)
class SweepRow:
    r: float
    param: float
    criterion: str
    direction: str
    margin: float
    steerable: bool


@dataclass(frozen=True, eq=False)
class SweepResult:
    """A sweep as columns in grid order: one margin array per (criterion, direction) pair."""

    r: np.ndarray  # (points,)
    param: np.ndarray  # (points,)
    criteria: tuple[tuple[str, str], ...]
    margins: tuple[np.ndarray, ...]

    @cached_property
    def steerable(self) -> tuple[np.ndarray, ...]:
        return tuple(margin > MARGIN_TOL for margin in self.margins)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SweepResult) or self.criteria != other.criteria:
            return False
        mine, theirs = (self.r, self.param, *self.margins), (other.r, other.param, *other.margins)
        return all(np.array_equal(a, b) for a, b in zip(mine, theirs))

    def rows(self) -> list[SweepRow]:
        """One SweepRow per grid point and pair, in grid order, for callers that want records."""
        pairs = [(pair, m.tolist(), s.tolist()) for pair, m, s in zip(self.criteria, self.margins, self.steerable)]
        points = enumerate(zip(self.r.tolist(), self.param.tolist()))
        return [SweepRow(r, param, *pair, m[i], s[i]) for i, (r, param) in points for pair, m, s in pairs]


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate every (criterion, direction) at every grid point, batched, in grid order."""
    rs, params = spec.grid()
    return SweepResult(rs, params, spec.criteria, tuple(batch_margins(spec.channel, rs, params, spec.criteria)))


def write_sweep_csv(result: SweepResult, stream) -> None:
    """Write a sweep under a header of the SweepRow field names, 9 significant digits, as
    csv.writer would (no field needs quoting; \\r\\n line ends), a batch of grid points at a time."""
    stream.write(",".join(field.name for field in fields(SweepRow)) + "\r\n")
    labels = [f"{criterion},{DIRECTION_LABELS[direction]}," for criterion, direction in result.criteria]
    for start in range(0, len(result.r), _SWEEP_BATCH):
        part = slice(start, start + _SWEEP_BATCH)
        points = [f"{r:.9g},{param:.9g}," for r, param in zip(result.r[part].tolist(), result.param[part].tolist())]
        columns = [
            [f"{label}{m:.9g},{'true' if s else 'false'}\r\n"
             for m, s in zip(margins[part].tolist(), flags[part].tolist())]
            for label, margins, flags in zip(labels, result.margins, result.steerable)
        ]
        stream.write("".join([point + cell for point, *cells in zip(points, *columns) for cell in cells]))


def find_boundary(channel: str, r: float, criterion: str, direction: str) -> float | None:
    """Bisect the channel parameter where the criterion margin changes sign.

    A coarse grid over the physical parameter range is evaluated first, as one
    batch.  Returns None when the margin has the same sign at every grid point
    (no boundary) and raises ValueError naming each sign change when there is
    more than one; a single one is bisected over the whole range.
    """
    if r <= 0.0:
        raise ValueError(f"squeezing parameter must be > 0, got {r}")
    spec = _channel(channel)
    lo, hi = spec.bracket
    grid = np.linspace(lo, hi, _BOUNDARY_GRID)
    margins = _margins(channel, criterion, direction, np.full(grid.size, r))
    positive = margins(np.arange(grid.size), grid) > 0.0
    flips = np.flatnonzero(positive[1:] != positive[:-1])
    if flips.size > 1:
        cells = ", ".join(f"{spec.param}={grid[i]:.9g} and {grid[i + 1]:.9g}" for i in flips)
        raise ValueError(f"{criterion} margin changes sign {flips.size} times at r={r:.9g}: between {cells}")
    if not flips.size:
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

    Scans the points k * r_step <= r_max, k >= 1 (1 to MAX_GRID_POINTS of
    them; a point within rounding of r_max counts), with endpoint refinement
    by bisection; only the TLOO criteria are meaningful here.  Raises if the
    detected points are not one run, naming the first gap.
    """
    if CRITERIA.get(criterion) is None:
        raise ValueError(f"squeezing-range scan requires a TLOO criterion, got {criterion!r}")
    if direction not in DIRECTIONS:
        raise ValueError(f"unknown direction {direction!r}")
    for name, value in (("r_step", r_step), ("r_max", r_max)):
        if not (np.isfinite(value) and value > 0.0):
            raise ValueError(f"{name} must be finite and > 0, got {value}")
    steps = int(r_max / r_step * (1.0 + 1e-12))
    if not 1 <= steps <= MAX_GRID_POINTS:
        raise ValueError(f"squeezing scan has {steps} points; it needs 1 to {MAX_GRID_POINTS}")
    spec = _channel(channel)
    edge = spec.blind_edge.get(direction)
    if edge is None:
        return SqueezingRange(channel, criterion, direction, False, blind_region=False)
    pair = ((criterion, direction),)
    rs = np.minimum(r_step * np.arange(1, steps + 1), r_max)  # the point counted within rounding stays at r_max
    # Blind edges a batch at a time too, so their working arrays stay bounded.
    params = np.concatenate([edge(rs[i : i + _SWEEP_BATCH]) for i in range(0, steps, _SWEEP_BATCH)])
    detected = batch_margins(channel, rs, params, pair)[0] > MARGIN_TOL
    if not detected.any():
        return SqueezingRange(channel, criterion, direction, False)
    hits = np.flatnonzero(detected)
    gaps = np.flatnonzero(np.diff(hits) > 1)
    if gaps.size:
        before, after = rs[hits[[gaps[0], gaps[0] + 1]]]
        raise ValueError(f"{criterion} detection is not one run of scan points: "
                         f"it stops after r={before:.9g} and resumes at r={after:.9g}")

    def blind(_, r):
        return batch_margins(channel, r, edge(r), pair)[0] - MARGIN_TOL

    # Refine each end where detection (margin > MARGIN_TOL) flips; an empty bracket keeps the scan point.
    first, last = hits[[0, -1]]
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
