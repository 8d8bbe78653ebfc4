"""Parameter sweeps, boundary and squeezing-range root searches, and the monogamy scenario.

Everything here composes the criterion modules over (squeezing, channel
parameter) grids; no detection logic of its own.  Points are evaluated as one
batch: every stage runs once on the stacked covariances of a whole grid, and a
single point is a batch of one.  Sweep results come back as columns in
deterministic grid order (squeezing-major, then channel parameter), one margin
column per criterion.
"""

from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .covariance import TwoModeCovariance, apply_gain, apply_loss, require_physical, tmsv_covariance
from .fock import fock_density
from .gaussian_criterion import gaussian_gain_boundary, gaussian_loss_boundary, gaussian_margin
from .tloo_criterion import correlation_matrix, tloo_margin
from .verdict import A_TO_B, B_TO_A, DIRECTIONS, MARGIN_TOL, SteeringVerdict

# Criterion name -> TLOO truncation level (None: the Gaussian criterion).
CRITERIA = {"gaussian": None, "tloo-n2": 2, "tloo-n3": 3}


@dataclass(frozen=True)
class Channel:
    """A channel acting on mode B of the squeezed vacuum, as the scans use it."""

    apply: Callable  # (covariance, parameter, mode) -> covariance
    param: str  # name of the channel parameter
    bracket: tuple[float, float]  # parameter interval searched for boundaries
    default_range: tuple[float, float, int]  # default sweep grid of the parameter
    # B_TO_A or A_TO_B -> parameters, as a function of a 1-D r, where the Gaussian criterion turns blind (no entry: never).
    blind_edge: dict[str, Callable[[np.ndarray], np.ndarray]]
    eps_curve: bool  # the blind region lies above the edge; squeezing_range measures how far detection reaches


CHANNELS = {
    # The lambdas look the boundaries up at call time, so a rebinding of the module attributes reaches them.
    "loss": Channel(apply_loss, "eta", (1e-6, 1.0), (0.05, 0.95, 120), {B_TO_A: lambda r: gaussian_loss_boundary(r)}, False),
    "gain": Channel(apply_gain, "gain", (1.0, 6.0), (1.0, 2.0, 120), {A_TO_B: lambda r: gaussian_gain_boundary(r)}, True),
}

# Largest sweep grid or squeezing scan, points per batch (the default 120x120 grid is
# one batch, and the working arrays stay near 3 kB per point however large the grid),
# and the fields of a sweep record: the CSV header and the JSON keys.
MAX_GRID_POINTS = 250_000
_SWEEP_BATCH = 16_384
_SWEEP_FIELDS = ("r", "param", "criterion", "direction", "margin", "steerable")

# Points of the pre-scan find_boundary makes over a channel's parameter bracket, and the
# cells of the one bracket of every eps, from the Gaussian boundary to _EPS_BRACKET above it.
_BOUNDARY_GRID = 64
_EPS_STEPS = 3
_EPS_BRACKET = 0.07

# Root-search settings.  find_roots defaults to ROOT_XTOL; the roots boundary and rrange print
# (9 significant digits) are searched to PARAM_XTOL (squeezing ends and channel parameters, 0.1 to
# 6 where searched on the pinned cases) and EPS_XTOL (eps, 0.04 to 0.06 at its maximum), relative
# 1e-11 or tighter.  The relative tolerance is scipy's default.
ROOT_XTOL = 1e-8
PARAM_XTOL = 1e-12
EPS_XTOL = 1e-13
ROOT_MAXITER = 200
# A margin batch costs about as much as a hundred margins, so guards (two more margins per bracket and step,
# which close most brackets a step sooner) pay in a search over at most this many brackets.
_GUARDED_BRACKETS = 64
_ROOT_RTOL = 4 * np.finfo(float).eps


def find_roots(margins, lo, hi, xtol=ROOT_XTOL, ends=None, outside=None) -> np.ndarray:
    """Sign changes of a batch of margins, one per bracket [lo[i], hi[i]] (1-D, lo <= hi).

    margins(index, x) returns the margins of the elements `index` (an integer
    array) at parameters x, as one batch; ends = (margins at lo, margins at hi)
    spares their evaluation when the caller holds them, and outside = (x, f),
    each of shape (2, n), holds the nearest known point below lo and above hi
    with its margin (NaN where none is known).  Each step evaluates every live
    bracket in one batch at an inverse-cubic estimate through its ends and the
    points beside them (inverse-quadratic where the margin is monotone on one
    side only), or at the midpoint where it is monotone on neither side or the
    last step halved neither the bracket nor its ends' smaller margin.  A search
    over at most _GUARDED_BRACKETS brackets also evaluates a guard on each side,
    twice the distance to the lower-order estimate away and at least half a
    tolerance (the midpoint's on the quarter points).  The new bracket is the
    tightest sign change among the points, and the points beside it are kept:
    Chandrupatla's search (Adv. Eng. Softw. 28, 145 (1997)) one order up, with
    guards.  A result lies within xtol (a scalar or one per bracket) + 4 eps |x|
    of a sign change; an empty bracket (lo == hi) returns hi unevaluated, and
    a zero end margin its end (hi where both are zero).
    Raises ValueError on an inverted bracket, ends of the same sign or a NaN
    margin, RuntimeError after ROOT_MAXITER steps.
    """
    x1, x2 = np.array([lo, hi], dtype=float)
    xtol = xtol + np.zeros_like(x1)
    if (x1 > x2).any():
        raise ValueError(f"bracket [{x1[x1 > x2][0]}, {x2[x1 > x2][0]}] is inverted")
    root, todo = x2.copy(), np.flatnonzero(x1 != x2)

    def checked(fx, x):
        fx = np.asarray(fx, dtype=float)
        if np.isnan(fx).any():
            raise ValueError(f"margin is NaN at {x[np.isnan(fx)][0]}")
        return fx

    x = np.concatenate([x1[todo], x2[todo]])
    if ends is None:
        fx = margins(np.concatenate([todo, todo]), x) if todo.size else x
    else:
        fx = np.array(ends, dtype=float)[:, todo].ravel()
    f1, f2 = checked(fx, x).reshape(2, -1)
    same = todo[f1 * f2 > 0]
    if same.size:
        raise ValueError(f"margin has the same sign at both ends of [{x1[same[0]]}, {x2[same[0]]}]")
    near = np.full((2, 2, todo.size), np.nan) if outside is None else np.array(outside, dtype=float)[:, :, todo]
    # Rows c < a < b < d of each bracket [a, b]: the point below, the ends, the point above.
    x = np.array([near[0, 0], x1[todo], x2[todo], near[0, 1]])
    f = np.array([near[1, 0], f1, f2, near[1, 1]])
    xtol, fast, cols, rows = xtol[todo], np.ones(todo.size, bool), np.arange(todo.size), np.arange(4)[:, None]
    guarded = todo.size <= _GUARDED_BRACKETS
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):  # a missing point makes its estimates NaN, never picked
        for step in range(ROOT_MAXITER + 1):
            a, b = x[1], x[2]
            tol = xtol + _ROOT_RTOL * np.fmin(np.abs(a), np.abs(b))
            done = (b - a < tol) | (f[1] == 0) | (f[2] == 0)
            if done.any():
                end, keep = np.flatnonzero(done), np.flatnonzero(~done)
                root[todo[end]] = np.where(np.abs(f[1, end]) < np.abs(f[2, end]), a[end], b[end])
                todo, x, f, xtol, tol, fast = todo[keep], x.take(keep, 1), f.take(keep, 1), xtol[keep], tol[keep], fast[keep]
                a, b, cols = x[1], x[2], cols[: todo.size]
            if not todo.size:
                return root
            if step == ROOT_MAXITER:
                raise RuntimeError(f"root search did not converge in {ROOT_MAXITER} steps, value is {a[0]}")
            # Neville's scheme for x as a polynomial in f, at f = 0: secants of neighbouring rows,
            # the quadratics through (c, a, b) and (a, b, d), then the cubic.
            rise = f[1:] - f[:-1]
            secant = (x[:-1] * f[1:] - x[1:] * f[:-1]) / rise
            quad = (secant[:-1] * f[2:] - secant[1:] * f[:-2]) / (f[2:] - f[:-2])
            cubic = (quad[0] * f[3] - quad[1] * f[0]) / (f[3] - f[0])
            # Each estimate: the midpoint, a quadratic, the cubic.  A quadratic needs f monotone through its
            # outside point, the cubic through both; the midpoint serves where neither is, or where the last
            # step halved neither the bracket nor the smaller end margin.  The estimate lies at least half a
            # tolerance inside the bracket.
            half = 0.5 * (b - a)
            monotone = rise[::2] * rise[1] > 0
            pick = ((monotone[0] + 2 * monotone[1]) * fast) * todo.size + cols
            lim, best = 0.5 * tol, np.fmin(np.abs(f[1]), np.abs(f[2]))
            new = np.fmin(np.fmax(np.array([a + half, quad[0], quad[1], cubic]).take(pick), a + lim), b - lim)
            if guarded:
                # Half each estimate's error: the midpoint's half the bracket, a quadratic's its distance to the
                # secant, the cubic's its distance to the nearer quadratic.  A guard on each side twice that away,
                # or halfway to the bracket end if that is nearer (the midpoint's fall on the quarter points).
                shift = np.abs(np.concatenate([quad - secant[1], quad - cubic]))
                err = np.fmax(2 * np.array([half, shift[0], shift[1], np.fmin(shift[2], shift[3])]).take(pick), lim)
                new = np.concatenate([np.fmax(new - err, 0.5 * (a + new)), new, np.fmin(new + err, 0.5 * (new + b))])
            k = new.size // todo.size
            fx = checked(margins(np.concatenate([todo] * k), new), new)
            x = np.concatenate([x[:2], new.reshape(k, -1), x[2:]])
            f = np.concatenate([f[:2], fx.reshape(k, -1), f[2:]])
            sign = np.sign(f[1 : k + 3])
            width = np.where(sign[1:] != sign[:-1], x[2 : k + 3] - x[1 : k + 2], np.inf)
            cell = width.argmin(axis=0)
            pick = (cell + rows) * todo.size + cols  # the tightest sign change and the points beside it
            x, f = x.take(pick), f.take(pick)
            fast = (x[2] - x[1] <= half) | (np.fmin(np.abs(f[1]), np.abs(f[2])) <= 0.5 * best)


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
    r_range: tuple[float, float, int]  # (min, max, steps); steps may be a whole float
    param_range: tuple[float, float, int]
    criteria: tuple[tuple[str, str], ...]  # (criterion, direction) pairs

    def __post_init__(self):
        for name, (lo, hi, steps) in (("r", self.r_range), ("param", self.param_range)):
            if not np.isfinite((lo, hi)).all():
                raise ValueError(f"{name} range bounds must be finite, got ({lo}, {hi})")
            if not float(steps).is_integer():  # False for inf and NaN too
                raise ValueError(f"grid STEPS must be a whole number, got {steps:g}")
            if steps < 2:
                raise ValueError(f"{name} range needs at least 2 steps, got {steps}")
            if not lo <= hi:
                raise ValueError(f"{name} range is inverted: ({lo}, {hi})")
        points = int(self.r_range[2]) * int(self.param_range[2])
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


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate every (criterion, direction) at every grid point, batched, in grid order."""
    rs, params = spec.grid()
    return SweepResult(rs, params, spec.criteria, tuple(batch_margins(spec.channel, rs, params, spec.criteria)))


def write_sweep_csv(result: SweepResult, stream) -> None:
    """Write a sweep under a header of the sweep fields, 9 significant digits, as
    csv.writer would (no field needs quoting; \\r\\n line ends), a batch of grid points at a time."""
    stream.write(",".join(_SWEEP_FIELDS) + "\r\n")
    labels = [f"{criterion},{direction}," for criterion, direction in result.criteria]
    for start in range(0, len(result.r), _SWEEP_BATCH):
        part = slice(start, start + _SWEEP_BATCH)
        points = [f"{r},{param}," for r, param in zip(_formatted(result.r[part], ".9g"), _formatted(result.param[part], ".9g"))]
        columns = [
            [f"{label}{m:.9g},{'true' if s else 'false'}\r\n"
             for m, s in zip(margins[part].tolist(), flags[part].tolist())]
            for label, margins, flags in zip(labels, result.margins, result.steerable)
        ]
        stream.write("".join([point + cell for point, *cells in zip(points, *columns) for cell in cells]))


def write_sweep_json(result: SweepResult, stream) -> None:
    """Write a sweep as print(json.dumps(records, indent=2)) would for finite values and plain names, a batch at a time."""
    labels = [f'    "criterion": "{criterion}",\n    "direction": "{direction}",\n    "margin": '
              for criterion, direction in result.criteria]
    for start in range(0, len(result.r) if labels else 0, _SWEEP_BATCH):  # no pairs, no records
        part = slice(start, start + _SWEEP_BATCH)
        points = [f'  {{\n    "r": {r},\n    "param": {param},\n'
                  for r, param in zip(_formatted(result.r[part], ""), _formatted(result.param[part], ""))]
        columns = [
            [f'{label}{m!r},\n    "steerable": {"true" if s else "false"}\n  }}'
             for m, s in zip(margins[part].tolist(), flags[part].tolist())]
            for label, margins, flags in zip(labels, result.margins, result.steerable)
        ]
        stream.write(",\n" if start else "[\n")
        stream.write(",\n".join([point + cell for point, *cells in zip(points, *columns) for cell in cells]))
    stream.write("\n]\n" if len(result.r) and labels else "[]\n")


def _formatted(values: np.ndarray, spec: str) -> list[str]:
    """format(value, spec) of each float of a 1-D array ("" is repr), each distinct value (by its bits) formatted once."""
    text = {}
    return [text[bits] if bits in text else text.setdefault(bits, format(value, spec))
            for bits, value in zip(values.view(np.int64).tolist(), values.tolist())]


def find_boundary(channel: str, r: float, criterion: str, direction: str) -> float | None:
    """Find the channel parameter where the criterion margin changes sign.

    A coarse grid over the channel's parameter bracket is evaluated first, as one
    batch.  Returns None when the margin has the same sign at every grid point
    (no boundary) and raises ValueError naming each sign change when there is
    more than one; a single one is searched for to PARAM_XTOL inside the grid
    cell where the sign flips, from the margins the grid holds at the cell's
    ends and at the grid points beside it.
    """
    if r <= 0.0:
        raise ValueError(f"squeezing parameter must be > 0, got {r}")
    spec = _channel(channel)
    grid = np.linspace(*spec.bracket, _BOUNDARY_GRID)

    def margins(index, param):
        return batch_margins(channel, np.full(index.size, r), param, ((criterion, direction),))[0]

    values = margins(np.arange(grid.size), grid)
    positive = values > 0.0
    flips = np.flatnonzero(positive[1:] != positive[:-1])
    if flips.size > 1:
        cells = ", ".join(f"{spec.param}={grid[i]:.9g} and {grid[i + 1]:.9g}" for i in flips)
        raise ValueError(f"{criterion} margin changes sign {flips.size} times at r={r:.9g}: between {cells}")
    if not flips.size:
        return None
    # The flipping cell [grid[i], grid[i + 1]] and the grid point on each side of it, NaN past the grid's ends.
    x, f = (np.concatenate([[np.nan], v, [np.nan]])[flips[0] : flips[0] + 4, None] for v in (grid, values))
    return float(find_roots(margins, x[1], x[2], PARAM_XTOL, ends=f[1:3], outside=(x[[0, 3]], f[[0, 3]]))[0])


@dataclass(frozen=True)
class SqueezingRange:
    """Squeezing interval where a TLOO criterion beats the Gaussian one.

    The Gaussian criterion is blind only for loss B->A, at transmittance below
    1/2, and for gain A->B, at gain above its boundary; blind_region is False
    for the other two cases, which are never detected.  Under loss, detection
    in the blind region exists iff the margin at 1/2 is positive (the margin is
    single-crossing in the transmittance).  Under gain, eps_curve records the
    measured excess gain (r, detected gain minus Gaussian boundary) at every
    detected squeezing (each below _EPS_BRACKET).  r_low and r_high are
    searched to the digits the CLI prints (PARAM_XTOL), or are scan points
    where detection reaches the scan's ends; each eps to EPS_XTOL absolute.
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
    them; a point within rounding of r_max counts); only the TLOO criteria are
    meaningful here.  One find_roots search refines both ends of detection (to
    PARAM_XTOL), from the scan's margins beside them, and every eps point (to
    EPS_XTOL): under gain one batch evaluates each detected point at _EPS_STEPS
    offsets up to _EPS_BRACKET above the Gaussian boundary, which brackets every
    eps (all below 0.06).  Raises if the detected points are not one run,
    naming the first gap, or if a margin _EPS_BRACKET above the boundary is
    positive.
    """
    if CRITERIA.get(criterion) is None:
        raise ValueError(f"squeezing-range scan requires a TLOO criterion, got {criterion!r}")
    if direction not in DIRECTIONS:
        raise ValueError(f"unknown direction {direction!r}")
    for name, value in (("r_step", r_step), ("r_max", r_max)):
        if not (np.isfinite(value) and value > 0.0):
            raise ValueError(f"{name} must be finite and > 0, got {value}")
    count = r_max / r_step * (1.0 + 1e-12)  # inf when the ratio overflows, so checked before int()
    if not 1 <= count < MAX_GRID_POINTS + 1:
        raise ValueError(f"squeezing scan has {np.floor(count):.16g} points; it needs 1 to {MAX_GRID_POINTS}")
    steps = int(count)
    spec = _channel(channel)
    edge = spec.blind_edge.get(direction)
    if edge is None:
        return SqueezingRange(channel, criterion, direction, False, blind_region=False)
    pair = ((criterion, direction),)
    rs = np.minimum(r_step * np.arange(1, steps + 1), r_max)  # the point counted within rounding stays at r_max
    params = edge(rs)
    scanned = batch_margins(channel, rs, params, pair)[0]
    detected = scanned > MARGIN_TOL
    if not detected.any():
        return SqueezingRange(channel, criterion, direction, False)
    hits = np.flatnonzero(detected)
    gaps = np.flatnonzero(np.diff(hits) > 1)
    if gaps.size:
        before, after = rs[hits[[gaps[0], gaps[0] + 1]]]
        raise ValueError(f"{criterion} detection is not one run of scan points: "
                         f"it stops after r={before:.9g} and resumes at r={after:.9g}")
    r_hit = rs[detected]

    def margins(index, x):
        # Brackets 0 and 1 search r on the blind edge for margin MARGIN_TOL, 2 + k the parameter at r_hit[k].
        end = index < 2
        r, param = x.copy(), x.copy()
        r[~end] = r_hit[index[~end] - 2]
        if end.any():
            param[end] = edge(x[end])
        return batch_margins(channel, r, param, pair)[0] - np.where(end, MARGIN_TOL, 0.0)

    # Each detection end lies between two scan points, whose margins the scan holds, as it does those of the
    # points beside them (NaN past the scan's ends); an empty bracket keeps the scan point.
    first, last = hits[[0, -1]]
    below, above = [max(first - 1, 0), last], [first, min(last + 1, steps - 1)]
    rows = np.array([below, np.add(below, 1), np.add(above, 1), np.add(above, 2)])
    x, f = (np.concatenate([[np.nan], v, [np.nan]])[rows] for v in (rs, scanned - MARGIN_TOL))
    xtol = [PARAM_XTOL] * 2
    if spec.eps_curve:
        # Each eps lies in the first cell of G*, G* + _EPS_BRACKET k / _EPS_STEPS (k = 1 to _EPS_STEPS) where
        # the margin is not positive.  One batch evaluates the grid at the detected points.
        boundary, eps = params[detected], np.arange(2, r_hit.size + 2)
        grid_x, grid_f = (np.full((_EPS_STEPS + 3, r_hit.size), np.nan) for _ in range(2))
        grid_x[1:-1] = boundary + _EPS_BRACKET / _EPS_STEPS * np.arange(_EPS_STEPS + 1)[:, None]
        grid_f[1] = scanned[detected]
        grid_f[2:-1] = margins(np.tile(eps, _EPS_STEPS), grid_x[2:-1].ravel()).reshape(_EPS_STEPS, -1)
        if (grid_f[-2] > 0.0).any():
            r = r_hit[np.argmax(grid_f[-2] > 0.0)]
            raise ValueError(f"{criterion} margin is positive {_EPS_BRACKET:g} above the Gaussian boundary at r={r:.9g}")
        cell = np.argmax(grid_f[2:-1] <= 0.0, axis=0)
        rows = cell + np.arange(4)[:, None]
        x = np.concatenate([x, grid_x[rows, np.arange(r_hit.size)]], axis=1)
        f = np.concatenate([f, grid_f[rows, np.arange(r_hit.size)]], axis=1)
        xtol += [EPS_XTOL] * r_hit.size
    roots = find_roots(margins, x[1], x[2], xtol, ends=f[1:3], outside=(x[[0, 3]], f[[0, 3]]))
    r_low, r_high = roots[:2].tolist()
    eps_curve = tuple(zip(r_hit.tolist(), (roots[2:] - boundary).tolist())) if spec.eps_curve else None

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
