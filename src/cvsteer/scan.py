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

# Points of the pre-scan find_boundary makes over a channel's parameter bracket.
_BOUNDARY_GRID = 64

# Root-search settings for the Gaussian and TLOO margins of find_boundary and the
# ends and eps curve of squeezing_range.  The relative tolerance is scipy's default.
ROOT_XTOL = 1e-8
ROOT_MAXITER = 200
_ROOT_RTOL = 4 * np.finfo(float).eps


def find_roots(margins, lo, hi, xtol=ROOT_XTOL, ends=None) -> np.ndarray:
    """Sign changes of a batch of margins, one per bracket [lo[i], hi[i]] (1-D).

    margins(index, x) returns the margins of the elements `index` (an integer
    array) at parameters x, as one batch; ends = (margins at lo, margins at hi)
    spares their evaluation when the caller holds them.  Each step evaluates
    every live bracket once, at Chandrupatla's inverse-quadratic point where
    his test accepts it and at the midpoint otherwise (T. R. Chandrupatla, Adv.
    Eng. Softw. 28, 145 (1997)), and keeps a sign change bracketed; a result
    lies within xtol (a scalar or one per bracket) + 4 eps |x| of one.  An
    empty bracket (lo == hi) returns hi unevaluated.  Raises ValueError on ends
    of the same sign or a NaN margin, RuntimeError after ROOT_MAXITER steps.
    """
    x1, x2, xtol = np.array(np.broadcast_arrays(lo, hi, xtol), dtype=float)
    root, todo = x2.copy(), np.flatnonzero(x1 != x2)

    def checked(fx, x):
        fx = np.asarray(fx, dtype=float)
        if np.isnan(fx).any():
            raise ValueError(f"margin is NaN at {x[np.isnan(fx)][0]}")
        return fx

    x = np.concatenate([x1[todo], x2[todo]])
    if ends is None:
        fx = margins(np.tile(todo, 2), x) if todo.size else ()
    else:
        fx = np.concatenate([np.broadcast_to(end, x1.shape)[todo] for end in ends])
    f1, f2 = np.split(checked(fx, x), 2)
    same = todo[f1 * f2 > 0]
    if same.size:
        raise ValueError(f"margin has the same sign at both ends of [{x1[same[0]]}, {x2[same[0]]}]")
    root[todo[f1 == 0]] = x1[todo[f1 == 0]]
    live = (f1 != 0) & (f2 != 0)
    todo, x1, f1, x2, f2, xtol = todo[live], x1[todo[live]], f1[live], x2[todo[live]], f2[live], xtol[todo[live]]
    t = 0.5
    for _ in range(ROOT_MAXITER):
        if not todo.size:
            return root
        # x1 is the newest point and [x1, x2] the bracket; x3 is the end it dropped.
        x = x1 + t * (x2 - x1)
        fx = checked(margins(todo, x), x)
        kept = np.sign(fx) == np.sign(f1)
        x3, f3 = np.where(kept, x1, x2), np.where(kept, f1, f2)
        x2, f2 = np.where(kept, x2, x1), np.where(kept, f2, f1)
        x1, f1 = x, fx
        best, dx = np.where(np.abs(f1) < np.abs(f2), x1, x2), np.abs(x2 - x1)
        tol = xtol + _ROOT_RTOL * np.abs(best)
        done = (fx == 0) | (dx < tol)
        root[todo[done]] = best[done]
        todo, x1, f1, x2, f2, x3, f3, dx, tol, xtol = (a[~done] for a in (todo, x1, f1, x2, f2, x3, f3, dx, tol, xtol))
        xi, phi = (x1 - x2) / (x3 - x2), (f1 - f2) / (f3 - f2)
        iqi = (1 - np.sqrt(1 - xi) < phi) & (phi < np.sqrt(xi))
        a, b, c, alpha = f1[iqi], f2[iqi], f3[iqi], ((x3 - x1) / (x2 - x1))[iqi]
        t = np.full(todo.size, 0.5)
        t[iqi] = a / (a - b) * c / (c - b) - alpha * a / (c - a) * b / (b - c)
        t = np.clip(t, 0.5 * tol / dx, 1 - 0.5 * tol / dx)  # a tolerance away from the bracket ends
    if todo.size:
        raise RuntimeError(f"root search did not converge in {ROOT_MAXITER} steps, value is {x1[0]}")
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
    more than one; a single one is searched for over the whole bracket, from
    the margins the grid holds at its ends.
    """
    if r <= 0.0:
        raise ValueError(f"squeezing parameter must be > 0, got {r}")
    spec = _channel(channel)
    lo, hi = spec.bracket
    grid = np.linspace(lo, hi, _BOUNDARY_GRID)

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
    return float(find_roots(margins, [lo], [hi], ends=(values[0], values[-1]))[0])  # linspace ends are lo and hi


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
    them; a point within rounding of r_max counts); only the TLOO criteria are
    meaningful here.  One find_roots search refines both ends of detection and
    every eps point, from the margins of the scan and, under gain, of one batch
    0.5 above the Gaussian boundary, which brackets every eps (all below 0.06).
    Raises if the detected points are not one run, naming the first gap, or
    if a margin 0.5 above the boundary is positive.
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

    # Each detection end lies between two scan points, whose margins the scan holds; an empty bracket keeps the scan point.
    first, last = hits[[0, -1]]
    below, above = [max(first - 1, 0), last], [first, min(last + 1, steps - 1)]
    lo, hi, f_lo, f_hi = rs[below], rs[above], scanned[below] - MARGIN_TOL, scanned[above] - MARGIN_TOL
    xtol = [1e-6, 1e-6]
    if spec.eps_curve:
        boundary = params[detected]
        f_top = margins(np.arange(2, r_hit.size + 2), boundary + 0.5)
        if (f_top > 0.0).any():
            r = r_hit[np.argmax(f_top > 0.0)]
            raise ValueError(f"{criterion} margin is positive 0.5 above the Gaussian boundary at r={r:.9g}")
        lo, hi = np.concatenate([lo, boundary]), np.concatenate([hi, boundary + 0.5])
        f_lo, f_hi = np.concatenate([f_lo, scanned[detected]]), np.concatenate([f_hi, f_top])
        xtol += [ROOT_XTOL] * r_hit.size
    roots = find_roots(margins, lo, hi, xtol, ends=(f_lo, f_hi))
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
