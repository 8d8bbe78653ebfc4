"""The benchmark workloads.

Each workload turns a seed into a stream of op inputs, runs one op through
`cvsteer.cli.main` or public library calls, and checks the op's output against
the oracles.  Inputs come from a Kronecker sequence with seed-drawn offsets:
the same seed gives the same inputs, and every seed spreads its ops evenly
over the same ranges, so op costs have the same distribution for every seed.

Library calls go through the `cvsteer` module attributes at call time, so a
tracer that rebinds them sees every call.
"""

import contextlib
import csv
import io

import numpy as np

import cvsteer
import oracles
from cvsteer import cli

# Irrational steps of the input sequence, one per input dimension.
_ALPHAS = np.sqrt([2.0, 3.0, 5.0, 7.0, 11.0, 13.0, 17.0, 19.0]) % 1.0


class CheckFailed(Exception):
    """An op's output disagrees with its oracle."""


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


def _close(value, reference, tol, what):
    _require(abs(value - reference) <= tol, f"{what}: {value!r} differs from oracle {reference!r}")


class Workload:
    """Base: seeded inputs.  Subclasses define `params`, `run` and `check`.

    `run` is the timed call into the program.  `check` raises CheckFailed on a
    wrong output and returns the op's output row count and the bytes the CLI
    wrote.  `trace_ops` is the fixed op count of a traced run.
    """

    name = ""
    trace_ops = 0

    def __init__(self, seed, workdir):
        self._offset = np.random.default_rng(seed).random(len(_ALPHAS))
        self.workdir = workdir

    def unit(self, i):
        """Op i's point in [0, 1)^d, as Python floats."""
        return ((self._offset + i * _ALPHAS) % 1.0).tolist()


def _quiet_cli(argv):
    """Run the CLI, returning (exit code, captured stdout text)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code
    return code, out.getvalue()


class Sweep(Workload):
    """Batch throughput: `cvsteer sweep` on a loss and a gain grid, all criteria and directions."""

    name = "sweep"
    trace_ops = 6
    # The largest grid whose op (~0.8 s) still leaves about 20 ops per 20 s
    # run; the default 120x120 grid takes ~36 s.  The stage mix matches 30x30.
    STEPS = 12
    # (channel, r range, param range): each bound is lo + width * u.
    GRIDS = (
        ("loss", ((0.05, 0.1), (1.2, 0.2)), ((0.05, 0.1), (0.85, 0.1))),
        ("gain", ((0.05, 0.1), (1.2, 0.2)), ((1.0, 0.1), (1.9, 0.1))),
    )

    def params(self, i):
        u = iter(self.unit(i))
        grids = []
        for channel, r_bounds, p_bounds in self.GRIDS:
            r = tuple(lo + width * next(u) for lo, width in r_bounds)
            p = tuple(lo + width * next(u) for lo, width in p_bounds)
            grids.append((channel, r, p))
        return grids

    def run(self, params):
        codes = []
        for channel, (r_lo, r_hi), (p_lo, p_hi) in params:
            argv = [
                "sweep", "--channel", channel,
                "--r-range", repr(r_lo), repr(r_hi), str(self.STEPS),
                "--param-range", repr(p_lo), repr(p_hi), str(self.STEPS),
                "--out", str(self.workdir / f"sweep-{channel}.csv"),
            ]
            codes.append(_quiet_cli(argv)[0])
        return codes

    def check(self, params, codes):
        _require(codes == [0] * len(params), f"sweep exit codes {codes}")
        rows = written = 0
        for channel, r_range, p_range in params:
            path = self.workdir / f"sweep-{channel}.csv"
            text = path.read_text(encoding="utf-8")
            written += len(text.encode())
            rows += self._check_csv(channel, r_range, p_range, text)
        return rows, written

    def _check_csv(self, channel, r_range, p_range, text):
        table = list(csv.reader(io.StringIO(text)))
        _require(table[0] == ["r", "param", "criterion", "direction", "margin", "steerable"], "sweep header")
        body = table[1:]
        pairs = {(c, d) for c in ("gaussian", "tloo-n2", "tloo-n3") for d in ("b-to-a", "a-to-b")}
        per_point = len(pairs)
        _require(len(body) == self.STEPS**2 * per_point, f"sweep wrote {len(body)} rows")
        grid = [
            (r, p)
            for r in np.linspace(*r_range, self.STEPS)
            for p in np.linspace(*p_range, self.STEPS)
        ]
        for point, (r, p) in enumerate(grid):
            chunk = body[point * per_point : (point + 1) * per_point]
            _require({(row[2], row[3]) for row in chunk} == pairs, f"criteria at grid point {point}")
            for row in chunk:
                _close(float(row[0]), r, 1e-8 * r, "sweep r")
                _close(float(row[1]), p, 1e-8 * p, "sweep param")
                margin = float(row[4])
                _require(row[5] == ("true" if margin > oracles.MARGIN_TOL else "false"), f"flag of {row}")
                direction = "BtoA" if row[3] == "b-to-a" else "AtoB"
                if row[2] == "gaussian":
                    if oracles.gaussian_boundary_distance(channel, r, p, direction) > 1e-6:
                        expected = oracles.gaussian_steerable(channel, r, p, direction)
                        _require(row[5] == ("true" if expected else "false"), f"Gaussian verdict of {row}")
                else:
                    level = int(row[2][-1])
                    reference = oracles.tloo_margin(channel, r, p, level, direction)
                    _close(margin, reference, 1e-8 * abs(reference) + 1e-13, f"margin of {row}")
        return len(body)


class Rrange(Workload):
    """Sequential dependent bisection: `cvsteer rrange`, loss at level 3 then gain at level 2."""

    name = "rrange"
    trace_ops = 4
    SCANS = (
        ("loss", "3", "b-to-a"),
        ("gain", "2", "a-to-b"),
    )

    def params(self, i):
        # A scan costs ~r_max / r_step; the step is the finest that keeps an op
        # near 0.8 s, and the narrow jitter keeps op costs alike.
        u = self.unit(i)
        return 0.02 + 0.001 * u[0], 1.2 + 0.05 * u[1]

    def run(self, params):
        r_step, r_max = params
        return [
            _quiet_cli([
                "rrange", "--channel", channel, "--level", level, "--direction", direction,
                "--r-step", repr(r_step), "--r-max", repr(r_max),
            ])
            for channel, level, direction in self.SCANS
        ]

    def check(self, params, outputs):
        r_step, r_max = params
        (loss_code, loss_text), (gain_code, gain_text) = outputs
        _require(loss_code == 0 and gain_code == 0, f"rrange exit codes {loss_code}, {gain_code}")
        loss, gain = _key_values(loss_text), _key_values(gain_text)
        _close(loss["r_low"], oracles.LOSS_N3_R_LOW, oracles.RRANGE_R_TOL, "loss n3 r_low")
        _close(loss["r_high"], oracles.LOSS_N3_R_HIGH, oracles.RRANGE_R_TOL, "loss n3 r_high")
        _require(0.0 < gain["eps_max"] <= oracles.GAIN_N2_EPS_MAX, f"gain n2 eps_max {gain['eps_max']}")
        _require(0.0 < gain["r_low"] < gain["r_high"] <= r_max, f"gain n2 interval {gain}")
        scanned = 2 * int(round(r_max / r_step))
        return scanned, len(loss_text.encode()) + len(gain_text.encode())


def _key_values(text):
    values = {}
    for line in text.splitlines():
        key, sep, value = line.partition("=")
        _require(sep == "=", f"unexpected rrange line {line!r}")
        values[key] = float(value)
    return values


class Analyze(Workload):
    """The README quick-start path on one state per op, witness included."""

    name = "analyze"
    trace_ops = 1000
    # Loss states the Gaussian criterion misses and the 2-level criterion detects.
    R = (0.1, 0.55)
    ETA = (0.45, 0.045)
    RESULTS = 5

    def params(self, i):
        u = self.unit(i)
        return self.R[0] + self.R[1] * u[0], self.ETA[0] + self.ETA[1] * u[1]

    def run(self, params):
        r, eta = params
        b_to_a = cvsteer.B_TO_A
        cov = cvsteer.apply_loss(cvsteer.tmsv_covariance(r), eta, "B")
        gaussian = cvsteer.gaussian_steerable(cov, b_to_a)
        rho = cvsteer.fock_density(cov, 3, 3)
        n2 = cvsteer.tloo_steerable(rho, 2, 2, b_to_a)
        n3 = cvsteer.tloo_steerable(rho, 3, 3, b_to_a)
        witness = cvsteer.build_witness(rho, 2, 2, b_to_a)
        return gaussian, rho, n2, n3, witness

    def check(self, params, output):
        r, eta = params
        gaussian, rho, n2, n3, witness = output
        _require(gaussian.steerable == oracles.gaussian_steerable("loss", r, eta, "BtoA"), "Gaussian verdict")
        reference = oracles.fock_elements("loss", r, eta, 3, 3)
        _require(np.abs(rho.elements - reference).max() <= 1e-12, "Fock elements")
        p_a, p_b = oracles.thermal_marginals("loss", r, eta, 3)
        _require(np.abs(rho.reduced_a - np.diag(p_a)).max() <= 1e-12, "reduced state A")
        _require(np.abs(rho.reduced_b - np.diag(p_b)).max() <= 1e-12, "reduced state B")
        for level, verdict in ((2, n2), (3, n3)):
            margin = oracles.tloo_margin("loss", r, eta, level, "BtoA")
            _close(verdict.margin, margin, 1e-9, f"n{level} margin")
            if abs(margin - oracles.MARGIN_TOL) > 1e-9:
                _require(verdict.steerable == (margin > oracles.MARGIN_TOL), f"n{level} verdict")
        _require(n2.steerable, "n2 detection")
        trace_norm, _ = oracles.tloo_trace_norm_and_bound("loss", r, eta, 2, "BtoA")
        _close(float(np.sum(witness.diagonal_correlations)), trace_norm, 1e-9, "witness diagonal")
        _require(witness.variance_sum < witness.bound, "witness does not violate its bound")
        return self.RESULTS, 0


class Fockdeep(Workload):
    """The arithmetic-bound Fock path at cutoffs (7, 7), JSON serialisation included."""

    name = "fockdeep"
    trace_ops = 200
    CUTOFF = 7
    THRESHOLD = 1e-14

    def params(self, i):
        u = self.unit(i)
        return ("loss", 0.05 + 1.35 * u[0], 0.05 + 0.95 * u[1]), ("gain", 0.05 + 1.35 * u[2], 1.0 + u[3])

    def run(self, params):
        out = []
        for channel, r, param in params:
            apply = cvsteer.apply_loss if channel == "loss" else cvsteer.apply_gain
            rho = cvsteer.fock_density(apply(cvsteer.tmsv_covariance(r), param, "B"), self.CUTOFF, self.CUTOFF)
            out.append((rho, cvsteer.fock_density_json(rho, self.THRESHOLD)))
        return out

    def check(self, params, output):
        n = self.CUTOFF
        rows = 0
        for state, (rho, doc) in zip(params, output):
            reference = oracles.fock_elements(*state, n, n)
            _require(np.abs(rho.elements - reference).max() <= 1e-12, f"Fock elements of {state}")
            _require(doc["cutoffs"] == [n, n], "JSON cutoffs")
            entries = doc["elements"]
            _require(len(entries) == int((np.abs(rho.elements) > self.THRESHOLD).sum()), "JSON entry count")
            for entry in entries:
                idx = tuple(entry["idx"])
                _require(entry["val"] == float(rho.elements[idx]), f"JSON entry {idx}")
                _close(entry["val"], reference[idx], 1e-12, f"JSON entry {idx}")
            rows += len(entries)
        return rows, 0


WORKLOADS = {cls.name: cls for cls in (Sweep, Rrange, Analyze, Fockdeep)}
