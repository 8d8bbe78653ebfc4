"""Layer-by-layer tracing of cvsteer from outside the package.

`Tracer` rebinds the traced functions in every `cvsteer` module namespace that
binds them (the package namespace included), records one span per call and
restores the original bindings when it is closed.  Spans hold name, start, end,
parent and op id; they stay in memory until `write` is called.  A function
missing from its module is reported as absent instead of failing the run, so
the tracer keeps working when a later change renames or deletes a stage.

`layer_metrics` turns the spans into the per-layer metrics of BENCHMARK.json.
A span's self time is its duration minus the time its child spans cover.
"""

import contextlib
import functools
import importlib
import json
import sys
import time

# Public entry points of each module plus the stages the roadmap names (the
# Taylor table is the private `fock._exp_neg_quadratic`).  `verdict` only holds
# a dataclass, so its time counts inside its callers.
STAGES = {
    "covariance": ("tmsv_covariance", "apply_loss", "apply_gain", "check_physical", "physicality_eigenvalue"),
    "gaussian_criterion": ("gaussian_margin", "gaussian_steerable", "gaussian_loss_boundary", "gaussian_gain_boundary"),
    "fock": ("fock_density", "hermite_kernel", "_exp_neg_quadratic", "thermal_occupations", "fock_density_json"),
    "observables": ("build_tloos", "expectation_values", "uncertainty_sum", "rotate_tloos"),
    "tloo_criterion": (
        "correlation_matrix",
        "criterion_rhs",
        "tloo_steerable",
        "optimal_gain",
        "paired_variance_sum",
        "build_witness",
        "swap_fock_modes",
    ),
    "scan": (
        "channel_covariance",
        "evaluate_point",
        "run_sweep",
        "write_sweep_csv",
        "find_boundary",
        "squeezing_range",
        "monogamy_report",
    ),
    "cli": ("main",),
}

# Stages whose returned array size is recorded (computed Taylor-table entries).
SIZED = {"fock._exp_neg_quadratic"}

ROOT_SPAN = "op"

NAME, START, END, PARENT, OP, ERROR, SIZE = range(7)


class Tracer:
    """Context manager that wraps the stages while it is open.

    It may be opened many times; spans and TLOO cache counters accumulate
    across openings, so traced ops can alternate with untraced ones.
    """

    def __init__(self):
        self.spans = []
        self.absent = []
        self._stack = []
        self._op = None
        self._bindings = None
        self._cache_start = None
        self.cache_delta = (0, 0)

    def __enter__(self):
        # Read the TLOO cache counters around the unwrapped function: the
        # wrapper does not carry `cache_info`.
        self._cache_start = _tloo_cache_info()
        if self._bindings is None:
            self._bindings = self._find_bindings()
        for mod, attr, _, wrapper in self._bindings:
            setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for mod, attr, original, _ in self._bindings:
            setattr(mod, attr, original)
        end = _tloo_cache_info()
        if self._cache_start is not None and end is not None:
            hits, misses = self.cache_delta
            self.cache_delta = (
                hits + end.hits - self._cache_start.hits,
                misses + end.misses - self._cache_start.misses,
            )
        return False

    def _find_bindings(self):
        """(module, attribute, original, wrapper) for every binding of every stage."""
        if self._cache_start is None:
            self.absent.append("observables.build_tloos.cache_info")
        modules = [m for name, m in list(sys.modules.items()) if name == "cvsteer" or name.startswith("cvsteer.")]
        bindings = []
        for module_name, functions in STAGES.items():
            try:
                module = importlib.import_module(f"cvsteer.{module_name}")
            except ImportError:
                self.absent.extend(f"{module_name}.{fn}" for fn in functions)
                continue
            for fn in functions:
                original = getattr(module, fn, None)
                if not callable(original):
                    self.absent.append(f"{module_name}.{fn}")
                    continue
                wrapper = self._wrap(original, f"{module_name}.{fn}")
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            bindings.append((mod, attr, original, wrapper))
        return bindings

    def _wrap(self, fn, name):
        spans, stack = self.spans, self._stack
        sized = name in SIZED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else None, self._op, False, 0])
            stack.append(index)
            span = spans[index]
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[ERROR] = True
                raise
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if sized:
                span[SIZE] = int(getattr(result, "size", 0))
            return result

        return traced

    @contextlib.contextmanager
    def op(self, op_id):
        """Root span around one op; every program call inside it is its descendant."""
        span = [ROOT_SPAN, time.perf_counter(), 0.0, None, op_id, False, 0]
        self._op = op_id
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        except BaseException:
            span[ERROR] = True
            raise
        finally:
            span[END] = time.perf_counter()
            self._stack.pop()
            self._op = None

    def write(self, path):
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as out:
            for index, span in enumerate(self.spans):
                out.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": span[NAME],
                            "start": span[START],
                            "end": span[END],
                            "parent": span[PARENT],
                            "op": span[OP],
                            "error": span[ERROR],
                        }
                    )
                    + "\n"
                )


def _tloo_cache_info():
    observables = sys.modules.get("cvsteer.observables")
    cache_info = getattr(getattr(observables, "build_tloos", None), "cache_info", None)
    return cache_info() if cache_info is not None else None


def self_times(spans):
    """Duration of each span minus the time covered by its direct children."""
    child = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] is not None:
            child[span[PARENT]] += span[END] - span[START]
    return [span[END] - span[START] - c for span, c in zip(spans, child)]


def layer_metrics(tracer, ops, rows, bytes_out, overhead_frac):
    """Per-layer metrics of one traced pass over `ops` ops producing `rows` rows."""
    spans = tracer.spans
    selfs = self_times(spans)
    calls, self_s = {}, {}
    for span, own in zip(spans, selfs):
        calls[span[NAME]] = calls.get(span[NAME], 0) + 1
        self_s[span[NAME]] = self_s.get(span[NAME], 0.0) + own

    def n(*names):
        return sum(calls.get(name, 0) for name in names)

    def s(*names):
        return sum(self_s.get(name, 0.0) for name in names)

    def ratio(num, den):
        return num / den if den else 0.0

    boundaries = ("gaussian_criterion.gaussian_loss_boundary", "gaussian_criterion.gaussian_gain_boundary")
    margins_in_boundary = 0
    for span in spans:
        if span[NAME] == "gaussian_criterion.gaussian_margin":
            parent = span[PARENT]
            while parent is not None and spans[parent][NAME] not in boundaries:
                parent = spans[parent][PARENT]
            margins_in_boundary += parent is not None
    evals = n("scan.evaluate_point")
    scan_names = [f"scan.{fn}" for fn in STAGES["scan"] if fn != "write_sweep_csv"]
    hits, misses = tracer.cache_delta
    witness_refused = sum(1 for span in spans if span[NAME] == "tloo_criterion.build_witness" and span[ERROR])

    return {
        "covariance.check_physical.calls": n("covariance.check_physical"),
        "covariance.check_physical.self_s": s("covariance.check_physical", "covariance.physicality_eigenvalue"),
        "covariance.check_physical.per_eval": ratio(n("covariance.check_physical"), evals or ops),
        "covariance.channel.self_s": s("covariance.tmsv_covariance", "covariance.apply_loss", "covariance.apply_gain"),
        "gaussian_criterion.margin.calls": n("gaussian_criterion.gaussian_margin"),
        "gaussian_criterion.margin.self_s": s("gaussian_criterion.gaussian_margin"),
        "gaussian_criterion.boundary.calls": n(*boundaries),
        "gaussian_criterion.margins_per_boundary": ratio(margins_in_boundary, n(*boundaries)),
        "fock.density.calls": n("fock.fock_density"),
        "fock.assembly.self_s": s("fock.fock_density", "fock.thermal_occupations"),
        "fock.kernel.self_s": s("fock.hermite_kernel"),
        "fock.taylor.self_s": s("fock._exp_neg_quadratic"),
        "fock.taylor.entries": sum(span[SIZE] for span in spans),
        "fock.json.self_s": s("fock.fock_density_json"),
        "observables.rotate.calls": n("observables.rotate_tloos"),
        "observables.rotate.self_s": s("observables.rotate_tloos"),
        "observables.tloo_cache.hit_ratio": ratio(hits, hits + misses),
        "tloo_criterion.correlation.calls": n("tloo_criterion.correlation_matrix"),
        "tloo_criterion.correlation.self_s": s("tloo_criterion.correlation_matrix"),
        "tloo_criterion.steerable.self_s": s("tloo_criterion.tloo_steerable", "tloo_criterion.criterion_rhs"),
        "tloo_criterion.witness.calls": n("tloo_criterion.build_witness"),
        "tloo_criterion.witness.self_s": s(
            "tloo_criterion.build_witness",
            "tloo_criterion.optimal_gain",
            "tloo_criterion.paired_variance_sum",
            "tloo_criterion.swap_fock_modes",
        ),
        "tloo_criterion.witness.refused": witness_refused,
        "scan.evaluate_point.calls": evals,
        "scan.self_s": s(*scan_names),
        "scan.evals_per_output": ratio(evals, rows),
        "scan.csv.self_s": s("scan.write_sweep_csv"),
        "cli.self_s": s("cli.main"),
        "cli.bytes_out": bytes_out,
        "trace.overhead_frac": overhead_frac,
    }
