"""cvsteer benchmark: one workload, one seed, one JSON result on the last line.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 10 --trace 0

Runs from a source checkout (it imports `src/cvsteer`, never an installed
copy) with one closed-loop client in one process.  `--trace 0` measures the
end-to-end metrics; `--trace 1` runs a fixed op list, each op once untraced and
once traced, and reports the per-layer metrics.  The metric names and units are
read from BENCHMARK.json at the root of the checkout.  The line before the
result is a JSON report with provenance, sample counts and failures.
"""

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / "perfbench" / "out"
SETUP_LAUNCHES = 5
PROBE_TIMEOUT_S = 30
BLAS_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
MAX_FAILURE_NOTES = 5
# End-to-end figures printed in the report line but not gated in
# BENCHMARK.json: on a shared machine whose cores switch between two speeds,
# their spread across runs exceeds any allowed bound (see README.md).
REPORT_ONLY_UNITS = {"rows_per_s": "rows/s", "latency_p50_ms": "ms", "scan_s": "s", "failed_frac": "fraction"}


def cap_threads():
    """Cap BLAS/OpenMP threads at the usable core count; call before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        os.environ[var] = str(nproc)
    return nproc


def load_workloads():
    """Import the benchmark modules against the checkout's own `src/cvsteer`."""
    if not (SRC / "cvsteer" / "__init__.py").is_file():
        raise SystemExit(f"error: no cvsteer sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import cvsteer
    import workloads

    if Path(cvsteer.__file__).resolve().parent != (SRC / "cvsteer").resolve():
        raise SystemExit(f"error: imported cvsteer from {cvsteer.__file__}, not from {SRC}")
    return workloads


class Tally:
    """Attempted and failed ops, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def fail(self, message):
        self.failed += 1
        if len(self.notes) < MAX_FAILURE_NOTES:
            self.notes.append(message)


def attempt(workload, i, tally, wrap=None):
    """Run and check op i.  Returns (seconds in the program, rows, CLI bytes),
    or None when the op raised or its output failed the check."""
    params = workload.params(i)
    tally.attempted += 1
    context = wrap(i) if wrap is not None else contextlib.nullcontext()
    start = time.perf_counter()
    try:
        with context:
            output = workload.run(params)
    except Exception as exc:  # any program error is a failed op, not a crash
        tally.fail(f"op {i}: {type(exc).__name__}: {exc}")
        return None
    elapsed = time.perf_counter() - start
    try:
        rows, written = workload.check(params, output)
    except Exception as exc:  # a wrong or malformed output is a failed op
        tally.fail(f"op {i}: check failed: {type(exc).__name__}: {exc}")
        return None
    return elapsed, rows, written


def measure_setup(args, tally):
    """Seconds from launching a fresh interpreter to its first checked result.

    CLOCK_MONOTONIC is system-wide, so the launched probe measures the time
    from the launch instant passed to it.
    """
    samples = []
    for _ in range(SETUP_LAUNCHES):
        tally.attempted += 1
        argv = [
            sys.executable, str(Path(__file__).resolve()), "--probe", repr(time.monotonic()),
            "--workload", args.workload, "--seed", str(args.seed), "--seconds", "1",
        ]
        with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True) as probe:
            try:
                out, _ = probe.communicate(timeout=PROBE_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                probe.kill()
                out, _ = probe.communicate()
        try:
            samples.append(float(out))
        except ValueError:
            tally.fail(f"setup launch: {out.strip() or 'no output'} (exit {probe.returncode})")
    if not samples:
        raise SystemExit("error: no setup launch produced a checked result")
    return statistics.median(samples)


def run_probe(workload, launched):
    """Print the seconds from `launched` until op 0 returned, if its output passes the check.

    The clock stops when the program returns, so the check's own time is not counted.
    """
    params = workload.params(0)
    try:
        output = workload.run(params)
        elapsed = time.monotonic() - launched
        workload.check(params, output)
    except Exception as exc:  # reported to the parent as a failed launch
        print(f"failed: {type(exc).__name__}: {exc}", flush=True)
        return 1
    print(repr(elapsed), flush=True)
    return 0


def run_measured(workload, seconds, tally):
    """Closed loop for `seconds`: one op at a time, each checked after it returns."""
    attempt(workload, 0, tally)  # warm-up: lazy imports and caches fill
    latencies, rows = [], 0
    start = time.perf_counter()
    i = 1
    while time.perf_counter() - start < seconds:
        result = attempt(workload, i, tally)
        i += 1
        if result is not None:
            latencies.append(result[0])
            rows += result[1]
    return latencies, rows


def run_traced(workload, tally, trace_path):
    """Each op of the workload's fixed list runs once untraced and once traced,
    back to back in alternating order, so the overhead estimate sees the same
    machine speed on both sides."""
    from tracing import Tracer, layer_metrics

    ops = range(1, workload.trace_ops + 1)
    attempt(workload, 0, tally)
    tracer = Tracer()
    untraced, traced = [], []
    for i in ops:
        for side in ((0, 1) if i % 2 else (1, 0)):
            if side:
                with tracer:
                    traced.append(attempt(workload, i, tally, wrap=tracer.op))
            else:
                untraced.append(attempt(workload, i, tally))
    tracer.write(trace_path)
    pairs = [(u, t) for u, t in zip(untraced, traced) if u is not None and t is not None]
    untraced_s = sum(u[0] for u, _ in pairs)
    metrics = layer_metrics(
        tracer,
        ops=len(ops),
        rows=sum(t[1] for t in traced if t is not None),
        bytes_out=sum(t[2] for t in traced if t is not None),
        overhead_frac=sum(t[0] for _, t in pairs) / untraced_s - 1.0 if untraced_s else 0.0,
    )
    return metrics, tracer.absent, len(tracer.spans)


def provenance(args, nproc):
    import numpy
    import scipy

    import cvsteer

    return {
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "ram_gb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cvsteer": getattr(cvsteer, "__version__", "unknown"),
        "git_commit": _git_commit(),
        "seed": args.seed,
        "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
    }


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    try:
        git = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    lines = git.stdout.splitlines()
    # A checkout that is not a work tree may still sit inside another one.
    if git.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", type=float, help=argparse.SUPPRESS)  # launch instant
    args = parser.parse_args(argv)

    nproc = cap_threads()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = load_workloads()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    WORKDIR.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, WORKDIR)
    if args.probe is not None:
        return run_probe(workload, args.probe)

    tally = Tally()
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    if args.trace:
        trace_path = WORKDIR / f"trace-{args.workload}-{args.seed}.jsonl"
        values, absent, spans = run_traced(workload, tally, trace_path)
        declared = spec["per_layer"]
        report.update(ops=workload.trace_ops, spans=spans, absent_stages=absent, trace_file=str(trace_path))
    else:
        setup_s = measure_setup(args, tally)
        latencies, rows = run_measured(workload, args.seconds, tally)
        if len(latencies) < 2:
            raise SystemExit(f"error: {len(latencies)} ops completed in {args.seconds} s; failures: {tally.notes}")
        values = {
            "setup_s": setup_s,
            "rows_per_s": rows / sum(latencies),
            "latency_p50_ms": statistics.median(latencies) * 1e3,
            "latency_p90_ms": statistics.quantiles(latencies, n=10)[-1] * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_frac": (tally.attempted - tally.failed) / tally.attempted,
            "failed_frac": tally.failed / tally.attempted,
        }
        if args.workload == "rrange":
            values["scan_s"] = statistics.median(latencies)
        declared = spec["end_to_end"]
        report.update(
            ops=len(latencies),
            setup_launches=SETUP_LAUNCHES,
            rows=rows,
            reported={
                name: {"value": values[name], "unit": unit}
                for name, unit in REPORT_ONLY_UNITS.items()
                if name in values
            },
        )
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise SystemExit(f"error: metrics {missing} were not measured")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    report.update(
        attempted=tally.attempted,
        failed=tally.failed,
        failures=tally.notes,
        metrics=metrics,
        provenance=provenance(args, nproc),
    )
    print(json.dumps(report))
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
