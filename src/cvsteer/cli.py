"""Command-line front end: sweeps, boundaries, squeezing ranges, monogamy, Fock dumps.

Exit codes: 0 success, 2 invalid arguments, 3 no boundary / empty interval.
The library validates every value; this module only parses and prints.
"""

import argparse
import contextlib
import functools
import json
import sys

from .covariance import MAX_GAIN, tmsv_covariance
from .fock import fock_density, fock_density_json
from .scan import (
    CHANNELS,
    CRITERIA,
    SweepSpec,
    channel_covariance,
    find_boundary,
    monogamy_report,
    run_sweep,
    squeezing_range,
    write_sweep_csv,
    write_sweep_json,
)
from .verdict import B_TO_A, DIRECTIONS

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NO_BOUNDARY = 3

# TLOO level given by --level (None for --criterion gaussian) -> criterion name.
CRITERION_AT_LEVEL = {level: name for name, level in CRITERIA.items()}


def _criterion(args) -> str:
    return CRITERION_AT_LEVEL[None if args.criterion == "gaussian" else args.level]


@contextlib.contextmanager
def _output(path):
    """Stream for --out: stdout when omitted or '-', else the file, closed afterwards."""
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8") as stream:
            yield stream


def cmd_sweep(args) -> int:
    if args.criterion is None:
        criteria = tuple((criterion, direction) for criterion in CRITERIA for direction in DIRECTIONS)
    else:
        criteria = ((_criterion(args), args.direction),)
    param_range = args.param_range or CHANNELS[args.channel].default_range
    result = run_sweep(SweepSpec(args.channel, tuple(args.r_range), tuple(param_range), criteria))
    with _output(args.out) as stream:
        (write_sweep_csv if args.format == "csv" else write_sweep_json)(result, stream)
    return EXIT_OK


def cmd_boundary(args) -> int:
    criterion = _criterion(args)
    boundary = find_boundary(args.channel, args.r, criterion, args.direction)
    param_name, (lo, hi) = CHANNELS[args.channel].param, CHANNELS[args.channel].bracket
    with _output(args.out) as stream:
        if boundary is None:
            print(
                f"no boundary: {criterion} {args.direction} margin does not change sign "
                f"over {param_name} in [{lo:g}, {hi:g}] at r={args.r:.9g}",
                file=stream,
            )
            return EXIT_NO_BOUNDARY
        print(f"{param_name}={boundary:.9g}", file=stream)
    return EXIT_OK


def cmd_rrange(args) -> int:
    if args.out and not CHANNELS[args.channel].eps_curve:
        raise ValueError(f"--out writes the eps curve, which the {args.channel} channel does not have")
    result = squeezing_range(args.channel, _criterion(args), args.direction, r_step=args.r_step, r_max=args.r_max)
    if not result.blind_region:
        print(f"no Gaussian-blind region for {args.channel} {args.direction}")
        return EXIT_NO_BOUNDARY
    if not result.detected:
        print("no detection inside the Gaussian-blind region")
        return EXIT_NO_BOUNDARY
    print(f"r_low={result.r_low:.9g}\nr_high={result.r_high:.9g}")
    if result.eps_curve is not None:
        print(f"eps_max={result.eps_max:.9g}\neps_argmax={result.eps_argmax:.9g}")
        if args.out:
            with _output(args.out) as stream:
                print("r,eps", *(f"{r:.9g},{eps:.9g}" for r, eps in result.eps_curve), sep="\n", file=stream)
    return EXIT_OK


def cmd_monogamy(args) -> int:
    report = monogamy_report(args.r, args.eta)
    with _output(args.out) as stream:
        if args.format == "json":
            payload = {
                "r": report.r,
                "eta": report.eta,
                "bob_gaussian_b_to_a": {"steerable": report.bob.steerable, "margin": report.bob.margin},
                "eve_tloo_b_to_a": {"steerable": report.eve.steerable, "margin": report.eve.margin},
                "simultaneous": report.simultaneous,
            }
            print(json.dumps(payload, indent=2), file=stream)
        else:
            print(
                f"r={report.r:.9g} eta={report.eta:.9g}",
                f"Bob -> Alice (gaussian, transmittance {report.eta:.9g}): "
                f"steerable={str(report.bob.steerable).lower()} margin={report.bob.margin:.9g}",
                f"Eve -> Alice (tloo-n2, transmittance {1 - report.eta:.9g}): "
                f"steerable={str(report.eve.steerable).lower()} margin={report.eve.margin:.9g}",
                f"simultaneous steering: {str(report.simultaneous).lower()}",
                sep="\n",
                file=stream,
            )
    return EXIT_OK


def cmd_fock_dump(args) -> int:
    if args.channel == "none":
        cov = tmsv_covariance(args.r)
    else:
        cov = channel_covariance(args.channel, args.r, getattr(args, CHANNELS[args.channel].param))
    rho = fock_density(cov, args.cutoffs[0], args.cutoffs[1])
    with _output(args.out) as stream:
        print(json.dumps(fock_density_json(rho), indent=2), file=stream)
    return EXIT_OK


_COMMON = {
    "r": dict(type=float, required=True, help="squeezing parameter"),
    "level": dict(type=int, choices=[n for n in CRITERION_AT_LEVEL if n], default=2,
                  help="TLOO truncation level"),
    "direction": dict(choices=DIRECTIONS, default=B_TO_A, help="steering direction to test"),
    "criterion": dict(choices=("gaussian", "tloo"), help="criterion family"),
    "out": dict(help="output path ('-' or omitted for stdout)"),
    "format": dict(choices=("csv", "json"), default="csv", help="output format"),
}


def _add_common(parser: argparse.ArgumentParser, *names) -> None:
    for name in names:
        parser.add_argument(f"--{name}", **_COMMON[name])


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once; cmd_* look their library calls up when they run."""
    parser = argparse.ArgumentParser(
        prog="cvsteer",
        description="Steering detection for two-mode squeezed states under loss and amplification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", help="evaluate criteria over an (r, channel parameter) grid")
    p.add_argument("--channel", choices=tuple(CHANNELS), required=True)
    p.add_argument("--r-range", nargs=3, type=float, metavar=("MIN", "MAX", "STEPS"),
                   default=(0.05, 1.4, 120), help="squeezing grid")
    p.add_argument("--param-range", nargs=3, type=float, metavar=("MIN", "MAX", "STEPS"),
                   help="channel parameter grid (default depends on channel)")
    _add_common(p, "level", "direction", "criterion", "out", "format")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("boundary", help="find the channel parameter where a criterion flips")
    p.add_argument("--channel", choices=tuple(CHANNELS), required=True)
    _add_common(p, "r", "level", "direction", "out")
    p.add_argument("--criterion", choices=("gaussian", "tloo"), default="gaussian")
    p.set_defaults(func=cmd_boundary)

    p = sub.add_parser("rrange", help="squeezing interval detected inside the Gaussian-blind region")
    p.add_argument("--channel", choices=tuple(CHANNELS), required=True)
    p.add_argument("--criterion", choices=("gaussian", "tloo"), default="tloo")
    p.add_argument("--r-step", type=float, default=1e-3, help="squeezing scan step")
    p.add_argument("--r-max", type=float, default=1.4, help="squeezing scan upper end")
    _add_common(p, "level", "direction")
    p.add_argument("--out", help="path of the eps-curve CSV, gain channel only ('-' for stdout)")
    p.set_defaults(func=cmd_rrange)

    p = sub.add_parser("monogamy", help="simultaneous Bob/Eve steering for a beamsplitter split")
    _add_common(p, "r", "out", "format")
    p.add_argument("--eta", type=float, required=True, help="Bob's transmittance in (0, 1)")
    p.set_defaults(func=cmd_monogamy)

    p = sub.add_parser("fock-dump", help="serialise truncated Fock elements to JSON")
    p.add_argument("--channel", choices=("none", *CHANNELS), default="none")
    _add_common(p, "r")
    p.add_argument("--eta", type=float, help="loss transmittance in (0, 1]")
    p.add_argument("--gain", type=float, help=f"amplifier gain factor in [1, {MAX_GAIN:g}]")
    _add_common(p, "out")
    p.add_argument("--cutoffs", nargs=2, type=int, metavar=("NA", "NB"), default=(3, 3))
    p.set_defaults(func=cmd_fock_dump)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "fock-dump":  # a channel's parameter is given exactly when that channel is chosen
        for name, spec in CHANNELS.items():
            given = getattr(args, spec.param) is not None
            if given != (name == args.channel):
                rule = "does not apply to" if given else "is required for"
                parser.error(f"--{spec.param} {rule} the {args.channel} channel")
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
