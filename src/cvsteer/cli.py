"""Command-line front end: sweeps, boundaries, squeezing ranges, monogamy, Fock dumps.

Exit codes: 0 success, 2 invalid arguments, 3 no boundary / empty interval.
"""

import argparse
import json
import sys

from .covariance import tmsv_covariance
from .fock import fock_density, fock_density_json
from .scan import (
    CRITERIA,
    DIRECTION_FROM_LABEL,
    DIRECTION_LABELS,
    SweepSpec,
    channel_covariance,
    find_boundary,
    monogamy_report,
    run_sweep,
    squeezing_range,
    write_sweep_csv,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NO_BOUNDARY = 3


def _criterion_name(args) -> str:
    if args.criterion == "gaussian":
        return "gaussian"
    return f"tloo-n{args.level}"


def _open_out(path):
    if path is None or path == "-":
        return sys.stdout, False
    return open(path, "w", encoding="utf-8"), True


def _emit(text: str, path) -> None:
    stream, close = _open_out(path)
    try:
        stream.write(text)
        if not text.endswith("\n"):
            stream.write("\n")
    finally:
        if close:
            stream.close()


def cmd_sweep(args) -> int:
    if args.criterion is None:
        criteria = tuple(
            (criterion, direction)
            for criterion in CRITERIA
            for direction in DIRECTION_LABELS
        )
    else:
        criteria = ((_criterion_name(args), DIRECTION_FROM_LABEL[args.direction]),)
    try:
        spec = SweepSpec(
            channel=args.channel,
            r_range=(args.r_range[0], args.r_range[1], int(args.r_range[2])),
            param_range=(args.param_range[0], args.param_range[1], int(args.param_range[2])),
            criteria=criteria,
        )
    except (ValueError, OverflowError) as exc:  # int(inf) overflows
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    rows = run_sweep(spec)
    if args.format == "json":
        payload = [
            {
                "r": row.r,
                "param": row.param,
                "criterion": row.criterion,
                "direction": DIRECTION_LABELS[row.direction],
                "margin": row.margin,
                "steerable": row.steerable,
            }
            for row in rows
        ]
        _emit(json.dumps(payload, indent=2), args.out)
    else:
        stream, close = _open_out(args.out)
        try:
            write_sweep_csv(rows, stream)
        finally:
            if close:
                stream.close()
    return EXIT_OK


def cmd_boundary(args) -> int:
    criterion = _criterion_name(args)
    direction = DIRECTION_FROM_LABEL[args.direction]
    boundary = find_boundary(args.channel, args.r, criterion, direction)
    param_name = "eta" if args.channel == "loss" else "gain"
    if boundary is None:
        print(
            f"no boundary: {criterion} {args.direction} margin does not change sign "
            f"over the physical {param_name} range at r={args.r:.9g}"
        )
        return EXIT_NO_BOUNDARY
    print(f"{param_name}={boundary:.9g}")
    return EXIT_OK


def cmd_rrange(args) -> int:
    criterion = _criterion_name(args)
    if criterion == "gaussian":
        print("error: rrange requires a TLOO criterion (--criterion tloo)", file=sys.stderr)
        return EXIT_USAGE
    direction = DIRECTION_FROM_LABEL[args.direction]
    result = squeezing_range(
        args.channel, criterion, direction, r_step=args.r_step, r_max=args.r_max
    )
    if not result.detected:
        print("no detection inside the Gaussian-blind region")
        return EXIT_NO_BOUNDARY
    lines = [f"r_low={result.r_low:.9g}", f"r_high={result.r_high:.9g}"]
    if result.eps_curve is not None:
        lines.append(f"eps_max={result.eps_max:.9g}")
        lines.append(f"eps_argmax={result.eps_argmax:.9g}")
    print("\n".join(lines))
    if args.out and result.eps_curve is not None:
        _emit(
            "r,eps\n" + "\n".join(f"{r:.9g},{eps:.9g}" for r, eps in result.eps_curve),
            args.out,
        )
    return EXIT_OK


def cmd_monogamy(args) -> int:
    if not 0.0 < args.eta < 1.0:
        print("error: --eta must lie strictly inside (0, 1)", file=sys.stderr)
        return EXIT_USAGE
    report = monogamy_report(args.r, args.eta)
    if args.format == "json":
        payload = {
            "r": report.r,
            "eta": report.eta,
            "bob_gaussian_b_to_a": {
                "steerable": report.bob.steerable,
                "margin": report.bob.margin,
            },
            "eve_tloo_b_to_a": {
                "steerable": report.eve.steerable,
                "margin": report.eve.margin,
            },
            "simultaneous": report.simultaneous,
        }
        _emit(json.dumps(payload, indent=2), args.out)
    else:
        lines = [
            f"r={report.r:.9g} eta={report.eta:.9g}",
            f"Bob -> Alice (gaussian, transmittance {report.eta:.9g}): "
            f"steerable={str(report.bob.steerable).lower()} margin={report.bob.margin:.9g}",
            f"Eve -> Alice (tloo-n2, transmittance {1 - report.eta:.9g}): "
            f"steerable={str(report.eve.steerable).lower()} margin={report.eve.margin:.9g}",
            f"simultaneous steering: {str(report.simultaneous).lower()}",
        ]
        _emit("\n".join(lines), args.out)
    return EXIT_OK


def cmd_fock_dump(args) -> int:
    if args.channel == "none":
        cov = tmsv_covariance(args.r)
    else:
        cov = channel_covariance(args.channel, args.r, args.eta if args.channel == "loss" else args.gain)
    rho = fock_density(cov, args.cutoffs[0], args.cutoffs[1])
    _emit(json.dumps(fock_density_json(rho), indent=2), args.out)
    return EXIT_OK


def _add_common(parser: argparse.ArgumentParser, *names) -> None:
    if "r" in names:
        parser.add_argument("--r", type=float, required=True, help="squeezing parameter")
    if "eta" in names:
        parser.add_argument("--eta", type=float, help="loss transmittance in (0, 1]")
    if "gain" in names:
        parser.add_argument("--gain", type=float, help="amplifier gain factor >= 1")
    if "level" in names:
        parser.add_argument("--level", type=int, choices=(2, 3), default=2,
                            help="TLOO truncation level")
    if "direction" in names:
        parser.add_argument("--direction", choices=("b-to-a", "a-to-b"), default="b-to-a",
                            help="steering direction to test")
    if "criterion" in names:
        parser.add_argument("--criterion", choices=("gaussian", "tloo"),
                            help="criterion family")
    if "out" in names:
        parser.add_argument("--out", help="output path ('-' or omitted for stdout)")
    if "format" in names:
        parser.add_argument("--format", choices=("csv", "json"), default="csv",
                            help="output format")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cvsteer",
        description="Steering detection for two-mode squeezed states under loss and amplification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", help="evaluate criteria over an (r, channel parameter) grid")
    p.add_argument("--channel", choices=("loss", "gain"), required=True)
    p.add_argument("--r-range", nargs=3, type=float, metavar=("MIN", "MAX", "STEPS"),
                   default=(0.05, 1.4, 120), help="squeezing grid")
    p.add_argument("--param-range", nargs=3, type=float, metavar=("MIN", "MAX", "STEPS"),
                   help="channel parameter grid (default depends on channel)")
    _add_common(p, "level", "direction", "criterion", "out", "format")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("boundary", help="bisect the channel parameter where a criterion flips")
    p.add_argument("--channel", choices=("loss", "gain"), required=True)
    _add_common(p, "r", "level", "direction", "out")
    p.add_argument("--criterion", choices=("gaussian", "tloo"), default="gaussian")
    p.set_defaults(func=cmd_boundary)

    p = sub.add_parser("rrange", help="squeezing interval detected inside the Gaussian-blind region")
    p.add_argument("--channel", choices=("loss", "gain"), required=True)
    p.add_argument("--criterion", choices=("gaussian", "tloo"), default="tloo")
    p.add_argument("--r-step", type=float, default=1e-3, help="squeezing scan step")
    p.add_argument("--r-max", type=float, default=1.4, help="squeezing scan upper end")
    _add_common(p, "level", "direction", "out")
    p.set_defaults(func=cmd_rrange)

    p = sub.add_parser("monogamy", help="simultaneous Bob/Eve steering for a beamsplitter split")
    _add_common(p, "r", "out", "format")
    p.add_argument("--eta", type=float, required=True, help="Bob's transmittance in (0, 1)")
    p.set_defaults(func=cmd_monogamy)

    p = sub.add_parser("fock-dump", help="serialise truncated Fock elements to JSON")
    p.add_argument("--channel", choices=("none", "loss", "gain"), default="none")
    _add_common(p, "r", "eta", "gain", "out")
    p.add_argument("--cutoffs", nargs=2, type=int, metavar=("NA", "NB"), default=(3, 3))
    p.set_defaults(func=cmd_fock_dump)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if getattr(args, "command", None) == "sweep" and args.param_range is None:
        args.param_range = (0.05, 0.95, 120) if args.channel == "loss" else (1.0, 2.0, 120)
    if getattr(args, "command", None) == "fock-dump":
        if args.channel == "loss" and args.eta is None:
            parser.error("--eta is required for the loss channel")
        if args.channel == "gain" and args.gain is None:
            parser.error("--gain is required for the gain channel")
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
