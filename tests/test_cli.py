import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

from conftest import lossy_tmsv_element, reference_margin
from cvsteer import (
    A_TO_B,
    B_TO_A,
    MARGIN_TOL,
    build_witness,
    channel_covariance,
    evaluate_point,
    fock_density,
    scan,
    squeezing_range,
)
from cvsteer.cli import build_parser, main
from cvsteer.verdict import DIRECTIONS

# Sweep CSVs written by the per-point engine that preceded batched evaluation
# (commit 9d6e174); the batched engine must reproduce them byte for byte.
DATA = Path(__file__).parent / "data"

SMALL_GRID = ("--r-range", "0.2", "0.4", "2", "--param-range", "0.3", "0.6", "2")


def run_cli(*argv):
    return main(list(argv))


def test_sweep_csv_output(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = run_cli(
        "sweep", "--channel", "loss",
        "--r-range", "0.2", "0.6", "3",
        "--param-range", "0.3", "0.6", "3",
        "--criterion", "tloo", "--level", "2", "--direction", "b-to-a",
        "--out", str(out),
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "r,param,criterion,direction,margin,steerable"
    assert len(lines) == 1 + 9
    assert all("tloo-n2" in line for line in lines[1:])


def test_sweep_deterministic(tmp_path):
    args = (
        "sweep", "--channel", "loss",
        "--r-range", "0.2", "0.6", "3",
        "--param-range", "0.3", "0.6", "3",
        "--criterion", "gaussian", "--direction", "b-to-a",
    )
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(*args, "--out", str(out1)) == 0
    assert run_cli(*args, "--out", str(out2)) == 0
    assert out1.read_text() == out2.read_text()


@pytest.mark.parametrize(
    "channel, param_range",
    [("loss", ("0.05", "0.95", "6")), ("gain", ("1.0", "2.0", "6"))],
)
def test_sweep_matches_golden_csv(tmp_path, channel, param_range):
    out = tmp_path / "sweep.csv"
    code = run_cli(
        "sweep", "--channel", channel,
        "--r-range", "0.05", "1.4", "6",
        "--param-range", *param_range,
        "--out", str(out),
    )
    assert code == 0
    assert out.read_bytes() == (DATA / f"sweep_{channel}_6x6.csv").read_bytes()


@pytest.mark.parametrize(
    "r_range, param_range, message",
    [
        (("0.1", "inf", "3"), ("0.3", "0.6", "3"), "r range bounds must be finite"),
        (("nan", "0.5", "3"), ("0.3", "0.6", "3"), "r range bounds must be finite"),
        (("0.1", "0.5", "3"), ("0.3", "nan", "3"), "param range bounds must be finite"),
        (("0.1", "0.5", "inf"), ("0.3", "0.6", "3"), "grid STEPS must be a whole number, got inf"),
        (("0.1", "0.5", "1000"), ("0.3", "0.6", "1000"), "at most 250000"),
        (("0.1", "0.5", "nan"), ("0.3", "0.6", "3"), "grid STEPS must be a whole number, got nan"),
        (("0.1", "0.5", "2.9"), ("0.5", "1", "2"), "grid STEPS must be a whole number, got 2.9"),
        (("0.1", "0.5", "3"), ("0.5", "1", "2.5"), "grid STEPS must be a whole number, got 2.5"),
    ],
)
def test_sweep_rejects_bad_grid_at_the_edge(capsys, r_range, param_range, message):
    code = run_cli(
        "sweep", "--channel", "loss",
        "--r-range", *r_range,
        "--param-range", *param_range,
    )
    captured = capsys.readouterr()
    assert code == 2
    assert message in captured.err
    assert captured.out == ""


def test_sweep_json_format(tmp_path):
    out = tmp_path / "sweep.json"
    code = run_cli(
        "sweep", "--channel", "gain",
        "--r-range", "0.2", "0.4", "2",
        "--param-range", "1.0", "1.3", "2",
        "--criterion", "gaussian", "--direction", "a-to-b",
        "--format", "json", "--out", str(out),
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert len(payload) == 4
    assert {"r", "param", "criterion", "direction", "margin", "steerable"} <= payload[0].keys()


@pytest.mark.parametrize(
    "channel, digest",
    [("loss", "11238cbf4e85b89f6e87bdd99212f002d7192a046ce4b254f0b08282d81ad065"),
     ("gain", "a0eb24f171a27108d0d12eb8d4ce34342e4c7899f3a2516600c74493f12ecd5a")],
)
def test_default_sweep_csv_is_pinned(capsys, channel, digest):
    # The default 120 x 120 grid, 3 criteria x 2 directions (86,400 rows), as written at commit d135971,
    # before the trace norm was taken on the realigned Fock block; the 6 x 6 goldens cover small grids only.
    assert run_cli("sweep", "--channel", channel) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "channel, digest",
    [("loss", "04038d4de3d4e3a1945d4b82d758ad99b3d132444117dcdfeba0b81a34fd1e5d"),
     ("gain", "3ebd57a148ef39f175acf192a6178b7bf1671c29f5cd998f4683491196a9e889")],
)
def test_default_sweep_json_is_pinned(capsys, channel, digest):
    # The default grid as JSON, written at commit 2a4942e: every margin, r and parameter at full precision (repr).
    assert run_cli("sweep", "--channel", channel, "--format", "json") == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_sweep_rejects_degenerate_range(capsys):
    code = run_cli(
        "sweep", "--channel", "loss",
        "--r-range", "0.2", "0.2", "1",
        "--param-range", "0.3", "0.6", "3",
        "--criterion", "gaussian",
    )
    assert code == 2


def test_boundary_loss(capsys):
    code = run_cli("boundary", "--channel", "loss", "--r", "2.0",
                   "--criterion", "gaussian", "--direction", "b-to-a")
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("eta=")
    assert float(out.strip().split("=")[1]) == pytest.approx(0.5, abs=1e-6)


def test_boundary_none_exit_code(capsys):
    code = run_cli("boundary", "--channel", "gain", "--r", "0.5",
                   "--criterion", "gaussian", "--direction", "b-to-a")
    assert code == 3
    assert "no boundary" in capsys.readouterr().out


def test_boundary_with_two_crossings_exits_2(monkeypatch, capsys):
    monkeypatch.setattr(scan, "batch_margins", lambda channel, rs, params, criteria: [(params - 0.3) * (params - 0.7)])
    assert run_cli("boundary", "--channel", "loss", "--r", "0.4", "--criterion", "tloo") == 2
    assert "changes sign 2 times" in capsys.readouterr().err


def test_boundary_writes_to_out(tmp_path, capsys):
    out = tmp_path / "boundary.txt"
    code = run_cli("boundary", "--channel", "loss", "--r", "0.4", "--out", str(out))
    assert code == 0
    assert out.read_text() == "eta=0.5\n"
    assert capsys.readouterr().out == ""


def test_boundary_tloo(capsys):
    code = run_cli("boundary", "--channel", "loss", "--r", "0.4",
                   "--criterion", "tloo", "--level", "2", "--direction", "b-to-a")
    assert code == 0
    eta = float(capsys.readouterr().out.strip().split("=")[1])
    assert eta < 0.5


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(("sweep", "--channel", "loss", *SMALL_GRID), id="sweep"),
        pytest.param(("boundary", "--channel", "loss", "--r", "0.4"), id="boundary"),
        pytest.param(("rrange", "--channel", "gain", "--direction", "a-to-b", "--r-step", "0.02", "--r-max", "1.2"),
                     id="rrange"),
        pytest.param(("monogamy", "--r", "0.4", "--eta", "0.55"), id="monogamy"),
        pytest.param(("fock-dump", "--r", "0.4"), id="fock-dump"),
    ],
)
def test_unwritable_out_exits_2(tmp_path, capsys, argv):
    # An --out path in a missing directory used to end in a FileNotFoundError traceback and exit 1,
    # and then was refused only after the work: rrange printed its four result lines first.
    path = tmp_path / "missing" / "x"
    assert run_cli(*argv, "--out", str(path)) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot write {path}: ") and captured.err.count("\n") == 1
    assert captured.out == ""


def test_unwritable_out_is_refused_before_the_sweep_grid_is_evaluated(monkeypatch, tmp_path, capsys):
    def no_evaluation(*args):
        raise AssertionError("evaluated the grid although --out cannot be written")

    monkeypatch.setattr(scan, "batch_margins", no_evaluation)
    path = tmp_path / "missing" / "x"
    assert run_cli("sweep", "--channel", "loss", "--out", str(path)) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot write {path}: ")
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(("sweep", "--channel", "loss", "--r-range", "1", "0", "5"), id="sweep"),
        pytest.param(("rrange", "--channel", "gain", "--direction", "a-to-b", "--r-step", "0"), id="rrange"),
        pytest.param(("boundary", "--channel", "loss", "--r", "-1"), id="boundary"),
    ],
)
def test_refused_value_leaves_the_out_file_as_it_was(tmp_path, capsys, argv):
    # --out is opened after the library has checked the values, so a refusal neither creates nor truncates it.
    out = tmp_path / "out.txt"
    out.write_bytes(b"keep me\n")
    assert run_cli(*argv, "--out", str(out)) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert out.read_bytes() == b"keep me\n"


def test_rrange_requires_tloo(capsys):
    # rrange always runs the TLOO criterion at --level: a Gaussian range is empty by construction
    # (squeezing_range refuses it), so --criterion had one usable value and is gone.
    for criterion in ("gaussian", "tloo"):
        with pytest.raises(SystemExit) as excinfo:
            run_cli("rrange", "--channel", "loss", "--criterion", criterion)
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --criterion" in capsys.readouterr().err


@pytest.mark.parametrize("channel, direction", [("loss", "a-to-b"), ("gain", "b-to-a")])
def test_rrange_without_blind_region_exits_3(capsys, channel, direction):
    code = run_cli("rrange", "--channel", channel, "--level", "2", "--direction", direction,
                   "--r-step", "0.05", "--r-max", "1.2")
    assert code == 3
    out = capsys.readouterr().out
    assert out == f"no Gaussian-blind region for {channel} {direction}\n"


def test_rrange_without_detection_in_the_blind_region_exits_3(capsys):
    # The loss channel has a Gaussian-blind region at every r, but level 3 detects in it only from r = 0.364.
    assert run_cli("rrange", "--channel", "loss", "--level", "3", "--r-max", "0.3") == 3
    assert capsys.readouterr().out == "no detection inside the Gaussian-blind region\n"


@pytest.mark.parametrize(
    "flags, bad",
    [
        (("--r-step", "0"), "r_step must be finite and > 0, got 0.0"),
        (("--r-step", "-0.1"), "r_step must be finite and > 0, got -0.1"),
        (("--r-step", "nan"), "r_step must be finite and > 0, got nan"),
        (("--r-max", "-1"), "r_max must be finite and > 0, got -1.0"),
        (("--r-max", "inf"), "r_max must be finite and > 0, got inf"),
        (("--r-step", "0.5", "--r-max", "0.2"), "squeezing scan has 0 points; it needs 1 to 250000"),
        (("--r-step", "1e-9"), "squeezing scan has 1400000000 points; it needs 1 to 250000"),
        (("--r-step", "1e-320", "--r-max", "1.4"), "squeezing scan has inf points; it needs 1 to 250000"),
    ],
)
def test_rrange_rejects_bad_scan_at_the_edge(capsys, flags, bad):
    code = run_cli("rrange", "--channel", "loss", "--level", "2", *flags)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == f"error: {bad}\n"
    assert captured.out == ""


def test_rrange_refuses_out_for_a_channel_without_an_eps_curve(monkeypatch, tmp_path, capsys):
    def no_scan(*args):
        raise AssertionError("scanned although --out was refused")

    monkeypatch.setattr(scan, "batch_margins", no_scan)
    out = tmp_path / "eps.csv"
    with pytest.raises(SystemExit) as excinfo:
        run_cli("rrange", "--channel", "loss", "--level", "2", "--out", str(out))
    captured = capsys.readouterr()
    assert excinfo.value.code == 2
    assert captured.err.startswith("usage: cvsteer rrange ")
    assert captured.err.endswith("cvsteer rrange: error: --out writes the eps curve, which the loss channel does not have\n")
    assert captured.out == ""
    assert not out.exists()


def test_rrange_with_two_detected_runs_exits_2(monkeypatch, capsys):
    def two_runs(channel, rs, params, criteria):
        return [np.where((rs < 0.25) | (rs > 0.55), 1.0, -1.0) for _ in criteria]

    monkeypatch.setattr(scan, "batch_margins", two_runs)
    code = run_cli("rrange", "--channel", "loss", "--level", "2", "--r-step", "0.1", "--r-max", "0.8")
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == (
        "error: tloo-n2 detection is not one run of scan points: it stops after r=0.2 and resumes at r=0.6\n"
    )
    assert captured.out == ""


def test_rrange_loss(capsys):
    code = run_cli("rrange", "--channel", "loss", "--level", "2", "--direction", "b-to-a",
                   "--r-step", "0.02", "--r-max", "1.2")
    assert code == 0
    out = capsys.readouterr().out
    values = dict(line.split("=") for line in out.strip().splitlines())
    assert float(values["r_high"]) == pytest.approx(0.869, abs=0.015)


@pytest.mark.parametrize(
    "channel, r, direction, expected",
    [("loss", r, "b-to-a", "eta=0.5\n") for r in ("1e-12", "1e-9", "3e-8")] + [("gain", "1e-7", "a-to-b", "gain=1\n")],
)
def test_gaussian_boundary_near_the_vacuum(capsys, channel, r, direction, expected):
    # The Gaussian margin is O(r^2) here; it keeps its sign, so the boundary is one crossing.
    assert run_cli("boundary", "--channel", channel, "--r", r, "--criterion", "gaussian", "--direction", direction) == 0
    assert capsys.readouterr().out == expected


# The default scan (--r-step 1e-3, --r-max 1.4), as printed once every root was searched to the
# digits it prints; test_printed_roots_match_their_50_digit_references checks each line.
DEFAULT_STEP_RRANGE = [
    (("--channel", "loss", "--level", "2"), "r_low=0.001\nr_high=0.868989601\n"),
    (("--channel", "loss", "--level", "3"), "r_low=0.363761659\nr_high=0.986912653\n"),
    (("--channel", "gain", "--level", "2", "--direction", "a-to-b"),
     "r_low=0.001\nr_high=0.648382223\neps_max=0.0509705373\neps_argmax=0.41\n"),
    (("--channel", "gain", "--level", "3", "--direction", "a-to-b"),
     "r_low=0.259989715\nr_high=0.745720455\neps_max=0.0382427223\neps_argmax=0.526\n"),
]


@pytest.mark.parametrize("argv, expected", DEFAULT_STEP_RRANGE)
def test_default_step_rrange_is_pinned(capsys, argv, expected):
    assert run_cli("rrange", *argv) == 0
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize(
    "level, digest",
    [("2", "996cc2e501aa2455b07d48789df490ef859e2cff4b172bee09012b528520f7b6"),
     ("3", "ac2794c0028ba8a947d25f989d6fce161d654a4c3bbd6498d4493961989f2ba4")],
)
def test_default_step_rrange_eps_curve_is_pinned(capsys, level, digest):
    # The summary lines and the default-step eps-curve CSV on stdout, as written once every eps was
    # searched to EPS_XTOL.
    assert run_cli("rrange", "--channel", "gain", "--level", level, "--direction", "a-to-b", "--out", "-") == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_rrange_stops_at_r_max(capsys):
    # 5 / 0.3 rounds to 17 points, the last at r = 5.1, outside the squeezing domain.
    code = run_cli("rrange", "--channel", "loss", "--level", "2", "--r-step", "0.3", "--r-max", "5")
    assert code == 0
    assert capsys.readouterr().out == "r_low=0.3\nr_high=0.868989601\n"


def golden(name: str, code: int = 0):
    """Exit code and stdout of a subcommand, captured at the commit before the
    CLI was reduced to a thin edge over the library tables; rrange_gain_eps_csv
    was captured again when the root search changed, and monogamy_json,
    fock_dump_* and sweep_gain_3x3_json when the 2x2 closed forms replaced the
    4x4 eigensolve, inverse and determinant, and fock_dump_* again when the
    sector sum replaced the derivative recurrence of the Taylor table, and
    monogamy_json and sweep_gain_3x3_json again when the trace norm was taken on
    the realigned Fock block, and sweep_gain_3x3_json again when closed forms on
    its gap blocks replaced that SVD, and rrange_gain_eps_csv again when every
    root was searched to the digits it prints, each value checked against its
    50-digit reference."""
    return code, (DATA / "cli" / f"{name}.txt").read_text(encoding="utf-8")


# rrange at r step 0.02 up to 1.2 and boundary at two points, as the goldens below print them.
STEP_002_RRANGE = [
    (("--channel", "loss", "--level", "3", "--direction", "b-to-a", "--r-step", "0.02", "--r-max", "1.2"),
     "r_low=0.363761659\nr_high=0.986912653\n"),
    (("--channel", "gain", "--level", "2", "--direction", "a-to-b", "--r-step", "0.02", "--r-max", "1.2"),
     "r_low=0.02\nr_high=0.648382223\neps_max=0.0508789039\neps_argmax=0.4\n"),
]
BOUNDARY_GOLDENS = [
    (("--channel", "loss", "--r", "0.4", "--criterion", "tloo", "--level", "2", "--direction", "b-to-a"),
     "eta=0.399438238\n"),
    (("--channel", "gain", "--r", "0.5", "--criterion", "gaussian", "--direction", "a-to-b"), "gain=1.21355227\n"),
]


@pytest.mark.parametrize(
    "argv, expected",
    [
        pytest.param(("rrange", *STEP_002_RRANGE[0][0]), STEP_002_RRANGE[0][1], id="rrange-loss-n3-b-to-a"),
        pytest.param(("rrange", *STEP_002_RRANGE[1][0]), STEP_002_RRANGE[1][1], id="rrange-gain-n2-a-to-b"),
        pytest.param(
            ("rrange", "--channel", "gain", "--level", "2", "--direction", "a-to-b",
             "--r-step", "0.02", "--r-max", "1.2", "--out", "-"),
            golden("rrange_gain_eps_csv"),
            id="rrange-gain-eps-csv",
        ),
        pytest.param(("boundary", *BOUNDARY_GOLDENS[0][0]), (0, BOUNDARY_GOLDENS[0][1]), id="boundary-loss-tloo-n2"),
        pytest.param(("boundary", *BOUNDARY_GOLDENS[1][0]), (0, BOUNDARY_GOLDENS[1][1]), id="boundary-gain-gaussian-a-to-b"),
        pytest.param(
            ("boundary", "--channel", "gain", "--r", "0.5", "--criterion", "gaussian",
             "--direction", "b-to-a"),
            (3, "no boundary: gaussian b-to-a margin does not change sign over gain in [1, 6] at r=0.5\n"),
            id="boundary-gain-gaussian-b-to-a",
        ),
        pytest.param(
            ("monogamy", "--r", "0.4", "--eta", "0.55"),
            (0, "r=0.4 eta=0.55\n"
                "Bob -> Alice (gaussian, transmittance 0.55): steerable=true margin=0.0218423369\n"
                "Eve -> Alice (tloo-n2, transmittance 0.45): steerable=true margin=0.0344854266\n"
                "simultaneous steering: true\n"),
            id="monogamy-text",
        ),
        pytest.param(
            ("monogamy", "--r", "0.4", "--eta", "0.55", "--format", "json"),
            golden("monogamy_json"),
            id="monogamy-json",
        ),
        pytest.param(
            ("fock-dump", "--channel", "loss", "--r", "0.5", "--eta", "0.5", "--cutoffs", "3", "3"),
            golden("fock_dump_loss"),
            id="fock-dump-loss",
        ),
        pytest.param(
            ("fock-dump", "--channel", "gain", "--r", "0.3", "--gain", "1.1", "--cutoffs", "3", "3"),
            golden("fock_dump_gain"),
            id="fock-dump-gain",
        ),
        pytest.param(
            ("sweep", "--channel", "gain", "--r-range", "0.2", "0.6", "3",
             "--param-range", "1.0", "1.4", "3", "--format", "json"),
            golden("sweep_gain_3x3_json"),
            id="sweep-gain-3x3-json",
        ),
    ],
)
def test_rrange_output_unchanged(capsys, argv, expected):
    # Every subcommand prints the same bytes as before the CLI was rewritten;
    # a bare string is the stdout of a command that exits 0.
    code, out = (0, expected) if isinstance(expected, str) else expected
    assert run_cli(*argv) == code
    assert capsys.readouterr().out == out


def reference_root(function, guess: float):
    """The 50-digit root of function (of an mpmath number) next to guess."""
    with mpmath.workdps(50):
        return mpmath.findroot(function, (mpmath.mpf(guess) - 1e-9, mpmath.mpf(guess) + 1e-9), solver="secant")


def reference_gain_boundary(r):
    """G*(r) = 1 + tanh(r)^2 at 50 digits."""
    with mpmath.workdps(50):
        return 1 + mpmath.tanh(r) ** 2


@pytest.mark.parametrize("argv, expected", DEFAULT_STEP_RRANGE + STEP_002_RRANGE)
def test_printed_roots_match_their_50_digit_references(argv, expected):
    # Each printed end is the 50-digit crossing of MARGIN_TOL on the blind edge, to the 9 digits
    # printed, or a scan end whose 50-digit margin is past it; eps_max is the 50-digit eps at
    # eps_argmax, a scan point whose neighbours reach less far.
    options = dict(zip(argv[::2], argv[1::2]))
    channel, level, direction = options["--channel"], int(options["--level"]), options.get("--direction", "b-to-a")
    r_step, r_max = float(options.get("--r-step", 1e-3)), float(options.get("--r-max", 1.4))
    printed = dict(line.split("=") for line in expected.splitlines())

    def blind(r):
        edge = 0.5 if channel == "loss" else reference_gain_boundary(r)
        return reference_margin(channel, r, edge, level, direction) - MARGIN_TOL

    for end, scan_end in (("r_low", r_step), ("r_high", r_max)):
        if printed[end] == f"{scan_end:.9g}":
            assert blind(scan_end) > 0
        else:
            assert f"{float(reference_root(blind, float(printed[end]))):.9g}" == printed[end]
    if "eps_max" in printed:
        k = round(float(printed["eps_argmax"]) / r_step)
        eps = []
        for r in (j * r_step for j in (k - 1, k, k + 1)):
            edge = reference_gain_boundary(r)
            root = reference_root(lambda g: reference_margin("gain", r, g, level, A_TO_B), edge + float(printed["eps_max"]))
            eps.append(root - edge)
        assert f"{k * r_step:.9g}" == printed["eps_argmax"] and eps[1] > max(eps[0], eps[2])
        assert f"{float(eps[1]):.9g}" == printed["eps_max"]


def test_printed_boundaries_match_their_50_digit_references():
    (_, loss), (_, gain) = BOUNDARY_GOLDENS
    eta = reference_root(lambda eta: reference_margin("loss", 0.4, eta, 2, B_TO_A), float(loss.split("=")[1]))
    assert f"eta={float(eta):.9g}\n" == loss
    assert f"gain={float(reference_gain_boundary(0.5)):.9g}\n" == gain


def test_monogamy_text(capsys):
    code = run_cli("monogamy", "--r", "0.4", "--eta", "0.55")
    assert code == 0
    out = capsys.readouterr().out
    assert "simultaneous steering: true" in out


def test_monogamy_json(capsys):
    code = run_cli("monogamy", "--r", "0.4", "--eta", "0.55", "--format", "json")
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["simultaneous"] is True
    assert payload["bob_gaussian_b_to_a"]["steerable"] is True
    assert payload["eve_tloo_b_to_a"]["steerable"] is True


def test_monogamy_rejects_eta(capsys):
    assert run_cli("monogamy", "--r", "0.4", "--eta", "1.0") == 2
    assert "got 1.0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "channel, param_range, bad",
    [
        ("loss", ("0.0", "0.6", "3"), "got 0.0"),
        ("loss", ("0.3", "1.2", "3"), "got 1.2"),
        ("gain", ("0.5", "1.2", "3"), "got 0.5"),
    ],
)
def test_sweep_rejects_parameter_outside_channel_domain(capsys, channel, param_range, bad):
    code = run_cli("sweep", "--channel", channel, "--r-range", "0.1", "0.5", "3",
                   "--param-range", *param_range)
    captured = capsys.readouterr()
    assert code == 2
    assert bad in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ("boundary", "--channel", "loss", "--r", "nan"),
        ("boundary", "--channel", "loss", "--r", "inf"),
        ("boundary", "--channel", "gain", "--r", "7.75", "--direction", "a-to-b"),
        ("sweep", "--channel", "loss", "--r-range", "0.1", "1e6", "2", "--param-range", "0.5", "1", "2"),
        ("sweep", "--channel", "loss", "--r-range", "0", "20", "3", "--param-range", "0.5", "1", "2"),
        ("monogamy", "--r", "nan", "--eta", "0.5"),
        ("fock-dump", "--channel", "loss", "--r", "30", "--eta", "0.5"),
    ],
)
def test_squeezing_limit_at_the_edge(capsys, argv):
    code = run_cli(*argv)
    captured = capsys.readouterr()
    assert code == 2
    assert "squeezing parameter must lie in [0, 5]" in captured.err
    assert captured.out == ""


def test_fock_dump_vacuum(capsys):
    code = run_cli("fock-dump", "--r", "0.0", "--cutoffs", "2", "2")
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["cutoffs"] == [2, 2]
    assert len(payload["elements"]) == 1
    assert payload["elements"][0]["idx"] == [0, 0, 0, 0]
    assert payload["elements"][0]["val"] == pytest.approx(1.0)


def test_fock_dump_matches_closed_forms(capsys):
    code = run_cli("fock-dump", "--channel", "loss", "--r", "0.5", "--eta", "0.5",
                   "--cutoffs", "3", "3")
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    for entry in payload["elements"]:
        expected = lossy_tmsv_element(0.5, 0.5, tuple(entry["idx"]))
        assert entry["val"] == pytest.approx(expected, abs=1e-9)


def test_fock_dump_gain_selection_rule(capsys):
    code = run_cli("fock-dump", "--channel", "gain", "--r", "0.3", "--gain", "1.1",
                   "--cutoffs", "3", "3")
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["elements"]
    for entry in payload["elements"]:
        m1, m2, n1, n2 = entry["idx"]
        assert m1 - n1 == m2 - n2


@pytest.mark.parametrize(
    "argv, message",
    [
        pytest.param(("--channel", "gain", "--r", "0.3", "--gain", "1e308"),
                     "gain factor must be finite and lie in [1, 10], got 1e+308", id="gain"),
        pytest.param(("--r", "0.3", "--cutoffs", "8", "3"), "cutoffs above 7 are not supported, got (8, 3)",
                     id="cutoff-above"),
        pytest.param(("--r", "0.3", "--cutoffs", "0", "3"), "cutoffs must be >= 1, got (0, 3)", id="cutoff-zero"),
    ],
)
def test_fock_dump_rejects_gain_above_the_limit(capsys, argv, message):
    code = run_cli("fock-dump", *argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def test_fock_dump_requires_channel_param(capsys):
    with pytest.raises(SystemExit) as excinfo:
        run_cli("fock-dump", "--channel", "loss", "--r", "0.5")
    assert excinfo.value.code == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        pytest.param(("--eta", "0.5"), "--eta does not apply to the none channel", id="none-eta"),
        pytest.param(("--gain", "1.1"), "--gain does not apply to the none channel", id="none-gain"),
        pytest.param(("--channel", "loss", "--eta", "0.5", "--gain", "3"), "--gain does not apply to the loss channel",
                     id="loss-gain"),
        pytest.param(("--channel", "gain", "--gain", "1.1", "--eta", "0.5"), "--eta does not apply to the gain channel",
                     id="gain-eta"),
    ],
)
def test_fock_dump_refuses_another_channels_param(capsys, argv, message):
    # fock-dump used to take the parameter and never read it.  The refusal names the subcommand,
    # with its usage, as argparse's own refusals do.
    with pytest.raises(SystemExit) as excinfo:
        run_cli("fock-dump", "--r", "0.3", *argv)
    captured = capsys.readouterr()
    assert excinfo.value.code == 2
    assert captured.err.startswith("usage: cvsteer fock-dump ")
    assert captured.err.endswith(f"cvsteer fock-dump: error: {message}\n")
    assert captured.out == ""


def test_one_spelling_per_direction(tmp_path):
    # The library, the command line and both sweep formats spell a direction the same way.
    witness = build_witness(fock_density(channel_covariance("gain", 0.3, 1.02), 3, 3), 2, 2, A_TO_B)
    assert {
        evaluate_point("loss", 0.4, 0.45, "tloo-n2", B_TO_A).direction,
        squeezing_range("gain", "tloo-n2", A_TO_B, r_step=0.1, r_max=0.5).direction,
        witness.direction,
    } == set(DIRECTIONS)
    csv_path, json_path = tmp_path / "sweep.csv", tmp_path / "sweep.json"
    assert run_cli("sweep", "--channel", "loss", *SMALL_GRID, "--out", str(csv_path)) == 0
    assert run_cli("sweep", "--channel", "loss", *SMALL_GRID, "--format", "json", "--out", str(json_path)) == 0
    rows = [line.split(",") for line in csv_path.read_text().splitlines()[1:]]
    assert len(rows) == 2 * 2 * 6 and {row[3] for row in rows} == set(DIRECTIONS)
    assert {record["direction"] for record in json.loads(json_path.read_text())} == set(DIRECTIONS)
    (subcommands,) = [action.choices for action in build_parser()._actions if action.dest == "command"]
    choices = {name: action.choices for name, sub in subcommands.items()
               for action in sub._actions if action.dest == "direction"}
    assert sorted(choices) == ["boundary", "rrange", "sweep"]
    assert all(tuple(directions) == DIRECTIONS for directions in choices.values())


def test_invalid_subcommand(capsys):
    with pytest.raises(SystemExit) as excinfo:
        run_cli("explode")
    assert excinfo.value.code == 2


def test_invalid_flag_value(capsys):
    with pytest.raises(SystemExit) as excinfo:
        run_cli("boundary", "--channel", "loss", "--r", "0.4",
                "--criterion", "tloo", "--level", "5")
    assert excinfo.value.code == 2


def test_cli_value_errors_map_to_usage_exit(capsys):
    assert run_cli("boundary", "--channel", "loss", "--r", "-1.0",
                   "--criterion", "gaussian") == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        pytest.param(("sweep", "--channel", "loss", *SMALL_GRID, "--level", "3"),
                     "--level does not apply to a sweep of every criterion", id="sweep-level"),
        pytest.param(("sweep", "--channel", "loss", *SMALL_GRID, "--direction", "a-to-b"),
                     "--direction does not apply to a sweep of every criterion", id="sweep-direction"),
        pytest.param(("sweep", "--channel", "loss", *SMALL_GRID, "--criterion", "gaussian", "--level", "3"),
                     "--level does not apply to the gaussian criterion", id="sweep-gaussian-level"),
        pytest.param(("boundary", "--channel", "loss", "--r", "0.4", "--criterion", "gaussian", "--level", "3"),
                     "--level does not apply to the gaussian criterion", id="boundary-gaussian-level"),
        pytest.param(("boundary", "--channel", "loss", "--r", "0.4", "--level", "2"),
                     "--level does not apply to the gaussian criterion", id="boundary-default-level"),
        pytest.param(("monogamy", "--r", "0.4", "--eta", "0.55", "--format", "csv"), "invalid choice: 'csv'",
                     id="monogamy-csv"),
    ],
)
def test_flags_that_nothing_reads_are_refused(capsys, argv, message):
    # Each of these used to exit 0: the sweep wrote every pair, the Gaussian criterion has no level,
    # and monogamy printed its text under the csv label.  Each refusal names its subcommand.
    with pytest.raises(SystemExit) as excinfo:
        run_cli(*argv)
    captured = capsys.readouterr()
    assert excinfo.value.code == 2
    assert captured.err.startswith(f"usage: cvsteer {argv[0]} ")
    assert f"cvsteer {argv[0]}: error: " in captured.err and message in captured.err
    assert captured.out == ""


def test_level_and_direction_keep_their_defaults_where_read(tmp_path):
    out = tmp_path / "sweep.csv"
    code = run_cli("sweep", "--channel", "loss", *SMALL_GRID, "--criterion", "tloo", "--out", str(out))
    assert code == 0
    assert {tuple(line.split(",")[2:4]) for line in out.read_text().splitlines()[1:]} == {("tloo-n2", B_TO_A)}


# Every subcommand call of the numpy-only check below, with its exit code; --out paths are
# relative to that check's working directory.
NUMPY_ONLY_CALLS = [
    (("sweep", "--channel", "loss", "--r-range", "0.1", "1.0", "3", "--param-range", "0.3", "0.9", "3",
      "--out", "loss.csv"), 0),
    (("sweep", "--channel", "gain", "--r-range", "0.1", "1.0", "3", "--param-range", "1.0", "1.6", "3",
      "--out", "gain.csv"), 0),
    (("sweep", "--channel", "loss", "--r-range", "0.1", "1.0", "3", "--param-range", "0.3", "0.9", "3",
      "--format", "json", "--out", "loss.json"), 0),
    (("rrange", "--channel", "loss", "--r-step", "1e-320"), 2),
    (("rrange", "--channel", "loss", "--level", "2", "--r-step", "0.1", "--r-max", "1.0"), 0),
    (("rrange", "--channel", "gain", "--level", "2", "--direction", "a-to-b", "--r-step", "0.1", "--r-max", "1.0"), 0),
    (("boundary", "--channel", "loss", "--r", "0.4", "--criterion", "tloo"), 0),
    (("monogamy", "--r", "0.4", "--eta", "0.55"), 0),
    (("monogamy", "--r", "0.4", "--eta", "0.55", "--format", "json"), 0),
    (("fock-dump", "--channel", "gain", "--r", "5", "--gain", "10", "--cutoffs", "7", "7",
      "--out", "fock-gain.json"), 0),
    (("fock-dump", "--channel", "loss", "--r", "5", "--eta", "0.05", "--cutoffs", "7", "7",
      "--out", "fock-loss.json"), 0),
    (("fock-dump", "--r", "0.3", "--eta", "0.5"), 2),
]

# Run by a fresh `python -W error`: every demo, every call above, the witness at equal and unequal
# levels and the refusal of an asymmetric and of a complex Fock array; its last line reports them.
NUMPY_ONLY_SCRIPT = """
import json, runpy, sys
import numpy as np
from cvsteer import FockDensity, apply_loss, build_witness, fock_density, tmsv_covariance
from cvsteer.cli import main

def exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code

def refused(elements):
    try:
        FockDensity.from_elements(elements)
    except ValueError:
        return True
    return False

demos, calls = json.loads(sys.argv[1])
for path in demos:
    runpy.run_path(path, run_name="__main__")
codes = [exit_code(argv) for argv in calls]
witnesses = [build_witness(fock_density(apply_loss(tmsv_covariance(0.4), eta, "B"), 3, 3), *levels)
             for eta, levels in ((0.45, (2, 2)), (0.7, (2, 3)))]
asymmetric = np.zeros((2, 2, 2, 2))
asymmetric[0, 1, 1, 0] = 1e-3
complex_hermitian = np.zeros((2, 2, 2, 2), dtype=complex)
complex_hermitian[0, 0, 0, 0] = complex_hermitian[1, 1, 1, 1] = 0.5
complex_hermitian[0, 0, 1, 1], complex_hermitian[1, 1, 0, 0] = 0.5j, -0.5j
print(json.dumps({
    "codes": codes,
    "witnesses_detect": [bool(w.variance_sum < w.bound) for w in witnesses],
    "refused": [refused(asymmetric), refused(complex_hermitian)],
    "oracles_loaded": sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "sympy", "mpmath", "hypothesis")),
}))
"""


def test_package_and_demos_run_on_numpy_alone(tmp_path):
    # numpy is the only runtime dependency; scipy, sympy, mpmath and hypothesis are test oracles.
    # Any import of one, at the top, inside a function or guarded by try, loads it here, where all
    # four are installed. The demos write their files into tmp_path.
    root = Path(__file__).resolve().parents[1]
    demos = sorted(str(path) for path in (root / "demos").glob("*.py"))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))}
    payload = json.dumps([demos, [argv for argv, _ in NUMPY_ONLY_CALLS]])
    result = subprocess.run([sys.executable, "-W", "error", "-c", NUMPY_ONLY_SCRIPT, payload],
                            cwd=tmp_path, env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert demos and (tmp_path / "loss_detection_map.csv").exists()
    assert json.loads(result.stdout.splitlines()[-1]) == {
        "codes": [code for _, code in NUMPY_ONLY_CALLS],
        "witnesses_detect": [True, True],
        "refused": [True, True],
        "oracles_loaded": [],
    }
