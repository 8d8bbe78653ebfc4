import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import lossy_tmsv_element
from cvsteer.cli import main

# Sweep CSVs written by the per-point engine that preceded batched evaluation
# (commit 9d6e174); the batched engine must reproduce them byte for byte.
DATA = Path(__file__).parent / "data"


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
        (("0.1", "0.5", "inf"), ("0.3", "0.6", "3"), "cannot convert float infinity to integer"),
        (("0.1", "0.5", "1000"), ("0.3", "0.6", "1000"), "at most 250000"),
        (("0.1", "0.5", "nan"), ("0.3", "0.6", "3"), "cannot convert float NaN to integer"),
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


def test_boundary_writes_to_out(tmp_path, capsys):
    out = tmp_path / "boundary.txt"
    code = run_cli("boundary", "--channel", "loss", "--r", "0.4", "--out", str(out))
    assert code == 0
    assert out.read_text() == "eta=0.500000001\n"
    assert capsys.readouterr().out == ""


def test_boundary_tloo(capsys):
    code = run_cli("boundary", "--channel", "loss", "--r", "0.4",
                   "--criterion", "tloo", "--level", "2", "--direction", "b-to-a")
    assert code == 0
    eta = float(capsys.readouterr().out.strip().split("=")[1])
    assert eta < 0.5


def test_rrange_requires_tloo(capsys):
    code = run_cli("rrange", "--channel", "loss", "--criterion", "gaussian")
    assert code == 2
    assert "'gaussian'" in capsys.readouterr().err


@pytest.mark.parametrize("channel, direction", [("loss", "a-to-b"), ("gain", "b-to-a")])
def test_rrange_without_blind_region_exits_3(capsys, channel, direction):
    code = run_cli("rrange", "--channel", channel, "--level", "2", "--direction", direction,
                   "--r-step", "0.05", "--r-max", "1.2")
    assert code == 3
    out = capsys.readouterr().out
    assert out == f"no Gaussian-blind region for {channel} {direction}\n"


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
    ],
)
def test_rrange_rejects_bad_scan_at_the_edge(capsys, flags, bad):
    code = run_cli("rrange", "--channel", "loss", "--level", "2", *flags)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == f"error: {bad}\n"
    assert captured.out == ""


def test_rrange_loss(capsys):
    code = run_cli("rrange", "--channel", "loss", "--criterion", "tloo",
                   "--level", "2", "--direction", "b-to-a",
                   "--r-step", "0.02", "--r-max", "1.2")
    assert code == 0
    out = capsys.readouterr().out
    values = dict(line.split("=") for line in out.strip().splitlines())
    assert float(values["r_high"]) == pytest.approx(0.869, abs=0.015)


def test_rrange_stops_at_r_max(capsys):
    # 5 / 0.3 rounds to 17 points, the last at r = 5.1, outside the squeezing domain.
    code = run_cli("rrange", "--channel", "loss", "--level", "2", "--r-step", "0.3", "--r-max", "5")
    assert code == 0
    assert capsys.readouterr().out == "r_low=0.3\nr_high=0.868989372\n"


def golden(name: str, code: int = 0):
    """Exit code and stdout of a subcommand, captured at the commit before the
    CLI was reduced to a thin edge over the library tables."""
    return code, (DATA / "cli" / f"{name}.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "argv, expected",
    [
        (
            ("rrange", "--channel", "loss", "--level", "3", "--direction", "b-to-a",
             "--r-step", "0.02", "--r-max", "1.2"),
            "r_low=0.363761597\nr_high=0.986912231\n",
        ),
        (
            ("rrange", "--channel", "gain", "--level", "2", "--direction", "a-to-b",
             "--r-step", "0.02", "--r-max", "1.2"),
            "r_low=0.02\nr_high=0.648381958\neps_max=0.0508789048\neps_argmax=0.4\n",
        ),
        pytest.param(
            ("rrange", "--channel", "gain", "--level", "2", "--direction", "a-to-b",
             "--r-step", "0.02", "--r-max", "1.2", "--out", "-"),
            golden("rrange_gain_eps_csv"),
            id="rrange-gain-eps-csv",
        ),
        pytest.param(
            ("boundary", "--channel", "loss", "--r", "0.4", "--criterion", "tloo", "--level", "2",
             "--direction", "b-to-a"),
            (0, "eta=0.399438244\n"),
            id="boundary-loss-tloo-n2",
        ),
        pytest.param(
            ("boundary", "--channel", "gain", "--r", "0.5", "--criterion", "gaussian",
             "--direction", "a-to-b"),
            (0, "gain=1.21355228\n"),
            id="boundary-gain-gaussian-a-to-b",
        ),
        pytest.param(
            ("boundary", "--channel", "gain", "--r", "0.5", "--criterion", "gaussian",
             "--direction", "b-to-a"),
            (3, "no boundary: gaussian b-to-a margin does not change sign over the physical "
                "gain range at r=0.5\n"),
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


def test_fock_dump_rejects_gain_above_the_limit(capsys):
    code = run_cli("fock-dump", "--channel", "gain", "--r", "0.3", "--gain", "1e308")
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: gain factor must be finite and lie in [1, 10], got 1e+308\n"
    assert captured.out == ""


def test_fock_dump_requires_channel_param(capsys):
    with pytest.raises(SystemExit) as excinfo:
        run_cli("fock-dump", "--channel", "loss", "--r", "0.5")
    assert excinfo.value.code == 2


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


def test_cli_runs_without_scipy():
    # numpy is the only runtime dependency: importing the command line must not load scipy.
    code = "import sys, cvsteer.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert result.stdout == "[]\n"
