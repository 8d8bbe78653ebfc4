import json
from pathlib import Path

import pytest

from cvsteer import lossy_tmsv_element
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


def test_boundary_tloo(capsys):
    code = run_cli("boundary", "--channel", "loss", "--r", "0.4",
                   "--criterion", "tloo", "--level", "2", "--direction", "b-to-a")
    assert code == 0
    eta = float(capsys.readouterr().out.strip().split("=")[1])
    assert eta < 0.5


def test_rrange_requires_tloo(capsys):
    code = run_cli("rrange", "--channel", "loss", "--criterion", "gaussian")
    assert code == 2


def test_rrange_loss(capsys):
    code = run_cli("rrange", "--channel", "loss", "--criterion", "tloo",
                   "--level", "2", "--direction", "b-to-a",
                   "--r-step", "0.02", "--r-max", "1.2")
    assert code == 0
    out = capsys.readouterr().out
    values = dict(line.split("=") for line in out.strip().splitlines())
    assert float(values["r_high"]) == pytest.approx(0.869, abs=0.015)


@pytest.mark.parametrize(
    "argv, expected",
    [
        (
            ("--channel", "loss", "--level", "3", "--direction", "b-to-a"),
            "r_low=0.363761597\nr_high=0.986912231\n",
        ),
        (
            ("--channel", "gain", "--level", "2", "--direction", "a-to-b"),
            "r_low=0.02\nr_high=0.648381958\neps_max=0.0508789048\neps_argmax=0.4\n",
        ),
    ],
)
def test_rrange_output_unchanged(capsys, argv, expected):
    # Printed by the per-point scan that preceded the batched one.
    code = run_cli("rrange", *argv, "--r-step", "0.02", "--r-max", "1.2")
    assert code == 0
    assert capsys.readouterr().out == expected


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
