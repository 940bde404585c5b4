"""Command-line entry points, run in-process against temp scenario files."""

import json

import pytest

from relayauction import NetworkScenario, UserLink, save_scenario, scenario_from_dict, scenario_to_dict
from relayauction.cli import main

from conftest import BENCH_SYSTEM, make_random_scenario
import numpy as np


@pytest.fixture()
def scenario_file(tmp_path, scenario_y0):
    path = tmp_path / "bench.json"
    save_scenario(scenario_y0, path)
    return path


def test_ne_solve_fixed_price(scenario_file, capsys):
    rc = main(["ne-solve", "--scenario", str(scenario_file), "--auction", "snr", "--price", "130000"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "snr"
    assert len(doc["bids"]) == 2
    assert doc["utilization"] < 1.0


def test_ne_solve_calibrated(scenario_file, capsys):
    rc = main(["ne-solve", "--scenario", str(scenario_file), "--auction", "power", "--calibrate", "0.99"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["calibration"]["feasible"] is True
    assert doc["utilization"] == pytest.approx(0.99, abs=1e-3)
    # the price is the lower end of the last bracket, at most 1e-9 from its upper end
    p_over, p_under = doc["calibration"]["bracket"]
    assert doc["price"] == p_over < p_under <= p_over * (1.0 + 1e-9)
    assert 1 <= doc["calibration"]["evaluations"] <= 10
    # a feasible price never lies below the threshold bracket's upper end
    p_none, p_some = doc["calibration"]["threshold_bracket"]
    assert p_none < p_some <= doc["price"]


def test_ne_solve_reports_no_equilibrium(scenario_file, capsys):
    rc = main(["ne-solve", "--scenario", str(scenario_file), "--auction", "snr", "--price", "1.0"])
    assert rc == 1
    doc = json.loads(capsys.readouterr().out)
    assert "no_equilibrium" in doc


def test_oracle_commands(scenario_file, capsys):
    for which in ("efficient", "fair", "vcg"):
        rc = main(["oracle", which, "--scenario", str(scenario_file), "--grid", "256"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["oracle"] == which
        assert len(doc["powers_w"]) == 2
        assert doc["nodes"] >= 1 and 0.0 <= doc["certified_gap"] <= 1e-12
        if which == "fair":
            assert (doc["nodes"], doc["certified_gap"]) == (1, 0.0)
        if which == "vcg":
            assert all(p >= 0.0 for p in doc["payments"])


def test_threshold_price_command(scenario_file, capsys):
    rc = main(["threshold-price", "--scenario", str(scenario_file), "--auction", "snr"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["threshold_price"] > 0.0


def test_two_user_sweep_command(tmp_path, capsys):
    rc = main(["two-user-sweep", "--step", "100", "--out", str(tmp_path), "--format", "csv"])
    assert rc == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 1
    csv_path = tmp_path / "two_user_sweep.csv"
    assert csv_path.exists()
    assert len(csv_path.read_text().strip().splitlines()) == 6  # header + 5 rows


def test_multi_user_command(tmp_path, capsys):
    rc = main(
        [
            "multi-user",
            "--users", "3",
            "--topologies", "2",
            "--power", "0.1",
            "--seed", "1",
            "--out", str(tmp_path),
        ]
    )
    assert rc == 0
    assert (tmp_path / "multi_user.csv").exists()
    assert (tmp_path / "multi_user.json").exists()
    doc = json.loads((tmp_path / "multi_user.json").read_text())
    assert doc["meta"]["n_users"] == 3
    assert len(doc["rows"]) == 1


# ---------------------------------------------------------------------------
# bad input: one line on stderr, exit code 2


def _bad_input(capsys, argv, *expected):
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("relay-auction: error: ")
    for text in expected:
        assert text in lines[0]


def _write_doc(tmp_path, doc):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return path


def test_bad_scenario_overflowing_gain(tmp_path, scenario_y0, capsys):
    doc = scenario_to_dict(scenario_y0)
    doc["users"][0]["gain_sd"] = 1e300
    path = _write_doc(tmp_path, doc)
    argv = ["threshold-price", "--scenario", str(path), "--auction", "power"]
    _bad_input(capsys, argv, "user 0", "gain_sd")


def test_bad_scenario_missing_field(tmp_path, scenario_y0, capsys):
    doc = scenario_to_dict(scenario_y0)
    del doc["system"]["pathloss_exponent"]
    path = _write_doc(tmp_path, doc)
    argv = ["threshold-price", "--scenario", str(path), "--auction", "snr"]
    _bad_input(capsys, argv, "system.pathloss_exponent is missing")


def test_bad_scenario_broken_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"system": {"bandwidth_hz": 1e6,')
    argv = ["threshold-price", "--scenario", str(path), "--auction", "snr"]
    _bad_input(capsys, argv, "line 1")


def test_bad_scenario_missing_file(tmp_path, capsys):
    path = tmp_path / "absent.json"
    argv = ["ne-solve", "--scenario", str(path), "--auction", "snr", "--price", "1e5"]
    _bad_input(capsys, argv, str(path), "No such file")


def test_threshold_price_of_scenario_nobody_bids_in(tmp_path, capsys):
    users = tuple(UserLink(i, 0.01, 6.25e-10, 1e-12, 1e-12) for i in range(2))
    path = tmp_path / "useless.json"
    save_scenario(NetworkScenario(users, 0.1, BENCH_SYSTEM), path)
    argv = ["threshold-price", "--scenario", str(path), "--auction", "snr"]
    _bad_input(capsys, argv, "not snr-regular")


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: d["users"][1].pop("gain_sr"), "users[1].gain_sr is missing"),
        (lambda d: d["users"][0].update(gain_rd="near"), "users[0].gain_rd must be a number"),
        (lambda d: d["users"][1].update(source=[1.0]), "users[1].source must be a pair of numbers"),
        (lambda d: d.pop("relay_budget_w"), "relay_budget_w is missing"),
        (lambda d: d.update(system=[]), "system must be a JSON object"),
    ],
)
def test_scenario_from_dict_names_the_bad_field(scenario_y0, edit, message):
    doc = scenario_to_dict(scenario_y0)
    edit(doc)
    with pytest.raises(ValueError) as err:
        scenario_from_dict(doc)
    assert message in str(err.value)
