"""Command-line entry points, run in-process against temp scenario files."""

import dataclasses
import json
import math

import pytest

from relayauction import (
    NetworkScenario,
    PriceSearchResult,
    UserLink,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
    threshold_price,
)
from relayauction.cli import main

from conftest import BENCH_SYSTEM, make_random_scenario
import numpy as np


# the keys each command prints: a field that a result gains is not printed unasked
EQUILIBRIUM_KEYS = {"kind", "price", "reserve_bid", "bids", "powers_w", "delta_snr", "rate_increase_bps", "payments",
                    "payoffs", "total_rate_increase_bps", "utilization"}
ORACLE_KEYS = {"oracle", "delta", "powers_w", "per_user_rate_increase_bps", "total_rate_increase_bps",
               "marginal_utility", "nodes", "certified_gap"}


@pytest.fixture()
def scenario_file(tmp_path, scenario_y0):
    path = tmp_path / "bench.json"
    save_scenario(scenario_y0, path)
    return path


def test_ne_solve_fixed_price(scenario_file, capsys):
    rc = main(["ne-solve", "--scenario", str(scenario_file), "--auction", "snr", "--price", "130000"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == EQUILIBRIUM_KEYS
    assert doc["kind"] == "snr"
    assert len(doc["bids"]) == 2
    assert doc["utilization"] < 1.0


def test_ne_solve_calibrated(scenario_file, scenario_y0, capsys):
    rc = main(["ne-solve", "--scenario", str(scenario_file), "--auction", "power", "--calibrate", "0.99"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == EQUILIBRIUM_KEYS | {"calibration"}
    calibration = doc["calibration"]
    # the target and the search result's fields, nothing stale
    assert set(calibration) == {"target"} | {f.name for f in dataclasses.fields(PriceSearchResult)}
    assert calibration["target"] == 0.99 and calibration["feasible"] is True
    assert doc["utilization"] == pytest.approx(0.99, abs=1e-3)
    # the price is the lower end of the target bracket, the float below its upper end, where the
    # target is met below one
    p_over, p_under = calibration["bracket"]
    assert doc["price"] == p_over and p_under == math.nextafter(p_over, math.inf)
    assert 0.99 <= calibration["utilization"] < 1.0
    assert doc["utilization"] == pytest.approx(calibration["utilization"], rel=0.0, abs=1e-12)
    assert 1 <= calibration["evaluations"] <= 10
    # a feasible price lies above the existence threshold
    assert doc["price"] >= threshold_price(scenario_y0, "power")


def test_ne_solve_reports_no_equilibrium(scenario_file, capsys):
    rc = main(["ne-solve", "--scenario", str(scenario_file), "--auction", "snr", "--price", "1.0"])
    assert rc == 1
    doc = json.loads(capsys.readouterr().out)
    assert "no_equilibrium" in doc


def test_oracle_commands(scenario_file, capsys):
    for which in ("efficient", "fair", "vcg"):
        rc = main(["oracle", which, "--scenario", str(scenario_file)])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == ORACLE_KEYS | ({"payments"} if which == "vcg" else set())
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


def test_two_user_sweep_step_that_does_not_divide_the_range(tmp_path, capsys):
    # 400 m in steps of 70 m: whole steps end at 150 m, where rounding the step count reached 220 m
    rc = main(["two-user-sweep", "--step", "70", "--out", str(tmp_path), "--format", "json"])
    assert rc == 0
    capsys.readouterr()
    doc = json.loads((tmp_path / "two_user_sweep.json").read_text())
    assert [row["relay_y_m"] for row in doc["rows"]] == [-200.0, -130.0, -60.0, 10.0, 80.0, 150.0]


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


@pytest.mark.parametrize(
    "argv, message",
    [
        (["two-user-sweep", "--step", "0"], "finite step > 0"),  # divided by the step
        (["two-user-sweep", "--step", "-5"], "finite step > 0"),  # no positions at all
        (["multi-user", "--users", "3", "--topologies", "0"], "at least one topology"),  # nan means
    ],
)
def test_experiment_settings_without_rows_are_rejected(tmp_path, capsys, argv, message):
    out = tmp_path / "reports"
    _bad_input(capsys, [*argv, "--out", str(out)], message)
    assert not out.exists()


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


def test_bad_scenario_integer_past_a_float(tmp_path, scenario_y0, capsys):
    # a 400-digit JSON integer, which float() cannot convert, is named in one short line, not a traceback
    doc = scenario_to_dict(scenario_y0)
    doc["relay_budget_w"] = 10**400
    path = _write_doc(tmp_path, doc)
    argv = ["threshold-price", "--scenario", str(path), "--auction", "snr"]
    _bad_input(capsys, argv, "relay_budget_w must be a number, got 1000")


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
        # JSON true and strings are not numbers
        (lambda d: d.update(relay_budget_w=True), "relay_budget_w must be a number, got True"),
        (lambda d: d["system"].update(pathloss_exponent=True), "system.pathloss_exponent must be a number, got True"),
        (lambda d: d["users"][0].update(gain_sd="6.25e-10"), "users[0].gain_sd must be a number, got '6.25e-10'"),
        (lambda d: d.update(relay="12"), "relay must be a pair of numbers, got '12'"),
        # nor is an integer past a float's range, which float() cannot convert
        (lambda d: d.update(relay_budget_w=10**400), "relay_budget_w must be a number, got 1000000000"),
        (lambda d: d["users"][0].update(source=[0.0, -(10**400)]), "users[0].source must be a pair of numbers"),
    ],
)
def test_scenario_from_dict_names_the_bad_field(scenario_y0, edit, message):
    doc = scenario_to_dict(scenario_y0)
    edit(doc)
    with pytest.raises(ValueError) as err:
        scenario_from_dict(doc)
    assert message in str(err.value)
