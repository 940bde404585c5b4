"""Experiment harness: scenario building, sweeps, statistics, reports."""

import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from relayauction import (
    POWER,
    SNR,
    AuctionParams,
    EquilibriumResult,
    MultiUserSpec,
    TwoUserSweepSpec,
    build_two_user_scenario,
    calibrate_price,
    direct_snr,
    emit_report,
    positive_increase_variance,
    report_from_json,
    report_to_csv,
    report_to_json,
    run_multi_user,
    run_two_user_sweep,
    sample_topologies,
    scenario_from_topology,
    solve_ne,
    vcg_auction,
)

from conftest import BENCH_SYSTEM, payoff


SMALL_MULTI = MultiUserSpec(n_users=4, n_topologies=3, relay_powers=(0.04, 0.1), seed=7)


# ---------------------------------------------------------------------------
# scenario construction


def test_two_user_direct_snr(bench_spec):
    sc = build_two_user_scenario(bench_spec, 0.0)
    assert direct_snr(sc.users[0], sc.system) == pytest.approx(0.625, rel=1e-12)
    assert direct_snr(sc.users[1], sc.system) == pytest.approx(0.625, rel=1e-12)


def test_two_user_gains_at_y25(bench_spec):
    sc = build_two_user_scenario(bench_spec, 25.0)
    u2 = sc.users[1]
    assert u2.gain_sr == pytest.approx(80.0**-4, rel=1e-12)
    assert u2.gain_rd == pytest.approx(120.0**-4, rel=1e-12)


def test_two_user_reflection_swaps_relay_legs(bench_spec):
    # mirroring the relay across the x-axis turns user 1's geometry into
    # user 2's with the source-relay and relay-destination legs exchanged
    for y in (10.0, 25.0, 60.0, 140.0):
        plus = build_two_user_scenario(bench_spec, y)
        minus = build_two_user_scenario(bench_spec, -y)
        u1p, u2m = plus.users[0], minus.users[1]
        assert u1p.gain_sd == pytest.approx(u2m.gain_sd, rel=1e-12)
        assert u1p.gain_sr == pytest.approx(u2m.gain_rd, rel=1e-12)
        assert u1p.gain_rd == pytest.approx(u2m.gain_sr, rel=1e-12)


def test_two_user_scenario_range_checked(bench_spec):
    with pytest.raises(ValueError):
        build_two_user_scenario(bench_spec, 500.0)


def test_topology_sampling_deterministic():
    spec = MultiUserSpec(n_users=5, n_topologies=4, seed=123)
    a = sample_topologies(spec)
    b = sample_topologies(spec)
    assert np.array_equal(a, b)
    assert a.shape == (4, 5, 4)
    assert np.all((a >= -150.0) & (a <= 150.0))
    sc = scenario_from_topology(spec, a[0], 0.1)
    assert sc.n_users == 5
    assert sc.relay == (0.0, 0.0)


# ---------------------------------------------------------------------------
# statistics


def test_positive_variance_identical_entries():
    assert positive_increase_variance([1.0, 1.0, 0.0]) == 0.0


def test_positive_variance_degenerate():
    assert positive_increase_variance([0.0, 0.0, 0.0]) == 0.0
    assert positive_increase_variance([2.5, 0.0]) == 0.0
    assert positive_increase_variance([]) == 0.0


def test_positive_variance_hand_value():
    # positives (0.5, 1.5): mean 1.0, population variance 0.25
    assert positive_increase_variance([0.5, 1.5, 0.0]) == pytest.approx(0.25, rel=1e-12)


@given(st.lists(st.floats(-1e6, 1e6) | st.floats(0.0, 10.0) | st.just(0.0), max_size=40))
def test_positive_variance_is_numpys_var_to_the_bit(values):
    # the variance is written as ufunc reductions, which must round as np.var does
    pos = np.array(values, dtype=float)
    pos = pos[pos > 0.0]
    expected = float(np.var(pos)) if pos.size >= 2 else 0.0
    assert positive_increase_variance(values).hex() == expected.hex()
    assert positive_increase_variance(np.array(values, dtype=float)).hex() == expected.hex()


def test_positive_variance_takes_arrays_lists_and_generators_alike():
    values = np.random.default_rng(3).uniform(-0.5, 2.0, 20)
    want = float(values[values > 0.0].var())
    assert want > 0.0
    assert positive_increase_variance(values) == want
    assert positive_increase_variance(values.tolist()) == want
    assert positive_increase_variance(float(v) for v in values) == want


# ---------------------------------------------------------------------------
# sweeps (small configurations for speed)


@pytest.fixture(scope="module")
def small_sweep_report():
    return run_two_user_sweep(TwoUserSweepSpec(relay_y_step=50.0))


@pytest.fixture(scope="module")
def small_multi_report():
    return run_multi_user(SMALL_MULTI)


def test_sweep_row_count(small_sweep_report):
    assert len(small_sweep_report.rows) == 9  # -200..200 step 50


def test_sweep_takes_whole_steps_up_to_relay_y_max():
    # round(400 / 70) = 6 steps reached 220 m, past the range; whole steps stop at 150 m
    assert TwoUserSweepSpec(relay_y_step=70.0).relay_ys().tolist() == [-200.0, -130.0, -60.0, 10.0, 80.0, 150.0]
    assert TwoUserSweepSpec(relay_y_step=30.0).relay_ys()[-1] == 190.0
    # a step that divides the range keeps relay_y_max, also where the quotient rounds below a
    # whole number (0.3 / 0.1 = 2.9999999999999996) or the last step rounds past it
    assert np.array_equal(TwoUserSweepSpec().relay_ys(), -200.0 + 5.0 * np.arange(81))
    assert TwoUserSweepSpec(relay_y_min=0.0, relay_y_max=0.3, relay_y_step=0.1).relay_ys().tolist() == [
        0.0, 0.1, 0.2, 0.3]
    for step in (70.0, 30.0, 0.1, 0.7, 400.0 / 3.0):
        spec = TwoUserSweepSpec(relay_y_step=step)
        ys = spec.relay_ys()
        assert ys[0] == spec.relay_y_min and ys[-1] <= spec.relay_y_max < ys[-1] + step


def test_sweep_columns_stable(small_sweep_report):
    assert small_sweep_report.columns[0] == "relay_y_m"
    for row in small_sweep_report.rows:
        assert tuple(row.keys()) == small_sweep_report.columns


def test_sweep_rates_nonnegative(small_sweep_report):
    for row in small_sweep_report.rows:
        for key, val in row.items():
            if key.endswith("bits_per_hz"):
                assert val >= 0.0


def test_sweep_utilization_below_one(small_sweep_report):
    for row in small_sweep_report.rows:
        assert row["snr_utilization"] < 1.0
        assert row["power_utilization"] < 1.0


def test_sweep_rows_are_equilibria(small_sweep_report, bench_spec):
    # reported auction rows withstand a unilateral-deviation scan
    from relayauction import AuctionParams, EquilibriumResult, solve_ne

    for row in small_sweep_report.rows[2:7:2]:
        sc = build_two_user_scenario(bench_spec, row["relay_y_m"])
        for kind in ("snr", "power"):
            eq = solve_ne(sc, AuctionParams(kind, row[f"{kind}_price"]))
            assert isinstance(eq, EquilibriumResult)
            assert eq.total_rate_increase_bps / 1e6 == pytest.approx(
                row[f"{kind}_total_bits_per_hz"], abs=1e-9
            )
            params = AuctionParams(kind, row[f"{kind}_price"])
            for i, u in enumerate(sc.users):
                others = float(eq.bids.sum() - eq.bids[i])
                u_star = payoff(u, float(eq.bids[i]), others, params, 0.1, sc.system)
                grid = np.linspace(0.0, 10 * float(eq.bids[i]) + 1.0, 200)
                best = max(payoff(u, float(b), others, params, 0.1, sc.system) for b in grid)
                assert best <= u_star + 1e-6 * max(abs(u_star), 1e-9 * 1e6)


def test_multi_report_shape(small_multi_report):
    assert len(small_multi_report.rows) == 2
    assert small_multi_report.meta["rng"].startswith("numpy.random")
    for row in small_multi_report.rows:
        assert row["power_mean_total_bits_per_hz"] >= 0.0
        assert row["snr_mean_total_bits_per_hz"] >= 0.0
        # population of 4: the welfare benchmark stays out of the report
        assert "efficient_mean_total_bits_per_hz" not in row


def test_reports_record_their_settings():
    # names and inputs only, so that a field a spec gains reaches the meta only when asked for
    shared = {"source_power_w": 0.01, "noise_w": 1e-11, "bandwidth_hz": 1e6, "pathloss_exponent": 4.0,
              "reserve_bid": 1.0, "target_utilization": 0.99}
    sweep = run_two_user_sweep(TwoUserSweepSpec(relay_y_step=100.0))
    assert sweep.meta == {"experiment": "two-user-sweep", "relay_x_m": 80.0, "relay_y_step_m": 100.0,
                          "relay_budget_w": 0.1, "vcg_delta": 0.0, **shared}
    study = run_multi_user(MultiUserSpec(n_users=3, n_topologies=1, relay_powers=(0.1,), seed=4))
    assert study.meta == {"experiment": "multi-user", "n_users": 3, "n_topologies": 1, "seed": 4,
                          "rng": "numpy.random.Generator(PCG64)", "field_m": [-150.0, 150.0], "relay_m": [0.0, 0.0],
                          **shared}


def test_multi_report_small_population_includes_benchmark():
    for n_users in (1, 2):  # one user has no second user's rate to read
        spec = MultiUserSpec(n_users=n_users, n_topologies=2, relay_powers=(0.1,), seed=5)
        report = run_multi_user(spec)
        row = report.rows[0]
        assert "efficient_mean_total_bits_per_hz" in row
        assert row["efficient_mean_total_bits_per_hz"] >= row["power_mean_total_bits_per_hz"] - 1e-12
        assert row["efficient_mean_total_bits_per_hz"] >= row["snr_mean_total_bits_per_hz"] - 1e-12


# ---------------------------------------------------------------------------
# the rows recomputed one scenario at a time through the public API, as the
# benchmark's per-unit drive does (perfbench/workloads.py, selfcheck), on its specs


def _auction_row(scenario, kind, spec) -> dict:
    search = calibrate_price(scenario, kind, target_utilization=spec.target_utilization)
    eq = solve_ne(scenario, AuctionParams(kind, search.price, spec.reserve_bid))
    assert isinstance(eq, EquilibriumResult)
    per_user = eq.rate_increase_bps / spec.bandwidth_hz
    return {
        f"{kind}_price": search.price,
        f"{kind}_total_bits_per_hz": float(per_user.sum()),
        f"{kind}_user1_bits_per_hz": float(per_user[0]),
        f"{kind}_user2_bits_per_hz": float(per_user[1]),
        f"{kind}_utilization": eq.utilization,
        f"{kind}_calibrated": float(search.feasible),
        f"{kind}_positive_variance": positive_increase_variance(per_user),
    }


def test_sweep_rows_equal_each_position_solved_alone():
    spec = TwoUserSweepSpec(relay_y_min=-10.0, relay_y_max=10.0)
    report = run_two_user_sweep(spec)
    assert [ref["relay_y_m"] for ref in report.rows] == [-10.0, -5.0, 0.0, 5.0, 10.0]
    for ref in report.rows:
        scenario = build_two_user_scenario(spec, ref["relay_y_m"])
        vcg = vcg_auction(scenario, delta=spec.vcg_delta)
        gains = vcg.allocation.per_user_rate_increase_bps / spec.bandwidth_hz
        row = {
            "relay_y_m": ref["relay_y_m"],
            "vcg_total_bits_per_hz": float(gains.sum()),
            "vcg_user1_bits_per_hz": float(gains[0]),
            "vcg_user2_bits_per_hz": float(gains[1]),
            "vcg_utilization": float(vcg.allocation.powers.sum() / spec.relay_budget_w),
        }
        for kind in (POWER, SNR):
            row.update(_auction_row(scenario, kind, spec))
        assert list(row.items()) == list(ref.items())


@pytest.mark.parametrize("seed", [0, 1])
def test_study_rows_are_column_means_of_each_topology_solved_alone(seed):
    spec = MultiUserSpec(n_users=4, n_topologies=2, seed=seed)
    report = run_multi_user(spec)
    assert [ref["relay_power_w"] for ref in report.rows] == list(spec.relay_powers)
    means = (
        ("mean_total_bits_per_hz", "total_bits_per_hz"),
        ("mean_positive_variance", "positive_variance"),
        ("mean_utilization", "utilization"),
        ("mean_price", "price"),
        ("calibrated_fraction", "calibrated"),
    )
    for ref in report.rows:
        units = []
        for nodes in sample_topologies(spec):
            scenario = scenario_from_topology(spec, nodes, ref["relay_power_w"])
            units.append({k: v for kind in (POWER, SNR) for k, v in _auction_row(scenario, kind, spec).items()})
        row = {"relay_power_w": ref["relay_power_w"]}
        for kind in (POWER, SNR):
            for mean, col in means:
                row[f"{kind}_{mean}"] = float(np.mean([u[f"{kind}_{col}"] for u in units]))
        assert list(row.items()) == list(ref.items())


# ---------------------------------------------------------------------------
# report output


def test_emit_deterministic_bytes(tmp_path, small_multi_report):
    again = run_multi_user(SMALL_MULTI)
    p1 = emit_report(small_multi_report, tmp_path / "a")
    p2 = emit_report(again, tmp_path / "b")
    for a, b in zip(p1, p2):
        assert a.read_bytes() == b.read_bytes()


def test_csv_single_header_and_row_count(small_sweep_report):
    text = report_to_csv(small_sweep_report)
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(small_sweep_report.columns)
    assert len(lines) == 1 + len(small_sweep_report.rows)


def test_csv_twelve_significant_digits(small_sweep_report):
    text = report_to_csv(small_sweep_report)
    cell = text.strip().split("\n")[1].split(",")[1]
    assert float(cell) == pytest.approx(small_sweep_report.rows[0][small_sweep_report.columns[1]], rel=1e-11)


def test_json_roundtrip(small_multi_report):
    text = report_to_json(small_multi_report)
    back = report_from_json(text)
    assert back.columns == small_multi_report.columns
    assert back.meta == small_multi_report.meta
    for a, b in zip(back.rows, small_multi_report.rows):
        assert a == b


def test_json_is_valid_and_sorted(small_multi_report):
    doc = json.loads(report_to_json(small_multi_report))
    assert list(doc.keys()) == sorted(doc.keys())


def test_emit_rejects_empty(tmp_path):
    from relayauction import Report

    with pytest.raises(ValueError):
        emit_report(Report("x", ("a",), (), {}), tmp_path)


def test_emit_unknown_format(tmp_path, small_multi_report):
    with pytest.raises(ValueError):
        emit_report(small_multi_report, tmp_path, formats=("xml",))
