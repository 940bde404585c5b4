"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
The heavyweight experiments (full two-user sweep, 20-user x 100-topology
study) run once as session fixtures and are shared across criteria.
"""

import math
import time

import numpy as np
import pytest

from relayauction import (
    AuctionParams,
    EquilibriumResult,
    MultiUserSpec,
    NetworkScenario,
    NoEquilibrium,
    SystemParams,
    UserLink,
    allocate,
    build_two_user_scenario,
    calibrate_price,
    direct_snr,
    efficient_allocation,
    estimate_geometric_rate,
    fair_allocation,
    iterate_best_response,
    rate_increase,
    relayed_snr,
    relayed_snr_limit,
    run_multi_user,
    sample_topologies,
    scenario_from_topology,
    solve_ne,
    threshold_price,
    update_matrix,
    vcg_auction,
)
from relayauction.auction import SNR, _UserArrays

from conftest import (
    BENCH_SYSTEM,
    make_random_scenario,
    make_snr_regular_scenarios,
    payoff,
    snr_equal_level_prediction,
)

BUDGET = 0.1


def _verdict(num: int, name: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'} — {detail}")
    return ok


@pytest.fixture(scope="session")
def multi_user_report():
    t0 = time.time()
    report = run_multi_user(MultiUserSpec())
    return report, time.time() - t0


def test_criterion_1_two_user_efficiency_ratio(two_user_report):
    report, elapsed = two_user_report
    vcg = np.array([r["vcg_total_bits_per_hz"] for r in report.rows])
    power = np.array([r["power_total_bits_per_hz"] for r in report.rows])
    mask = vcg > 0.0
    ratio = float(np.mean(power[mask] / vcg[mask]))
    ok = ratio >= 0.90 and elapsed < 300.0
    assert _verdict(
        1,
        "two-user efficiency ratio",
        ok,
        f"mean power/VCG = {ratio:.4f} over {int(mask.sum())} positions, sweep took {elapsed:.0f}s",
    )


def test_criterion_2_peak_individual_increases(two_user_report):
    report, _ = two_user_report
    ys = np.array([r["relay_y_m"] for r in report.rows])
    p1 = np.array([r["power_user1_bits_per_hz"] for r in report.rows])
    p2 = np.array([r["power_user2_bits_per_hz"] for r in report.rows])
    k1, k2 = int(np.argmax(p1)), int(np.argmax(p2))
    ok = (
        abs(p2[k2] - 1.35) <= 0.15
        and abs(ys[k2] - 25.0) <= 10.0
        and abs(p1[k1] - 0.56) <= 0.10
        and abs(ys[k1] - (-25.0)) <= 10.0
    )
    assert _verdict(
        2,
        "peak individual increases",
        ok,
        f"user2 peak {p2[k2]:.3f} b/s/Hz at y={ys[k2]:.0f} m; user1 peak {p1[k1]:.3f} at y={ys[k1]:.0f} m",
    )


def test_criterion_3_snr_fairness_window(two_user_report):
    report, _ = two_user_report
    ys = np.array([r["relay_y_m"] for r in report.rows])
    s1 = np.array([r["snr_user1_bits_per_hz"] for r in report.rows])
    s2 = np.array([r["snr_user2_bits_per_hz"] for r in report.rows])
    window = (ys >= -50.0) & (ys <= 0.0)
    both_positive = bool(np.all((s1[window] > 0.0) & (s2[window] > 0.0)))
    rel = np.abs(s1[window] - s2[window]) / np.maximum(np.maximum(s1[window], s2[window]), 1e-300)
    equal_enough = bool(np.all(rel <= 0.01))
    outside = (ys < -70.0) | (ys > 20.0)
    someone_out = bool(np.all(np.minimum(s1[outside], s2[outside]) == 0.0))
    ok = both_positive and equal_enough and someone_out
    assert _verdict(
        3,
        "SNR-auction fairness window",
        ok,
        f"window both-positive={both_positive}, max rel gap={rel.max():.2e}, zero outside=[{someone_out}]",
    )


def test_criterion_4_closed_form_iteration_equivalence():
    scenarios = make_snr_regular_scenarios(seed=42, count=50)
    rng = np.random.default_rng(4242)
    worst_iter = 0.0
    worst_start = 0.0
    for sc in scenarios:
        params = AuctionParams("snr", threshold_price(sc, "snr") * 1.05)
        eq = solve_ne(sc, params)
        assert isinstance(eq, EquilibriumResult)
        trace = iterate_best_response(sc, params, np.full(sc.n_users, 1.0), tol=1e-13)
        assert trace.converged
        worst_iter = max(worst_iter, float(np.max(np.abs(trace.final_bids - eq.bids))))
    sc = scenarios[0]
    params = AuctionParams("snr", threshold_price(sc, "snr") * 1.05)
    eq = solve_ne(sc, params)
    for _ in range(20):
        b0 = rng.uniform(0.01, 10.0, sc.n_users)
        trace = iterate_best_response(sc, params, b0, tol=1e-13)
        assert trace.converged
        worst_start = max(worst_start, float(np.max(np.abs(trace.final_bids - eq.bids))))
    ok = worst_iter <= 1e-8 and worst_start <= 1e-6
    assert _verdict(
        4,
        "closed form vs iteration",
        ok,
        f"max |closed - iterated| = {worst_iter:.2e} over 50 scenarios; 20 starts within {worst_start:.2e}",
    )


def test_criterion_5_geometric_convergence():
    rng = np.random.default_rng(777)
    tested = 0
    worst_rel = 0.0
    all_below_one = True
    while tested < 10:
        sc = make_random_scenario(rng, 3)
        try:
            th = threshold_price(sc, "snr")
        except ValueError:
            continue
        params = AuctionParams("snr", th * 1.02)
        factors = _UserArrays.of(sc, SNR).factors(params.price)
        if np.isinf(factors).any():
            continue
        rho = float(np.max(np.abs(np.linalg.eigvals(update_matrix(factors)))))
        if not 0.05 < rho < 0.98:
            continue
        trace = iterate_best_response(sc, params, np.full(3, 1.0), tol=1e-12)
        if not trace.converged or trace.n_steps < 5:
            continue
        est = estimate_geometric_rate(trace)
        all_below_one &= est < 1.0
        worst_rel = max(worst_rel, abs(est - rho) / rho)
        tested += 1
    ok = all_below_one and worst_rel <= 0.10
    assert _verdict(
        5,
        "geometric convergence",
        ok,
        f"{tested} instances, worst |ratio - spectral radius|/radius = {worst_rel:.3f}",
    )


def test_criterion_6_threshold_behavior():
    scenarios = make_snr_regular_scenarios(seed=31415, count=20)
    good = 0
    for sc in scenarios:
        th = threshold_price(sc, "snr")
        below = solve_ne(sc, AuctionParams("snr", th * 0.99))
        above = solve_ne(sc, AuctionParams("snr", th * 1.01))
        if isinstance(below, NoEquilibrium) and isinstance(above, EquilibriumResult):
            good += 1
    ok = good == 20
    assert _verdict(6, "threshold behavior", ok, f"{good}/20 scenarios flip exactly at the threshold")


def test_criterion_7_fair_oracle_match():
    from relayauction import TwoUserSweepSpec

    worst = 0.0
    spec = TwoUserSweepSpec()
    for y in (0.0, -25.0):
        sc = build_two_user_scenario(spec, y)
        search = calibrate_price(sc, "snr", 0.99)
        assert search.feasible
        eq = solve_ne(sc, AuctionParams("snr", search.price))
        fair = fair_allocation(sc, delta=0.01)
        fair_snr = np.array(
            [float(relayed_snr(u, float(p), sc.system)) for u, p in zip(sc.users, fair.powers)]
        )
        rel = np.abs(eq.delta_snr - fair_snr) / np.maximum(fair_snr, 1e-300)
        worst = max(worst, float(rel.max()))
    ok = worst <= 0.02
    assert _verdict(7, "fair-oracle match", ok, f"max per-user SNR-gain gap = {worst:.2e} (limit 2%)")


def test_criterion_8_efficiency_match_low_snr():
    sysp = SystemParams(1e6, 1e-11, 4.0)
    users = (
        UserLink(0, 0.01, 2.0e-11, 8.0e-11, 3.0e-10),
        UserLink(1, 0.01, 1.8e-11, 8.5e-11, 3.3e-10),
    )
    sc = NetworkScenario(users, BUDGET, sysp)
    snrs = [direct_snr(u, sysp) for u in users] + [
        float(relayed_snr(u, BUDGET, sysp)) for u in users
    ]
    assert max(snrs) < 0.1
    search = calibrate_price(sc, "power", 0.99)
    eq = solve_ne(sc, AuctionParams("power", search.price))
    eff = efficient_allocation(sc, delta=0.01)
    ratio = eq.total_rate_increase_bps / eff.total_rate_increase_bps
    ok = abs(ratio - 1.0) <= 0.05
    assert _verdict(
        8,
        "low-SNR efficiency match",
        ok,
        f"auction/efficient total = {ratio:.4f} (limit ±5%), all SNRs < {max(snrs):.3f}",
    )


def _fmt(values: np.ndarray) -> str:
    return "[" + ", ".join(f"{v:.3g}" for v in values) + "]"


def _snr_equal_level_check(spec: MultiUserSpec):
    """Re-solve the study's SNR auction and compare it with the equal-level identity.

    Returns the worst per-participant gap between the rate increase and
    0.5 log2 L - log2(1 + g_i), and per budget the mean over topologies of
    the variance of log2(1 + g_i) over participants, which the identity
    makes equal to the SNR auction's mean positive-increase variance.
    """
    w = spec.bandwidth_hz
    topologies = sample_topologies(spec)
    worst = 0.0
    predicted_var = []
    for budget in spec.relay_powers:
        variances = []
        for nodes in topologies:
            sc = scenario_from_topology(spec, nodes, float(budget))
            search = calibrate_price(sc, "snr", spec.target_utilization)
            eq = solve_ne(sc, AuctionParams("snr", search.price, spec.reserve_bid))
            assert isinstance(eq, EquilibriumResult)
            predicted, log_direct = snr_equal_level_prediction(sc, eq)
            part = eq.powers > 0.0
            gap = np.abs(eq.rate_increase_bps[part] / w - predicted[part])
            worst = max(worst, float(np.max(gap, initial=0.0)))
            variances.append(float(log_direct[part].var()) if part.sum() >= 2 else 0.0)
        predicted_var.append(float(np.mean(variances)))
    return worst, np.array(predicted_var)


def test_criterion_9_multi_user_reproduction(multi_user_report):
    report, elapsed = multi_user_report
    spec = MultiUserSpec()
    budgets = [r["relay_power_w"] for r in report.rows]
    assert budgets == list(spec.relay_powers) == [0.04, 0.1, 0.3, 1.0]
    power = np.array([r["power_mean_total_bits_per_hz"] for r in report.rows])
    snr = np.array([r["snr_mean_total_bits_per_hz"] for r in report.rows])
    snr_var = np.array([r["snr_mean_positive_variance"] for r in report.rows])
    power_var = np.array([r["power_mean_positive_variance"] for r in report.rows])
    power_monotone = bool(np.all(np.diff(power) >= 0.0))
    snr_monotone = bool(np.all(np.diff(snr) >= 0.0))
    power_dominates = bool(np.all(power >= snr))
    # SNR-auction fairness: participants share one SNR level, so their rate
    # increases differ only by log2(1 + g_i); that spread is far below the
    # power auction's
    worst_gap, predicted_var = _snr_equal_level_check(spec)
    var_gap = float(np.max(np.abs(snr_var - predicted_var) / predicted_var))
    identity = worst_gap <= 1e-12 and var_gap <= 1e-12
    fairer = bool(np.all(snr_var <= 0.1 * power_var))
    in_time = elapsed < 1800.0
    ok = power_monotone and snr_monotone and power_dominates and identity and fairer and in_time
    assert _verdict(
        9,
        "multi-user reproduction",
        ok,
        f"totals monotone=({power_monotone},{snr_monotone}), power>=snr={power_dominates}, "
        f"snr variance={_fmt(snr_var)} vs predicted var log2(1+g)={_fmt(predicted_var)} "
        f"(worst increase gap {worst_gap:.1e}, worst relative variance gap {var_gap:.1e}, "
        f"identity to 1e-12: {identity}), "
        f"snr/power variance={_fmt(snr_var / power_var)} (<=0.1: {fairer}), "
        f"{elapsed:.0f}s",
    )


def test_criterion_10_invariant_suite():
    rng = np.random.default_rng(1001)
    checks = {}

    # allocation scale invariance and strict budget headroom
    ok_scale, ok_sum = True, True
    for _ in range(50):
        bids = rng.uniform(0.0, 10.0, int(rng.integers(1, 7)))
        beta = float(rng.uniform(0.1, 5.0))
        base = allocate(bids, beta, BUDGET)
        ok_scale &= bool(np.array_equal(allocate(4.0 * bids, 4.0 * beta, BUDGET), base))
        ok_scale &= bool(np.allclose(allocate(7.3 * bids, 7.3 * beta, BUDGET), base, rtol=5e-15, atol=0.0))
        ok_sum &= float(base.sum()) < BUDGET
    checks["scale-invariance"] = ok_scale
    checks["sum<budget"] = ok_sum

    # relayed SNR monotone in power and bounded by its supremum
    link = UserLink(0, 0.01, 200.0**-4, 80.0**-4, 120.0**-4)
    limit = relayed_snr_limit(link, BENCH_SYSTEM)
    ok_snr = True
    for _ in range(100):
        p = float(rng.uniform(0.0, 0.5))
        lo = float(relayed_snr(link, p, BENCH_SYSTEM))
        hi = float(relayed_snr(link, p + 1e-7 * (1 + p), BENCH_SYSTEM))
        ok_snr &= 0.0 <= lo < limit and hi > lo
    checks["snr-monotone-bounded"] = ok_snr

    # closed-form best response equals a brute-force payoff argmax
    ok_br = True
    checked = 0
    while checked < 40:
        sc = make_random_scenario(rng, 1)
        u, users = sc.users[0], _UserArrays.of(sc, SNR)
        if not users.regular[0]:
            continue
        t = float(rng.uniform(0.05, 0.95))
        price = float(users.pi_lower[0] * (1 - t) + users.pi_hat[0] * t)
        f = float(users.factors(price)[0])
        if math.isinf(f) or f == 0.0:
            continue
        xs = np.linspace(0.0, BUDGET * (1 - 1e-12), 200001)
        vals = np.asarray(rate_increase(u, xs, BENCH_SYSTEM)) - price * np.asarray(
            relayed_snr(u, xs, BENCH_SYSTEM)
        )
        x_star = float(xs[int(np.argmax(vals))])
        x_f = f / (1 + f) * BUDGET
        ok_br &= abs(x_f - x_star) <= max(1e-6 * x_star, 2 * BUDGET / 200000)
        checked += 1
    checks["closed-form-vs-argmax"] = ok_br

    # no profitable unilateral deviation at a solved equilibrium
    from relayauction import TwoUserSweepSpec

    sc = build_two_user_scenario(TwoUserSweepSpec(), 0.0)
    ok_ne = True
    for kind in ("snr", "power"):
        search = calibrate_price(sc, kind, 0.99)
        params = AuctionParams(kind, search.price)
        eq = solve_ne(sc, params)
        for i, u in enumerate(sc.users):
            others = float(eq.bids.sum() - eq.bids[i])
            u_star = payoff(u, float(eq.bids[i]), others, params, BUDGET, BENCH_SYSTEM)
            grid = np.linspace(0.0, 10 * float(eq.bids[i]) + 1.0, 200)
            best = max(payoff(u, float(b), others, params, BUDGET, BENCH_SYSTEM) for b in grid)
            ok_ne &= best <= u_star + 1e-6 * max(abs(u_star), 1e-9 * BENCH_SYSTEM.bandwidth_hz)
    checks["no-deviation"] = ok_ne

    # pivot payments: nonnegative and never above the user's own gain
    ok_vcg = True
    for _ in range(20):
        sc = make_random_scenario(rng, int(rng.integers(1, 4)))
        res = vcg_auction(sc, delta=0.01)
        slack = 1e-7 * max(res.allocation.total_rate_increase_bps, 1.0)
        ok_vcg &= bool(np.all(res.payments >= 0.0))
        ok_vcg &= bool(np.all(res.payments <= res.allocation.per_user_rate_increase_bps + slack))
    checks["vcg-payments"] = ok_vcg

    ok = all(checks.values())
    assert _verdict(10, "invariant suite", ok, ", ".join(f"{k}={v}" for k, v in checks.items()))
