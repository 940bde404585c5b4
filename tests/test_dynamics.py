"""Best-response iteration, equilibrium solving, thresholds, calibration."""

import dataclasses
import math
import pickle

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from relayauction import (
    KINDS,
    AuctionParams,
    EquilibriumResult,
    NetworkScenario,
    NoEquilibrium,
    UserLink,
    allocate,
    build_two_user_scenario,
    calibrate_price,
    efficient_allocation,
    equilibrium_from_bids,
    estimate_geometric_rate,
    fair_allocation,
    iterate_best_response,
    ne_bids_from_factors,
    rate_increase,
    relayed_snr,
    solve_ne,
    threshold_price,
    update_matrix,
)
from relayauction import auction
from relayauction.auction import POWER, SNR, _Core, _UserArrays
from relayauction.dynamics import DIVERGENCE_CAP_FACTOR, IterationTrace

from conftest import (
    BENCH_SYSTEM,
    LinkArrays,
    aggregate_share,
    make_random_scenario,
    make_snr_regular_scenarios,
    payment,
    payoff,
    reference_bisect,
    snr_equal_level_prediction,
    study_scenarios,
    wide_scenarios,
    without_user,
)

BUDGET = 0.1


def _useless_scenario(n=2):
    users = tuple(UserLink(i, 0.01, 6.25e-10, 1e-12, 1e-12) for i in range(n))
    return NetworkScenario(users, BUDGET, BENCH_SYSTEM)


# ---------------------------------------------------------------------------
# closed-form fixed point


def test_ne_bids_from_factors_two_thirds():
    # f1 = f2 = 1/3: total bid equals the reserve, each user posts half of it
    bids = ne_bids_from_factors([1.0 / 3.0, 1.0 / 3.0], reserve_bid=1.0)
    assert bids == pytest.approx([0.5, 0.5], rel=1e-12)
    powers = allocate(bids, 1.0, BUDGET)
    assert powers.sum() / BUDGET == pytest.approx(0.5, rel=1e-12)


def test_ne_bids_rejects_saturated_demand():
    with pytest.raises(ValueError):
        ne_bids_from_factors([3.0, 3.0], reserve_bid=1.0)


def test_update_matrix_zero_diagonal():
    m = update_matrix([0.5, 2.0, 1.0])
    assert np.all(np.diag(m) == 0.0)
    assert m[0, 1] == m[0, 2] == 0.5
    assert m[1, 0] == m[1, 2] == 2.0


# ---------------------------------------------------------------------------
# iteration


def test_iterate_all_zero_factors_converges_immediately():
    sc = _useless_scenario()
    trace = iterate_best_response(sc, AuctionParams("snr", 1e5), np.array([1.0, 2.0]))
    assert trace.converged and not trace.diverged
    assert np.all(trace.final_bids == 0.0)
    assert trace.n_steps <= 2


def test_iterate_diverges_below_threshold(scenario_y0):
    th = threshold_price(scenario_y0, "snr")
    trace = iterate_best_response(scenario_y0, AuctionParams("snr", th * 0.9), np.array([1.0, 1.0]))
    assert trace.diverged


def test_iterate_stops_at_the_divergence_cap_where_every_factor_is_finite(scenario_y0):
    # below the power threshold every factor is finite here but S >= 1 (1.07), so the bids grow until one
    # passes the cap (measured: 109 steps)
    price = 0.9 * threshold_price(scenario_y0, "power")
    assert np.isfinite(_UserArrays.of(scenario_y0, "power").factors(price)).all()
    trace = iterate_best_response(scenario_y0, AuctionParams("power", price), np.array([1.0, 1.0]))
    assert trace.diverged and not trace.converged and trace.n_steps > 1
    assert trace.final_bids.max() > DIVERGENCE_CAP_FACTOR


def test_iterate_rejects_a_tolerance_not_positive(scenario_y0):
    for tol in (0.0, -1e-10, math.nan):
        with pytest.raises(ValueError, match="tol must be strictly positive"):
            iterate_best_response(scenario_y0, AuctionParams("snr", 1e5), np.array([1.0, 1.0]), tol=tol)


def test_iterate_two_user_residual_ratio(scenario_y0):
    # two-user alternating structure contracts at sqrt(f1 * f2) per step
    pr = calibrate_price(scenario_y0, "snr", 0.9)
    params = AuctionParams("snr", pr.price)
    factors = _UserArrays.of(scenario_y0, SNR).factors(params.price)
    expected = float(np.sqrt(factors[0] * factors[1]))
    trace = iterate_best_response(scenario_y0, params, np.array([3.0, 0.3]), tol=1e-12)
    assert trace.converged
    est = estimate_geometric_rate(trace)
    assert est == pytest.approx(expected, rel=0.05)


def test_iterate_validates_start():
    sc = _useless_scenario()
    with pytest.raises(ValueError):
        iterate_best_response(sc, AuctionParams("snr", 1e5), np.array([1.0, -1.0]))
    with pytest.raises(ValueError):
        iterate_best_response(sc, AuctionParams("snr", 1e5), np.array([1.0]))


# ---------------------------------------------------------------------------
# solve_ne


def test_solve_ne_all_zero(scenario_y0):
    eq = solve_ne(scenario_y0, AuctionParams("snr", 1e12))
    assert isinstance(eq, EquilibriumResult)
    assert np.all(eq.bids == 0.0)
    assert eq.utilization == 0.0
    assert eq.total_rate_increase_bps == 0.0


def test_solve_ne_none_below_threshold(scenario_y0):
    th = threshold_price(scenario_y0, "snr")
    out = solve_ne(scenario_y0, AuctionParams("snr", th * 0.99))
    assert isinstance(out, NoEquilibrium)


def test_closed_form_equals_iteration_on_random_scenarios():
    scenarios = make_snr_regular_scenarios(seed=42, count=50)
    nonzero = 0
    for sc in scenarios:
        th = threshold_price(sc, "snr")
        params = AuctionParams("snr", th * 1.05)
        eq = solve_ne(sc, params)
        assert isinstance(eq, EquilibriumResult)
        if eq.bids.max() > 0:
            nonzero += 1
        trace = iterate_best_response(sc, params, np.full(sc.n_users, 1.0), tol=1e-13)
        assert trace.converged
        assert np.max(np.abs(trace.final_bids - eq.bids)) <= 1e-8
    assert nonzero >= 25  # the comparison is mostly about live equilibria


def test_snr_equilibrium_equal_level_identity():
    # every participant reaches the same level 1 + g_i + dSNR_i, so rate
    # increases differ exactly by log2(1 + g_i): equal only for equal direct SNRs
    worst, participants, shared = 0.0, 0, 0
    for sc in make_snr_regular_scenarios(seed=2718, count=60):
        th = threshold_price(sc, "snr")
        for mult in (1.01, 1.1, 1.5):
            eq = solve_ne(sc, AuctionParams("snr", th * mult))
            assert isinstance(eq, EquilibriumResult)
            predicted, _ = snr_equal_level_prediction(sc, eq)
            increase = eq.rate_increase_bps / sc.system.bandwidth_hz
            part = eq.powers > 0.0
            assert np.all(increase[~part] == 0.0)
            worst = max(worst, float(np.max(np.abs(increase[part] - predicted[part]), initial=0.0)))
            participants += int(part.sum())
            shared += int(part.sum() >= 2)
    assert participants >= 100 and shared >= 10  # the identity is checked on live equilibria
    assert worst <= 1e-12


def test_unique_ne_from_many_starts(scenario_y0):
    pr = calibrate_price(scenario_y0, "snr", 0.95)
    params = AuctionParams("snr", pr.price)
    eq = solve_ne(scenario_y0, params)
    rng = np.random.default_rng(5)
    for _ in range(20):
        b0 = rng.uniform(0.01, 10.0, scenario_y0.n_users)
        trace = iterate_best_response(scenario_y0, params, b0, tol=1e-13)
        assert trace.converged
        assert np.max(np.abs(trace.final_bids - eq.bids)) <= 1e-6


def test_no_deviation_improves_payoff(scenario_y0):
    for kind, target in (("snr", 0.99), ("power", 0.99)):
        pr = calibrate_price(scenario_y0, kind, target)
        params = AuctionParams(kind, pr.price)
        eq = solve_ne(scenario_y0, params)
        assert isinstance(eq, EquilibriumResult)
        for i, link in enumerate(scenario_y0.users):
            others = float(eq.bids.sum() - eq.bids[i])
            u_star = payoff(link, float(eq.bids[i]), others, params, BUDGET, BENCH_SYSTEM)
            grid = np.linspace(0.0, 10.0 * float(eq.bids[i]) + params.reserve_bid, 200)
            vals = [payoff(link, float(b), others, params, BUDGET, BENCH_SYSTEM) for b in grid]
            tol = 1e-6 * max(abs(u_star), 1e-9 * BENCH_SYSTEM.bandwidth_hz)
            assert max(vals) <= u_star + tol


def test_utilization_identity(scenario_y0):
    pr = calibrate_price(scenario_y0, "snr", 0.9)
    params = AuctionParams("snr", pr.price)
    eq = solve_ne(scenario_y0, params)
    share = aggregate_share(_UserArrays.of(scenario_y0, SNR).factors(params.price))
    assert eq.utilization == pytest.approx(share, abs=1e-10)


def test_reserve_bid_neutrality(scenario_y0):
    pr = calibrate_price(scenario_y0, "snr", 0.9)
    base = solve_ne(scenario_y0, AuctionParams("snr", pr.price, reserve_bid=1.0))
    scaled = solve_ne(scenario_y0, AuctionParams("snr", pr.price, reserve_bid=4.0))
    assert scaled.bids == pytest.approx(4.0 * base.bids, rel=1e-12)
    assert scaled.powers == pytest.approx(base.powers, rel=1e-12)
    assert scaled.rate_increase_bps == pytest.approx(base.rate_increase_bps, rel=1e-12)
    assert scaled.payoffs == pytest.approx(base.payoffs, rel=1e-9, abs=1e-6)


def test_power_solve_matches_share_identity(scenario_y25):
    pr = calibrate_price(scenario_y25, "power", 0.99)
    params = AuctionParams("power", pr.price)
    eq = solve_ne(scenario_y25, params)
    assert isinstance(eq, EquilibriumResult)
    factors = _UserArrays.of(scenario_y25, POWER).factors(params.price)
    expected_bids = ne_bids_from_factors(factors, params.reserve_bid)
    assert eq.bids == pytest.approx(expected_bids, rel=1e-6, abs=1e-9)
    assert eq.utilization == pytest.approx(aggregate_share(factors), abs=1e-8)


def test_power_iteration_from_former_multistarts_matches_solve_ne():
    # the power auction was once solved by iterating from these five starts;
    # all of them must reach the closed-form fixed point solve_ne returns
    rng = np.random.default_rng(2008)
    scenarios, live = 0, 0
    while scenarios < 20:
        sc = make_random_scenario(rng, int(rng.integers(2, 6)))
        if not _UserArrays.of(sc, POWER).regular.any():
            continue
        scenarios += 1
        th = threshold_price(sc, "power")
        for mult in (1.05, 1.5):
            params = AuctionParams("power", th * mult)
            eq = solve_ne(sc, params)
            assert isinstance(eq, EquilibriumResult)
            live += int(eq.bids.max() > 0.0)
            beta, n = params.reserve_bid, sc.n_users
            draws = np.random.default_rng(20080521)
            starts = [np.full(n, m * beta) for m in (0.1, 1.0, 10.0)]
            starts += [draws.uniform(0.05, 5.0, n) * beta for _ in range(2)]
            scale = max(float(eq.bids.max()), beta)
            for b0 in starts:
                trace = iterate_best_response(sc, params, b0)
                assert trace.converged
                assert np.max(np.abs(trace.final_bids - eq.bids)) <= 1e-8 * scale
    assert live >= 30  # the comparison is about equilibria where someone bids


def test_ne_exists_agrees_with_solver():
    scenarios = make_snr_regular_scenarios(seed=99, count=8)
    rng = np.random.default_rng(3)
    for sc in scenarios:
        th = threshold_price(sc, "snr")
        for mult in rng.uniform(0.7, 1.5, 4):
            params = AuctionParams("snr", th * float(mult))
            exists = _UserArrays.of(sc, SNR).shares([params.price])[0] < 1.0
            assert exists == isinstance(solve_ne(sc, params), EquilibriumResult)


# ---------------------------------------------------------------------------
# threshold price


def test_threshold_price_transition(scenario_y0):
    th = threshold_price(scenario_y0, "snr")
    assert th > 0.0 and np.isfinite(th)
    assert isinstance(solve_ne(scenario_y0, AuctionParams("snr", th * 1.01)), EquilibriumResult)
    assert isinstance(solve_ne(scenario_y0, AuctionParams("snr", th * 0.99)), NoEquilibrium)


def test_threshold_above_divergence_cutoffs(scenario_y0):
    th = threshold_price(scenario_y0, "snr")
    bound = _UserArrays.of(scenario_y0, SNR).cutoff.max()
    assert th >= bound * (1 - 1e-9)


def test_threshold_cross_checked_by_grid_scan(scenario_y0):
    th = threshold_price(scenario_y0, "snr")
    prices = np.geomspace(th * 0.5, th * 2.0, 400)
    exists = _UserArrays.of(scenario_y0, SNR).shares(prices) < 1.0
    # existence is monotone and flips exactly at the reported threshold
    assert np.all(np.diff(exists.astype(int)) >= 0)
    flip = prices[np.argmax(exists)]
    assert th == pytest.approx(flip, rel=0.01)


def test_threshold_price_transition_power_auction(scenario_y0):
    th = threshold_price(scenario_y0, "power")
    assert th > 0.0 and np.isfinite(th)
    assert isinstance(solve_ne(scenario_y0, AuctionParams("power", th * 1.01)), EquilibriumResult)
    assert isinstance(solve_ne(scenario_y0, AuctionParams("power", th * 0.99)), NoEquilibrium)


def test_threshold_requires_regularity():
    with pytest.raises(ValueError):
        threshold_price(_useless_scenario(), "snr")


# ---------------------------------------------------------------------------
# price calibration


def test_calibrate_useless_scenario_infeasible():
    res = calibrate_price(_useless_scenario(), "snr", 0.99)
    assert not res.feasible
    assert res.utilization == 0.0


def test_calibrate_bench_hits_target(scenario_y0):
    for kind in ("snr", "power"):
        res = calibrate_price(scenario_y0, kind, 0.99)
        assert res.feasible
        assert 0.99 <= res.utilization < 1.0
        assert res.utilization == pytest.approx(0.99, abs=1e-4)


def test_calibrate_utilization_below_one():
    scenarios = make_snr_regular_scenarios(seed=77, count=6)
    for sc in scenarios:
        res = calibrate_price(sc, "snr", 0.99)
        assert res.utilization < 1.0


def test_calibrate_reports_best_when_target_skipped(scenario_y25):
    # at this relay position the one profitable band tops out well below 0.99
    res = calibrate_price(scenario_y25, "snr", 0.99)
    assert not res.feasible
    assert 0.0 < res.utilization < 0.99
    eq = solve_ne(scenario_y25, AuctionParams("snr", res.price))
    assert isinstance(eq, EquilibriumResult)
    assert eq.utilization == pytest.approx(res.utilization, abs=1e-9)


def _scalar_share(users, price):
    """S at one price, from the demands at that price alone."""
    return float(users.demands(price).sum() / users.budget)


def _reference_starts(users, levels):
    """The start brackets one price at a time: walk the doubling ladder per level."""
    lo = float(users.cutoff.max()) * (1.0 - 1e-7)
    starts = []
    for level in levels:
        over, under = lo, max(float(users.pi_hat.max()), 2.0 * lo)
        while _scalar_share(users, under) >= level:
            over, under = under, 2.0 * under
        starts.append((over, under))
    return starts


def _regular_cases(bench_spec):
    """Every sweep position and four study topologies at each budget, per kind with a profitable band."""
    scenarios = [build_two_user_scenario(bench_spec, float(y)) for y in bench_spec.relay_ys()]
    for sc in scenarios + study_scenarios():
        for kind in KINDS:
            if _UserArrays.of(sc, kind).regular.any():
                yield sc, kind


def test_price_searches_equal_one_price_at_a_time_search(bench_spec):
    # each search ends at adjacent floats where S, asked one price at a time, crosses its level,
    # inside the bracket that one-midpoint bisection on that S reaches: 1e-6 wide at the
    # threshold, 1e-9 at the target
    checked = []
    for sc, kind in _regular_cases(bench_spec):
        users = _UserArrays.of(sc, kind)
        (t_over, t_under), (c_over, c_under) = _reference_starts(users, (1.0, 0.99))
        p_none, p_some = reference_bisect(lambda p: _scalar_share(users, p) < 1.0, t_over, t_under, 1e-6)[0]
        th = threshold_price(sc, kind)
        assert p_none < th <= p_some
        assert _scalar_share(users, math.nextafter(th, 0.0)) >= 1.0 > _scalar_share(users, th)
        c0, c1 = reference_bisect(lambda p: _scalar_share(users, p) < 0.99, c_over, c_under, 1e-9)[0]
        res = calibrate_price(sc, kind, 0.99)
        t0, t1 = res.bracket
        assert c0 <= t0 and t1 == math.nextafter(t0, math.inf) <= c1
        assert _scalar_share(users, t0) >= 0.99 > _scalar_share(users, t1)
        # feasible at its lower end where S < 1 there, else at its upper end
        feasible = _scalar_share(users, t0) < 1.0
        price = t0 if feasible else t1
        assert (res.price, res.utilization, res.feasible) == (price, _scalar_share(users, price), feasible)
        checked.append(res.feasible)
    # 130 regular cases, both calibration outcomes among them
    assert len(checked) >= 120 and 0 < sum(checked) < len(checked)


def test_calibrated_price_has_the_reported_equilibrium(bench_spec):
    for sc, kind in _regular_cases(bench_spec):
        res = calibrate_price(sc, kind, 0.99)
        eq = solve_ne(sc, AuctionParams(kind, res.price))
        assert isinstance(eq, EquilibriumResult)
        assert eq.utilization == pytest.approx(res.utilization, rel=0.0, abs=1e-12)
        t0, t1 = res.bracket
        if res.feasible:
            assert res.price == t0 and eq.utilization >= 0.99 - 1e-9
        else:
            # S falls from at least one to below the target between t0 and t1: at the threshold
            assert res.price == t1 == threshold_price(sc, kind) and res.utilization < 0.99


def _full_study_and_sweep(bench_spec):
    """The 81 sweep positions, then the whole 20-user study: 100 topologies at each of its four budgets."""
    return [build_two_user_scenario(bench_spec, float(y)) for y in bench_spec.relay_ys()] + study_scenarios(100)


def test_snr_equilibrium_level_is_k_over_price_at_50_digits(bench_spec):
    # at every calibrated SNR equilibrium each participant's level 1 + g_i + s_i, from its float
    # power and the float inputs taken exactly, is K / price (measured: 533 participants of 267
    # equilibria, within 2.7e-16)
    checked = 0
    with mpmath.workdps(50):
        for sc in _full_study_and_sweep(bench_spec):
            search = calibrate_price(sc, SNR)
            if not search.feasible:
                continue
            eq = solve_ne(sc, AuctionParams(SNR, search.price))
            noise, mpf = mpmath.mpf(sc.system.noise_w), mpmath.mpf
            level = mpf(sc.system.bandwidth_hz) / (2 * mpmath.log(2) * mpf(eq.price))
            for u, p in zip(sc.users, eq.powers.tolist()):
                if p > 0.0:
                    g, b = mpf(u.source_power_w) * mpf(u.gain_sd) / noise, mpf(u.source_power_w) * mpf(u.gain_sr) / noise
                    a = mpf(p) * mpf(u.gain_rd) / noise
                    assert abs((1 + g + a * b / (a + b + 1)) / level - 1) <= 5e-16
                    checked += 1
    assert checked >= 500


def _ulps(x, n):
    """The float n ulps above x (below it for n < 0)."""
    for _ in range(abs(n)):
        x = math.nextafter(x, math.copysign(math.inf, n))
    return x


def _mp_share(users, price):
    """S at a price with each interior demand at 50 digits (call within mpmath.workdps(50)): the
    branch (0, the whole budget, or the rule's closed form held within [0, budget]) is the
    package's, read from zero_from and full_from; the closed form takes g, b, c and K exactly."""
    mpf, total = mpmath.mpf, 0
    k, budget, t = mpf(users.k), mpf(users.budget), mpf(price)
    for i in np.flatnonzero((price < users.zero_from) & (price > users.full_from)).tolist():
        g, b, c = (mpf(float(v[i])) for v in (users.g, users.b, users.c))
        if users.kind == SNR:  # the power of s = K / price - 1 - g
            s = k / t - 1 - g
            x = s * (b + 1) / ((b - s) * c)
        else:  # the root of u'(x) = price, as in conftest.mp_node_excess
            q2 = 1 + g + b
            x = (mpmath.sqrt(b * b + 4 * q2 * k * c * b / ((b + 1) * t)) - (2 + 2 * g + b)) * (b + 1) / (2 * q2 * c)
        total += min(max(x, 0), budget)
    return total / budget + int(np.count_nonzero(price <= users.full_from))


def test_calibrated_bracket_holds_the_50_digit_crossing(bench_spec):
    # the bracket's floats are adjacent, so the float S decides it; S at 50 digits crosses the
    # target within 4 ulps of it, on every bracket of both auctions (measured: 896 brackets, 619
    # hold the 50-digit crossing, the other 277 miss it by 1 to 4 ulps)
    brackets = 0
    with mpmath.workdps(50):
        for sc in _full_study_and_sweep(bench_spec):
            for kind in KINDS:
                res = calibrate_price(sc, kind, 0.99)
                if res.bracket is not None:
                    users, (t0, t1) = _UserArrays.of(sc, kind), res.bracket
                    assert _mp_share(users, _ulps(t0, -4)) >= mpmath.mpf(0.99) > _mp_share(users, _ulps(t1, 4))
                    brackets += 1
    assert brackets >= 890


def test_equilibrium_is_the_demand_row_at_the_calibrated_price(bench_spec):
    # solve_ne reads the search's S: at every regular calibration the same utilization to the bit,
    # the demands themselves as powers, and bids that allocate them
    for sc, kind in _regular_cases(bench_spec):
        res = calibrate_price(sc, kind, 0.99)
        params = AuctionParams(kind, res.price)
        eq = solve_ne(sc, params)
        assert isinstance(eq, EquilibriumResult)
        assert eq.utilization == res.utilization
        np.testing.assert_array_equal(eq.powers, _UserArrays.of(sc, kind).demands(res.price))
        allocated = allocate(eq.bids, params.reserve_bid, sc.relay_budget_w)
        np.testing.assert_allclose(allocated, eq.powers, rtol=1e-15, atol=0.0)
        # the public read-out from the bids agrees; a payoff is a difference, so it is held to its terms
        again = equilibrium_from_bids(sc, params, eq.bids)
        np.testing.assert_array_equal(again.bids, eq.bids)
        for name in ("powers", "delta_snr", "rate_increase_bps", "payments"):
            np.testing.assert_allclose(getattr(again, name), getattr(eq, name), rtol=1e-15, atol=0.0)
        scale = np.maximum(eq.rate_increase_bps, eq.payments)
        assert np.all(np.abs(again.payoffs - eq.payoffs) <= 1e-15 * scale)
        assert again.utilization == pytest.approx(eq.utilization, rel=1e-15, abs=0.0)


def test_equilibrium_read_out_agrees_with_channel_functions(bench_spec):
    # the SNR is computed once from the arrays; the rate increase and the payment read it
    checked = 0
    for sc, kind in _regular_cases(bench_spec):
        eq = solve_ne(sc, AuctionParams(kind, calibrate_price(sc, kind, 0.99).price))
        links, sys = LinkArrays.of(sc.users), sc.system
        for got, want in (
            (eq.delta_snr, relayed_snr(links, eq.powers, sys)),
            (eq.rate_increase_bps, rate_increase(links, eq.powers, sys)),
            (eq.payments, payment(kind, eq.price, links, eq.powers, sys)),
        ):
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)
        checked += int((eq.powers > 0.0).sum())
    assert checked >= 290


def test_threshold_is_the_first_price_with_an_equilibrium(bench_spec):
    # an equilibrium exists at the threshold price and none at the float below it
    checked = 0
    for sc in _full_study_and_sweep(bench_spec):
        for kind in KINDS:
            if _UserArrays.of(sc, kind).regular.any():
                _assert_threshold_is_exact(sc, kind)
                checked += 1
    assert checked >= 890


def _assert_threshold_is_exact(sc, kind):
    th = threshold_price(sc, kind)
    assert isinstance(solve_ne(sc, AuctionParams(kind, th)), EquilibriumResult)
    assert isinstance(solve_ne(sc, AuctionParams(kind, math.nextafter(th, 0.0))), NoEquilibrium)


@given(sc=wide_scenarios())
def test_threshold_is_the_first_price_with_an_equilibrium_on_wide_draws(sc):
    for kind in KINDS:
        if _UserArrays.of(sc, kind).regular.any():
            _assert_threshold_is_exact(sc, kind)


def _near_limit_scenario(gap, b, g):
    """A user with SNR limit b and direct SNR g whose relayed SNR at the 1 W budget lies a relative gap
    below b, beside a weaker one."""
    noise, ps = BENCH_SYSTEM.noise_w, 0.1
    near = UserLink(0, ps, g * noise / ps, b * noise / ps, (b + 1.0) * noise / gap)
    return NetworkScenario((near, UserLink(1, ps, 1e-9, 1e-7, 1e-6)), 1.0, BENCH_SYSTEM)


# of the 200 wide draws, 47 hold a user within 1e-8 of its SNR limit, but none that bids in the SNR
# auction: the examples add such users, up to 2^-49 of the limit (NetworkScenario allows 2^-50)
@given(sc=wide_scenarios())
@example(sc=_near_limit_scenario(1e-8, 1e5, 1.0))
@example(sc=_near_limit_scenario(1e-12, 1e9, 1e3))
@example(sc=_near_limit_scenario(2.0**-49, 1e5, 1e-3))
@example(sc=_near_limit_scenario(2.0**-49, 1e9, 1e3))
def test_price_searches_meet_their_bracket_on_wide_draws(sc):
    # both searches end at adjacent floats where S crosses its level, warning of nothing (pyproject
    # turns RuntimeWarnings into errors), and the equilibrium at the price is the one reported
    for kind in KINDS:
        users = _UserArrays.of(sc, kind)
        if not users.regular.any():
            continue
        th = threshold_price(sc, kind)
        below = math.nextafter(th, 0.0)
        assert below >= users.cutoff.max()
        s_below, s_th = users.shares([below, th]).tolist()
        assert s_below >= 1.0 > s_th
        res = calibrate_price(sc, kind, 0.99)
        t0, t1 = res.bracket
        s0, s1 = users.shares([t0, t1]).tolist()
        assert t1 == math.nextafter(t0, math.inf) and s0 >= 0.99 > s1
        assert (res.price, res.utilization, res.feasible) == ((t0, s0, True) if s0 < 1.0 else (t1, s1, False))
        assert solve_ne(sc, AuctionParams(kind, res.price)).utilization == res.utilization


def test_share_at_threshold_search_start_is_at_least_one(bench_spec):
    # the search starts at the largest divergence cutoff, at or below which a user diverges, and
    # ends at the last of the users' full_from and zero_from and the float past that cutoff,
    # where nobody bids
    for sc, kind in _regular_cases(bench_spec):
        users = _UserArrays.of(sc, kind)
        lo = float(users.cutoff.max())
        end = max(users.full_from.max(), users.zero_from.max(), math.nextafter(lo, math.inf))
        assert users.shares([math.nextafter(lo, 0.0), lo]).min() >= 1.0 and users.shares([end])[0] == 0.0


def _count_pieces(monkeypatch, pieces: list) -> None:
    """Record each evaluation of a piece of S in pieces: one per call of the power rule's piece form, at its
    ends or a Newton step, and one per call of the SNR rule's secular solver."""
    excess, secular = auction._piece_excess, auction.falling_secular

    def excess_counted(piece, z):
        pieces.append(np.shape(z))
        return excess(piece, z)

    def secular_counted(*args):
        x, powers, calls = secular(*args)
        pieces.extend([np.shape(powers)] * calls)
        return x, powers, calls

    monkeypatch.setattr(auction, "_piece_excess", excess_counted)
    monkeypatch.setattr(auction, "falling_secular", secular_counted)


def test_calibration_evaluates_factors_few_times(monkeypatch):
    # the evaluations are the array calls of S: the knots' call and the call at the floats around
    # the root; the piece's evaluations are counted apart (_count_pieces; with one user on the
    # curve, its inverse demand gives the root, and with two under the power rule a closed form,
    # so no piece is read)
    calls, pieces = [], []
    shares = _UserArrays.shares

    def counted(self, prices):
        calls.append(np.shape(prices))
        return shares(self, prices)

    monkeypatch.setattr(_UserArrays, "shares", counted)
    _count_pieces(monkeypatch, pieces)
    res = calibrate_price(study_scenarios(1)[0], "power", 0.99)
    assert len(calls) == res.evaluations <= 5 and len(pieces) <= 8
    evaluations, piece_calls = [], []
    for s in study_scenarios():
        for kind in KINDS:
            pieces.clear()
            evaluations.append(calibrate_price(s, kind, 0.99).evaluations)
            piece_calls.append(len(pieces))
    assert len(evaluations) == 32 and np.mean(evaluations) <= 4
    # measured: 1.9 calls of S on average, and 2.25 piece evaluations, at most 6 (3.3, at most 7,
    # with Newton in z on the SNR pieces)
    assert max(piece_calls) <= 6 and np.mean(piece_calls) <= 3


def test_snr_pieces_take_one_evaluation_on_the_sweep(monkeypatch, bench_spec):
    # every SNR piece that the sweep's calibrations and thresholds solve has two users on the curve,
    # where the secular model is the sum: the evaluation at the piece's end steps onto the root, and the
    # floats around it decide (measured: 1 per piece on 34 pieces; Newton in z took 5.82, at most 8)
    pieces, per_piece = [], []
    _count_pieces(monkeypatch, pieces)
    for y in bench_spec.relay_ys():
        sc = build_two_user_scenario(bench_spec, float(y))
        regular = _UserArrays.of(sc, SNR).regular.any()
        for search in (lambda: calibrate_price(sc, SNR, 0.99), lambda: regular and threshold_price(sc, SNR)):
            pieces.clear()
            search()
            per_piece += [len(pieces)] if pieces else []
    assert len(per_piece) >= 30 and max(per_piece) <= 1


def test_power_pieces_take_no_evaluation_on_the_sweep(monkeypatch, bench_spec):
    # every power piece that the sweep's calibrations and thresholds solve has two users on the curve,
    # whose root is a closed form (auction._pair_price): the piece form is never evaluated, and the
    # floats around the root decide (measured: 78 pieces; Newton in z took 4.09 per piece, at most 5)
    pieces, pairs = [], []
    _count_pieces(monkeypatch, pieces)
    pair = auction._pair_price
    monkeypatch.setattr(auction, "_pair_price", lambda *args: pairs.append(args) or pair(*args))
    for y in bench_spec.relay_ys():
        sc = build_two_user_scenario(bench_spec, float(y))
        calibrate_price(sc, POWER, 0.99)
        if _UserArrays.of(sc, POWER).regular.any():
            threshold_price(sc, POWER)
    assert len(pairs) == 78 and pieces == []


@pytest.fixture(scope="module")
def power_pieces():
    """Every power piece with three or more users on the curve that the calibrations and thresholds of 25 study
    topologies solve (auction._power_root): its ends lo and hi, each call of its piece form recorded through
    auction._piece_excess as (z, excess, slope), the price returned and, where Newton ran, that price's distance in
    ulps from the 50-digit root of the piece."""
    pieces, rule, excess = [], auction._RULES[POWER], auction._piece_excess

    def recorded_excess(piece, z):
        value = excess(piece, z)
        pieces[-1]["calls"].append((z, *(v[..., 0].tolist() for v in value)))
        pieces[-1]["piece"] = piece
        return value

    def recorded_root(users, on, need, lo, hi):
        pieces.append({"lo": lo, "hi": hi, "on": np.count_nonzero(on), "calls": []})
        pieces[-1]["price"] = price = rule.root(users, on, need, lo, hi)
        return price

    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(auction._RULES, POWER, dataclasses.replace(rule, root=recorded_root))
        patch.setattr(auction, "_piece_excess", recorded_excess)
        for sc in study_scenarios(25):
            calibrate_price(sc, POWER, 0.99)
            if _UserArrays.of(sc, POWER).regular.any():
                threshold_price(sc, POWER)
    pieces = [p for p in pieces if p["on"] >= 3]
    for p in pieces:
        if len(p["calls"]) > 1:
            with mpmath.workdps(50):
                (const,), *terms = ([mpmath.mpf(v) for v in np.ravel(c).tolist()] for c in p["piece"])

                def f(z):  # the piece's excess in 50 digits (auction._piece_excess)
                    return const + sum(b1c2 * (kcb1 * z * z - g1) / (q1 + mpmath.sqrt(bsq + q2x4 * kcb1 * z * z))
                                       for g1, q2x4, q1, bsq, kcb1, b1c2 in zip(*terms))

                z = mpmath.findroot(f, (-mpmath.mpf(p["lo"]) ** -0.5, -mpmath.mpf(p["hi"]) ** -0.5), solver="anderson")
                root = 1 / z**2
                p["ulps"] = float(abs(p["price"] - root) / math.ulp(float(root)))
    return pieces


def _newton_runs(pieces):
    """The pieces that ran Newton, each with the z asked after the ends call, the excess and slope there."""
    return [(p, [c[0] for c in p["calls"][1:]], [c[1] for c in p["calls"][1:]], [c[2] for c in p["calls"][1:]])
            for p in pieces if len(p["calls"]) > 1]


def _assert_rises_onto_the_root(p, zs):
    # the z asked after the ends call rise strictly from above lo's, the price is the last one's, and it is
    # within 5 ulps of the 50-digit root of the piece (measured: 4.59 at most, 0.72 in the median, on 126 runs)
    assert -p["lo"] ** -0.5 < zs[0] and zs == sorted(set(zs)) and p["price"] == 1.0 / zs[-1] ** 2
    assert p["ulps"] <= 5.0


def test_power_root_rises_monotonically_onto_the_root(power_pieces):
    # in z = -price^(-1/2) the piece is convex and falls, so from the larger root of its tangents at both ends,
    # where the excess is >= 0, each Newton step rises and no step passes the root but by rounding: every z but
    # the last has excess >= 0 (measured: 126 of 200 pieces run Newton, 3.69 calls each, at most 6)
    runs = _newton_runs(power_pieces)
    assert len(power_pieces) >= 150 and len(runs) >= 100
    for p, zs, excess, _ in runs:
        _assert_rises_onto_the_root(p, zs)
        assert min(excess[:-1], default=0.0) >= 0.0 and len(zs) <= 8


def test_power_root_stops_where_rounding_keeps_the_excess_above_zero(power_pieces):
    # most runs stop at a step that is not positive; the rest where the excess stays > 0 at the root's float,
    # so only the step that no longer moves z ends them (measured: 8 of 126 runs)
    runs = _newton_runs(power_pieces)
    above = [(p, zs, excess[-1], slope[-1]) for p, zs, excess, slope in runs if excess[-1] > 0.0]
    for p, zs, excess, slope in above:
        _assert_rises_onto_the_root(p, zs)
        assert zs[-1] - excess / slope == zs[-1]
    assert len(above) >= 4


def test_power_root_is_an_end_where_s_jumps_there(power_pieces):
    # the ends call decides a piece whose excess is < 0 at lo or >= 0 at hi: the root is that end, so Newton
    # never starts where the excess is below 0 (measured: 74 of 200 pieces)
    ends = [p for p in power_pieces if len(p["calls"]) == 1]
    for p in ends:
        _, (ea, eb), _ = p["calls"][0]
        assert eb >= 0.0 or ea < 0.0
        assert p["price"] == (p["hi"] if eb >= 0.0 else p["lo"])
    assert len(ends) >= 50


def test_calibration_search_asks_no_price_twice(monkeypatch, bench_spec):
    # every call of a calibration's search asks only prices that no earlier call of it asked:
    # each asks strictly inside the bracket it narrows, and a knot that users share once
    asked = []
    shares = _UserArrays.shares

    def recorded(self, prices):
        asked.append(list(prices))
        return shares(self, prices)

    monkeypatch.setattr(_UserArrays, "shares", recorded)
    sweep = [build_two_user_scenario(bench_spec, float(y)) for y in bench_spec.relay_ys()]
    calibrations = prices = 0
    for sc in sweep + study_scenarios(25):
        for kind in KINDS:
            if not _UserArrays.of(sc, kind).regular.any():
                continue
            asked.clear()  # forget the earlier calibrations
            calibrate_price(sc, kind, 0.99)
            flat = [p for call in asked for p in call]
            assert len(set(flat)) == len(flat)
            calibrations, prices = calibrations + 1, prices + len(flat)
    # measured: 5,284 prices, where the bisection asked over 40,000
    assert calibrations == 296 and prices >= 4000


def test_user_arrays_built_once_per_scenario_and_kind(monkeypatch, bench_spec):
    builds = []
    core_init, init = _Core.__init__, _UserArrays.__init__

    def counted_core(self, users, *args):
        builds.append(("core", len(users)))
        core_init(self, users, *args)

    def counted(self, core, kind):
        builds.append((kind, core.g.size))
        init(self, core, kind)

    monkeypatch.setattr(_Core, "__init__", counted_core)
    monkeypatch.setattr(_UserArrays, "__init__", counted)
    sc = build_two_user_scenario(bench_spec, 0.0)
    for kind in KINDS:
        price = calibrate_price(sc, kind, 0.99).price
        params = AuctionParams(kind, price)
        assert isinstance(solve_ne(sc, params), EquilibriumResult)
        threshold_price(sc, kind)
        iterate_best_response(sc, params, [0.0, 0.0])
    efficient_allocation(sc, delta=0.0)
    fair_allocation(sc)
    # one core per scenario and budget, then the per-auction part once per auction, on that
    # core; fair_allocation's default delta solves on a core at 0.99 of the relay budget
    assert builds == [("core", 2), *((kind, 2) for kind in KINDS), ("core", 2)]
    snr, power = _UserArrays.of(sc, SNR), _UserArrays.of(sc, POWER)
    assert snr.g is power.g and snr.rd is power.rd and snr.slope_full is power.slope_full
    assert snr.g is _Core.of(sc).g
    calibrate_price(without_user(sc, 0), "power", 0.99)
    assert builds[-2:] == [("core", 1), ("power", 1)]
    # the memo is no field: equality, hashing, the repr and pickling ignore it
    fresh = build_two_user_scenario(bench_spec, 0.0)
    assert sc == fresh and hash(sc) == hash(fresh) and repr(sc) == repr(fresh)
    assert pickle.loads(pickle.dumps(sc)) == fresh


def test_user_arrays_are_read_only(scenario_y0):
    for kind in KINDS:
        users = _UserArrays.of(scenario_y0, kind)
        values = (*vars(users).values(), *users.power_coef)
        arrays = [a for a in values if isinstance(a, np.ndarray)]
        assert len(arrays) >= 18 + len(users.power_coef)
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0


# ---------------------------------------------------------------------------
# geometric-rate estimation


def test_rate_estimate_scalar_recurrence():
    # synthetic trace of x(t+1) = f * x(t) + f: residuals contract exactly by f
    f, beta = 0.5, 1.0
    x = 10.0
    residuals = []
    for _ in range(40):
        x_next = f * (x + beta)
        residuals.append(abs(x_next - x))
        x = x_next
    trace = IterationTrace(
        residuals=tuple(residuals), final_bids=np.array([x]), converged=True, diverged=False
    )
    assert estimate_geometric_rate(trace) == pytest.approx(0.5, abs=0.01)


def test_rate_estimate_requires_enough_steps():
    trace = IterationTrace(
        residuals=(0.1, 0.05, 0.025), final_bids=np.array([1.0]), converged=True, diverged=False
    )
    with pytest.raises(ValueError):
        estimate_geometric_rate(trace)


@pytest.mark.parametrize(
    "residuals, converged, message",
    [((0.1, 0.05, 0.025, 0.0125, 0.00625), False, "rate estimation needs a converged trace"),
     # only two residuals above 1e-14 of the largest
     ((1.0, 0.5, 1e-15, 1e-16, 0.0, 0.0), True, "too few usable residuals for a rate estimate")],
)
def test_rate_estimate_names_an_unusable_trace(residuals, converged, message):
    trace = IterationTrace(residuals=residuals, final_bids=np.array([1.0]), converged=converged, diverged=False)
    with pytest.raises(ValueError, match=message):
        estimate_geometric_rate(trace)


def test_calibration_rejects_a_target_outside_the_unit_interval_and_an_unknown_rule(scenario_y0):
    for target in (0.0, 1.0, -0.5, 1.5, math.nan):
        with pytest.raises(ValueError, match=r"target_utilization must lie in \(0, 1\)"):
            calibrate_price(scenario_y0, POWER, target)
    with pytest.raises(ValueError, match="kind must be one of"):
        calibrate_price(scenario_y0, "bogus")


def test_rate_estimate_below_one_on_converged_traces():
    scenarios = make_snr_regular_scenarios(seed=1234, count=10)
    for sc in scenarios:
        th = threshold_price(sc, "snr")
        trace = iterate_best_response(sc, AuctionParams("snr", th * 1.03), np.full(sc.n_users, 2.0))
        if trace.converged and trace.n_steps >= 5:
            assert estimate_geometric_rate(trace) < 1.0


def test_rate_estimate_matches_spectral_radius_three_users():
    rng = np.random.default_rng(777)
    tested = 0
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
        assert estimate_geometric_rate(trace) == pytest.approx(rho, rel=0.10)
        tested += 1


# ---------------------------------------------------------------------------
# property tests: the aggregate share and the price search on random scenarios

# a random square-field scenario of 2 to 20 users, drawn by seed
random_scenarios = st.tuples(st.integers(0, 2**32 - 1), st.integers(2, 20)).map(
    lambda d: make_random_scenario(np.random.default_rng(d[0]), d[1])
)


def _threshold_or_skip(sc, kind):
    try:
        return threshold_price(sc, kind)
    except ValueError:  # nobody ever bids: no threshold to test
        assume(False)


def _share(sc, kind, price):
    """Aggregate share with a divergent factor counting as a full share."""
    factors = _UserArrays.of(sc, kind).factors(price).tolist()
    return sum(1.0 if math.isinf(f) else f / (1.0 + f) for f in factors)


def _price_grid(sc, kind, th, n=40):
    """Sorted log-spaced prices from half the threshold to twice the largest pi_hat."""
    return np.geomspace(0.5 * th, 2.0 * _UserArrays.of(sc, kind).pi_hat.max(), n)


@given(sc=random_scenarios, kind=st.sampled_from(KINDS))
@settings(max_examples=50)
def test_aggregate_share_nonincreasing_in_price(sc, kind):
    th = _threshold_or_skip(sc, kind)
    shares = [_share(sc, kind, float(p)) for p in _price_grid(sc, kind, th)]
    assert all(a >= b for a, b in zip(shares, shares[1:]))
    assert shares[0] >= 1.0 > shares[-1]


@given(sc=random_scenarios, kind=st.sampled_from(KINDS))
@settings(max_examples=50)
def test_equilibrium_exists_exactly_above_threshold(sc, kind):
    th = _threshold_or_skip(sc, kind)
    rtol = 1e-6  # threshold_price's default bracket width
    assert isinstance(solve_ne(sc, AuctionParams(kind, th * (1.0 + rtol))), EquilibriumResult)
    assert isinstance(solve_ne(sc, AuctionParams(kind, th * (1.0 - rtol))), NoEquilibrium)


@given(sc=random_scenarios, kind=st.sampled_from(KINDS))
@settings(max_examples=50)
def test_equilibrium_utilization_below_one(sc, kind):
    th = _threshold_or_skip(sc, kind)
    found = 0
    for price in _price_grid(sc, kind, th, n=20):
        eq = solve_ne(sc, AuctionParams(kind, float(price)))
        if isinstance(eq, EquilibriumResult):
            found += 1
            assert 0.0 <= eq.utilization < 1.0
            assert eq.utilization == pytest.approx(_share(sc, kind, float(price)), abs=1e-12)
    assert found > 0
