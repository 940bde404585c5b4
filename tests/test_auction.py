"""Auction mechanics: allocation, payments, best responses, critical prices."""

import math
import warnings
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from relayauction import (
    AuctionParams,
    allocate,
    build_two_user_scenario,
    direct_snr,
    rate_increase,
    relayed_snr,
    relayed_snr_limit,
)
from relayauction import auction, channel, cli, dynamics, experiments, numutil, oracles
from relayauction.auction import (
    FULL_BUDGET_RTOL,
    KINDS,
    POWER,
    SNR,
    _Core,
    _power_cutoff,
    _power_demand,
    _snr_pi_hat,
    _UserArrays,
)
from relayauction.channel import LN2, NetworkScenario, SystemParams, UserLink

import conftest
from conftest import (
    BENCH_SYSTEM,
    LinkArrays,
    breakeven_powers,
    g_snr,
    make_random_scenario,
    mp_power_cutoff_points,
    mp_power_pi_hat,
    mp_snr_pi_hat,
    one_user,
    payment,
    payoff,
    power_cutoff_point,
    power_for_relayed_snr,
    rate_increase_power_slope,
    reference_demands,
    reference_power_cutoff_points,
    reference_power_pi_hat,
    reference_snr_pi_hat,
    snr_marginal_rate,
    study_scenarios,
    wide_scenarios,
)

BUDGET = 0.1
PAIR_ULPS = 11.0  # _pair_price against its 50-digit root: 11 ulps at most over 21,000 two-user draws


def argmax_grid(link, budget, sys):
    """The dense grid of numeric_best_power and the rate increases on it, which no price changes.

    The grid is uniform plus geometric (down to 1e-12 of the budget), so a
    small optimum or a narrow profitable band is resolved at budgets from
    1e-6 to 1e3 W (an optimum of 8e-7 W at a 1e3 W budget needs the 1e-12).
    """
    top = budget * (1 - 1e-12)
    grid = np.union1d(np.linspace(0.0, top, 100001), np.geomspace(top * 1e-12, top, 100001))
    return grid, np.asarray(rate_increase(link, grid, sys))


def numeric_best_power(link, price, kind, budget, sys, grid=None):
    """Brute-force payoff argmax over allocated power: the dense grid (argmax_grid, or its
    result passed as grid) + local refine."""
    grid, gains = argmax_grid(link, budget, sys) if grid is None else grid
    if kind == "snr":
        pays = price * np.asarray(relayed_snr(link, grid, sys))
    else:
        pays = price * grid
    vals = gains - pays
    k = int(np.argmax(vals))
    lo = grid[max(k - 2, 0)]
    hi = grid[min(k + 2, grid.size - 1)]
    fine = np.linspace(lo, hi, 20001)
    gains = np.asarray(rate_increase(link, fine, sys))
    pays = price * np.asarray(relayed_snr(link, fine, sys)) if kind == "snr" else price * fine
    vals = gains - pays
    j = int(np.argmax(vals))
    return float(fine[j]), float(vals[j])


# ---------------------------------------------------------------------------
# allocation rule


def test_allocate_equal_split():
    powers = allocate([1.0, 1.0], 1.0, 0.1)
    assert powers == pytest.approx([0.1 / 3, 0.1 / 3], rel=1e-12)


def test_allocate_all_zero():
    assert np.all(allocate([0.0, 0.0, 0.0], 1.0, 0.1) == 0.0)


def test_allocate_scale_invariance():
    rng = np.random.default_rng(11)
    for _ in range(50):
        bids = rng.uniform(0.0, 5.0, rng.integers(1, 6))
        beta = float(rng.uniform(0.1, 3.0))
        base = allocate(bids, beta, 0.1)
        assert np.array_equal(allocate(8.0 * bids, 8.0 * beta, 0.1), base)  # exact: power of two
        scaled = allocate(7.3 * bids, 7.3 * beta, 0.1)
        assert scaled == pytest.approx(base, rel=5e-15, abs=0.0)


def test_allocate_sum_strictly_below_budget():
    rng = np.random.default_rng(12)
    for _ in range(100):
        bids = rng.uniform(0.0, 1e6, rng.integers(1, 8))
        powers = allocate(bids, float(rng.uniform(1e-6, 2.0)), 0.1)
        assert powers.sum() < 0.1
        assert np.all(powers >= 0.0)


def test_allocate_rejects_bad_bids():
    with pytest.raises(ValueError):
        allocate([1.0, -0.5], 1.0, 0.1)
    with pytest.raises(ValueError):
        allocate([1.0, math.inf], 1.0, 0.1)
    with pytest.raises(ValueError):
        allocate([1.0], 0.0, 0.1)
    with pytest.raises(ValueError, match="bids must be a flat vector"):
        allocate([[1.0, 2.0]], 1.0, 0.1)
    for budget in (0.0, -0.1, math.nan):
        with pytest.raises(ValueError, match="budget must be strictly positive"):
            allocate([1.0], 1.0, budget)


# ---------------------------------------------------------------------------
# payments and payoff


def _bench_link_2():
    # benchmark user 2 with the relay at (80, 25)
    return UserLink(1, 0.01, 200.0**-4, 80.0**-4, 120.0**-4)


def _bench_link_1at25():
    # benchmark user 1 with the relay at (80, 25)
    return UserLink(0, 0.01, 200.0**-4, 16900.0**-2, 8900.0**-2)


def test_payment_rules():
    link = _bench_link_2()
    p = power_for_target = 0.01
    snr = float(relayed_snr(link, p, BENCH_SYSTEM))
    assert payment("snr", 2.0, link, p, BENCH_SYSTEM) == pytest.approx(2.0 * snr, rel=1e-12)
    assert payment("power", 3.0, link, 0.1, BENCH_SYSTEM) == pytest.approx(0.3, rel=1e-12)
    assert payment("snr", 5.0, link, 0.0, BENCH_SYSTEM) == 0.0
    assert payment("power", 5.0, link, 0.0, BENCH_SYSTEM) == 0.0


def test_payoff_zero_bid_is_zero():
    params = AuctionParams("snr", 1e5)
    assert payoff(_bench_link_2(), 0.0, 3.0, params, BUDGET, BENCH_SYSTEM) == 0.0


def test_payoff_negative_under_huge_price():
    params = AuctionParams("snr", 1e12)
    for bid in (1e-3, 0.1, 1.0, 100.0):
        assert payoff(_bench_link_2(), bid, 1.0, params, BUDGET, BENCH_SYSTEM) < 0.0


# ---------------------------------------------------------------------------
# SNR auction closed forms


def _snr_user(link, budget=BUDGET):
    return one_user(link, SNR, budget, BENCH_SYSTEM)


def _power_user(link, budget=BUDGET):
    return one_user(link, POWER, budget, BENCH_SYSTEM)


def test_g_snr_positive_at_extremes():
    link = _bench_link_2()
    pi_star = BENCH_SYSTEM.bandwidth_hz / (2 * LN2 * (1 + direct_snr(link, BENCH_SYSTEM)))
    assert g_snr(link, pi_star * 1e-9, BENCH_SYSTEM) > 0.0
    assert g_snr(link, pi_star * 1e9, BENCH_SYSTEM) > 0.0
    assert g_snr(link, pi_star, BENCH_SYSTEM) < 0.0


def test_g_snr_has_two_roots_around_stationary_point():
    link = _bench_link_2()
    pi_star = BENCH_SYSTEM.bandwidth_hz / (2 * LN2 * (1 + direct_snr(link, BENCH_SYSTEM)))
    prices = np.geomspace(pi_star * 1e-6, pi_star * 1e6, 20000)
    signs = np.sign([g_snr(link, float(p), BENCH_SYSTEM) for p in prices])
    flips = int(np.sum(np.abs(np.diff(signs)) > 0))
    assert flips == 2
    roots_below = prices[:-1][(np.diff(signs) != 0)]
    assert roots_below[0] < pi_star < roots_below[1]


def test_snr_critical_prices_bench_values():
    link = _bench_link_2()
    users = _snr_user(link)
    assert users.pi_lower[0] == pytest.approx(4.0954e4, rel=1e-4)
    assert abs(g_snr(link, users.pi_hat[0], BENCH_SYSTEM)) < 1e-8 * BENCH_SYSTEM.bandwidth_hz
    assert users.regular[0]


def test_snr_pi_lower_matches_finite_difference_marginal():
    # marginal rate per unit SNR at the full budget equals the lower critical price
    link = _bench_link_2()
    h = 1e-7
    dr = float(rate_increase(link, BUDGET, BENCH_SYSTEM)) - float(
        rate_increase(link, BUDGET * (1 - h), BENCH_SYSTEM)
    )
    dsnr = float(relayed_snr(link, BUDGET, BENCH_SYSTEM)) - float(
        relayed_snr(link, BUDGET * (1 - h), BENCH_SYSTEM)
    )
    assert _snr_user(link).pi_lower[0] == pytest.approx(dr / dsnr, rel=1e-5)


def test_snr_pi_lower_decreases_with_budget():
    link = _bench_link_2()
    assert _snr_user(link, 0.2).pi_lower[0] < _snr_user(link, 0.05).pi_lower[0]


def test_snr_best_response_branches():
    users = _snr_user(_bench_link_2())
    lo, hat = users.pi_lower[0], users.pi_hat[0]
    assert users.factors(hat * 1.001)[0] == 0.0
    assert users.factors(hat)[0] == 0.0
    assert np.isinf(users.factors(lo)[0])
    assert np.isinf(users.factors(lo * 0.5)[0])
    f = users.factors(math.sqrt(lo * hat))[0]
    assert np.isfinite(f) and f > 0.0


def test_snr_best_response_matches_numeric_argmax():
    link = _bench_link_2()
    users = _snr_user(link)
    price = float(0.5 * (users.pi_lower[0] + users.pi_hat[0]))
    f = users.factors(price)[0]
    x_star, _ = numeric_best_power(link, price, "snr", BUDGET, BENCH_SYSTEM)
    assert f / (1 + f) * BUDGET == pytest.approx(x_star, rel=1e-6)


def test_snr_best_response_random_sample_vs_numeric():
    # 200 random (link, price) pairs inside the finite band
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 200:
        sc = make_random_scenario(rng, 1)
        link = sc.users[0]
        users = _snr_user(link)
        if not users.regular[0]:
            continue
        t = rng.uniform(0.02, 0.98)
        price = float(users.pi_lower[0] * (1 - t) + users.pi_hat[0] * t)
        f = users.factors(price)[0]
        if np.isinf(f) or f == 0.0:
            continue
        x_star, _ = numeric_best_power(link, price, "snr", BUDGET, BENCH_SYSTEM)
        assert f / (1 + f) * BUDGET == pytest.approx(x_star, rel=1e-6, abs=1e-12)
        checked += 1


def test_snr_factor_nonincreasing_in_price():
    users = _snr_user(_bench_link_2())
    prices = np.linspace(users.pi_lower[0] * 1.001, users.pi_hat[0] * 0.999, 50)
    vals = [users.factors(float(p))[0] for p in prices]
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


def test_snr_zero_branch_zero_payoff():
    # at prices past the cutoff no bid earns a positive payoff
    link = _bench_link_2()
    params = AuctionParams("snr", float(_snr_user(link).pi_hat[0]) * 1.01)
    bids = np.linspace(0.0, 50.0, 500)
    vals = [payoff(link, float(b), 1.0, params, BUDGET, BENCH_SYSTEM) for b in bids]
    assert max(vals) <= 1e-9 * BENCH_SYSTEM.bandwidth_hz


def test_best_response_discontinuous_at_pi_hat():
    users = _snr_user(_bench_link_2())
    left = users.factors(users.pi_hat[0] * (1 - 1e-9))[0]
    right = users.factors(users.pi_hat[0] * (1 + 1e-9))[0]
    left_power = left / (1 + left) * BUDGET
    assert left_power > 0.01 * BUDGET  # allocated power jumps, not fades
    assert right == 0.0


def test_snr_nonregular_user_never_profits_case():
    # relay far from the source: asymptotic relayed SNR below the kink,
    # so the best response is zero at every price
    users = _snr_user(UserLink(0, 0.01, 6.25e-10, 1e-11, 1e-9))
    assert not users.regular[0]
    for price in (users.pi_hat[0] * 0.5, users.pi_hat[0] * 0.99, users.pi_hat[0] * 2.0):
        assert users.factors(float(price))[0] == 0.0


def test_snr_nonregular_divergent_below_full_budget_cutoff():
    # user 1 at relay (80, 25) profits only by taking essentially everything
    link = _bench_link_1at25()
    users = _snr_user(link)
    assert not users.regular[0]
    cutoff = float(rate_increase(link, BUDGET, BENCH_SYSTEM)) / float(
        relayed_snr(link, BUDGET, BENCH_SYSTEM)
    )
    assert users.cutoff[0] == pytest.approx(cutoff, rel=1e-12)
    assert np.isinf(users.factors(cutoff * 0.999)[0])
    assert users.factors(cutoff * 1.001)[0] == 0.0
    # and indeed no positive payoff is available above the cutoff
    params = AuctionParams("snr", cutoff * 1.001)
    bids = np.geomspace(1e-6, 1e6, 400)
    vals = [payoff(link, float(b), 0.0, params, BUDGET, BENCH_SYSTEM) for b in bids]
    assert max(vals) <= 1e-9 * BENCH_SYSTEM.bandwidth_hz


def test_best_response_linear_in_opponents():
    # the bid f * (opponents + reserve) is the best bid against any opponents' sum
    link = _bench_link_2()
    users = _snr_user(link)
    price = float(0.5 * (users.pi_lower[0] + users.pi_hat[0]))
    params = AuctionParams("snr", price, reserve_bid=1.0)
    f = float(users.factors(price)[0])
    for others in (0.0, 3.0, 50.0):
        bid = f * (others + params.reserve_bid)
        best = payoff(link, bid, others, params, BUDGET, BENCH_SYSTEM)
        for bump in (0.9, 0.99, 1.01, 1.1):
            assert payoff(link, bid * bump, others, params, BUDGET, BENCH_SYSTEM) <= best + 1e-9 * abs(best)
    assert users.factors(users.pi_hat[0] * 2)[0] == 0.0


def test_payoff_peaks_at_equilibrium_bid(scenario_y0):
    from relayauction import calibrate_price, solve_ne

    pr = calibrate_price(scenario_y0, "snr", 0.99)
    params = AuctionParams("snr", pr.price)
    eq = solve_ne(scenario_y0, params)
    for i, link in enumerate(scenario_y0.users):
        others = float(eq.bids.sum() - eq.bids[i])
        at_star = payoff(link, float(eq.bids[i]), others, params, BUDGET, BENCH_SYSTEM)
        for bump in (0.9, 1.1):
            perturbed = payoff(link, float(eq.bids[i] * bump), others, params, BUDGET, BENCH_SYSTEM)
            assert at_star >= perturbed - 1e-9 * abs(at_star)


# ---------------------------------------------------------------------------
# power auction


def test_power_best_response_matches_low_snr_closed_form():
    # in the low-SNR regime the first-order condition is solvable in closed form
    sysp = BENCH_SYSTEM
    link = UserLink(0, 0.01, 2e-12, 8e-12, 3e-10)
    assert direct_snr(link, sysp) + float(relayed_snr(link, BUDGET, sysp)) < 0.01
    b = relayed_snr_limit(link, sysp)
    a_per_watt = link.gain_rd / sysp.noise_w
    users = _power_user(link)

    for price in (1.5e4, 2e4, 3e4):
        f = users.factors(price)[0]
        assert np.isfinite(f) and f > 0.0
        x_numeric = f / (1 + f) * BUDGET
        # closed form: d(relayed SNR)/dx * W/(2 ln2) = price
        # with snr(x) = a(x) b / (a(x) + b + 1), a(x) = a_per_watt * x
        w = sysp.bandwidth_hz
        denom = math.sqrt(w * b * (b + 1) * a_per_watt / (2 * LN2 * price))
        x_closed = (denom - (b + 1)) / a_per_watt
        assert x_numeric == pytest.approx(x_closed, rel=0.01)


def test_power_best_response_zero_when_relay_useless():
    assert _power_user(UserLink(0, 0.01, 6.25e-10, 1e-11, 1e-9)).factors(1.0)[0] == 0.0


def test_power_best_response_matches_numeric_argmax():
    link = _bench_link_2()
    users = _power_user(link)
    for t in (0.2, 0.5, 0.8):
        price = float(users.pi_lower[0] * (1 - t) + users.pi_hat[0] * t)
        f = users.factors(price)[0]
        if np.isinf(f) or f == 0.0:
            continue
        x_star, _ = numeric_best_power(link, price, "power", BUDGET, BENCH_SYSTEM)
        assert f / (1 + f) * BUDGET == pytest.approx(x_star, rel=1e-5, abs=1e-12)


def test_power_critical_prices_zero_cutoff_when_direct_dominates():
    # low SNR with the direct gain above the source-relay gain: never worth relaying
    link = UserLink(0, 0.01, 9e-11, 7e-11, 3e-10)
    assert relayed_snr_limit(link, BENCH_SYSTEM) < 0.1
    assert link.gain_sd > link.gain_sr
    users = _power_user(link)
    assert users.pi_hat[0] == 0.0
    assert users.factors(123.0)[0] == 0.0


def test_power_cutoff_separates_participation():
    users = _power_user(_bench_link_2())
    assert users.regular[0]
    below = users.factors(users.pi_hat[0] * (1 - 1e-6))[0]
    above = users.factors(users.pi_hat[0] * (1 + 1e-6))[0]
    assert below > 0.0 and np.isfinite(below)
    assert above == 0.0


def test_power_pi_hat_positive_validated_by_scan():
    # user 1 at relay (80, -25) profits over a whole price range
    link = UserLink(0, 0.01, 200.0**-4, 120.0**-4, 80.0**-4)
    pi_hat = _power_user(link).pi_hat[0]
    assert pi_hat > 0.0
    # dense (price, power) grid confirms: profit possible below, not above
    for price, expect_profit in ((pi_hat * 0.9, True), (pi_hat * 1.1, False)):
        xs = np.linspace(0.0, BUDGET, 4001)
        vals = np.asarray(rate_increase(link, xs, BENCH_SYSTEM)) - price * xs
        assert (vals.max() > 0.0) == expect_profit


def test_power_pi_lower_is_full_budget_marginal():
    link = _bench_link_2()
    assert _power_user(link).pi_lower[0] == pytest.approx(
        rate_increase_power_slope(link, BUDGET, BENCH_SYSTEM), rel=1e-12
    )


# property tests: closed form against the brute-force argmax

# one user per draw: node distances in meters at the benchmark's source power
power_links = st.tuples(
    st.floats(10.0, 400.0), st.floats(10.0, 400.0), st.floats(10.0, 400.0)
).map(lambda d: UserLink(0, 0.01, d[0] ** -4, d[1] ** -4, d[2] ** -4))
budgets = st.floats(-6.0, 3.0).map(lambda e: 10.0**e)  # 1e-6 to 1e3 W


def _probe_prices(users, t_span, t_band):
    """pi_lower, pi_hat -/+ 1e-6, a log-uniform point between pi_lower/1e3 and
    1.5 pi_hat, and one inside the finite band (pi_lower, pi_hat) if it exists."""
    pi_lower, pi_hat = float(users.pi_lower[0]), float(users.pi_hat[0])
    lo, hi = pi_lower * 1e-3, pi_hat * 1.5
    prices = [pi_lower, pi_hat * (1 - 1e-6), pi_hat * (1 + 1e-6), lo * (hi / lo) ** t_span]
    if users.regular[0]:
        prices.append(pi_lower * (pi_hat / pi_lower) ** t_band)
    return prices


@given(link=power_links, budget=budgets, t_span=st.floats(0.0, 1.0), t_band=st.floats(0.0, 1.0))
# a band price one rounding below pi_hat, and a peak flat to rounding at a 1e3 W budget
@example(UserLink(0, 0.01, 43.0**-4, 10.0**-4, 10.0**-4), 1.0, 0.0, 0.9999999999999999)
@example(UserLink(0, 0.01, 176.0**-4, 42.0**-4, 11.0**-4), 1e3, 0.0, 0.25)
@settings(max_examples=100)
def test_power_best_response_closed_form_matches_numeric_argmax(link, budget, t_span, t_band):
    users = _power_user(link, budget)
    assume(users.pi_hat[0] > 0.0)

    def net(p):
        return float(rate_increase(link, p, BENCH_SYSTEM)) - price * p

    grid = argmax_grid(link, budget, BENCH_SYSTEM)
    for price in _probe_prices(users, t_span, t_band):
        f = float(users.factors(price)[0])
        x_star, v_star = numeric_best_power(link, price, "power", budget, BENCH_SYSTEM, grid)
        event("zero" if f == 0.0 else "divergent" if math.isinf(f) else "finite")
        # the closed form's power (the end of the budget where divergent) and net gain
        top = budget * (1 - 1e-12)
        x = top if math.isinf(f) else f / (1 + f) * budget
        v = net(x) if x > 0.0 else 0.0
        tol = 1e-12 * float(rate_increase(link, max(x, x_star), BENCH_SYSTEM))
        # no grid point beats the closed form by more than rounding
        assert v >= v_star - tol
        if (f == 0.0) != (v_star <= 0.0):
            # only at a price within rounding of pi_hat, where the best net gain
            # is zero to rounding and the two cannot tell zero from positive
            event("zero to rounding")
            assert abs(price / users.pi_hat[0] - 1.0) <= 1e-12 and abs(v - v_star) <= tol
        elif f > 0.0 and not math.isinf(f):
            # beyond the 1e-3..10 W budgets the net gain 1e-5 away from its peak can
            # equal the peak to rounding, so that no grid places the argmax; there
            # the closed form must meet the first-order condition r'(x) = price
            drop = v - max(net(x * (1 - 1e-5)), net(min(x * (1 + 1e-5), budget)))
            if 1e-3 <= budget <= 10.0 or drop > tol:
                assert x == pytest.approx(x_star, rel=1e-5)
            else:
                event("flat peak")
                assert rate_increase_power_slope(link, x, BENCH_SYSTEM) == pytest.approx(price, rel=1e-12)


@given(link=power_links, budget=budgets)
def test_power_cutoff_envelope_identity(link, budget):
    users = _power_user(link, budget)
    pi_hat = users.pi_hat[0]
    assume(pi_hat > 0.0)
    p_dagger = power_cutoff_point(link, budget, BENCH_SYSTEM)
    # pi_hat is the largest rate per watt, reached at p_dagger
    assert float(rate_increase(link, p_dagger, BENCH_SYSTEM)) == pytest.approx(pi_hat * p_dagger, rel=1e-9)
    event("interior" if p_dagger < budget else "at budget")
    if p_dagger < budget:
        assert rate_increase_power_slope(link, p_dagger, BENCH_SYSTEM) == pytest.approx(pi_hat, rel=1e-9)
    grid = np.linspace(budget / 4001, budget, 4001)
    per_watt = np.asarray(rate_increase(link, grid, BENCH_SYSTEM)) / grid
    assert per_watt.max() <= pi_hat * (1 + 1e-12)
    assert users.factors(pi_hat * (1 - 1e-6))[0] > 0.0
    assert users.factors(pi_hat * (1 + 1e-6))[0] == 0.0


# ---------------------------------------------------------------------------
# participation cutoffs in closed form (SNR) and by monotone Newton (power)

K = BENCH_SYSTEM.bandwidth_hz / (2.0 * LN2)


def _study_and_sweep_scenarios(bench_spec):
    """The 81 sweep positions, then four 20-user study topologies at each of the four budgets."""
    sweep = [build_two_user_scenario(bench_spec, float(y)) for y in bench_spec.relay_ys()]
    return sweep + study_scenarios()


def _assert_rel(got, want, rtol):
    """got equals want to rtol relative; nan and 0 where want has them."""
    got, want = np.asarray(got), np.asarray(want)
    assert np.array_equal(np.isnan(got), np.isnan(want)) and np.array_equal(got == 0.0, want == 0.0)
    k = ~np.isnan(want) & (want != 0.0)
    assert np.all(np.abs(got[k] - want[k]) <= rtol * np.abs(want[k]))


def test_cutoffs_equal_bracketed_newton_reference(bench_spec):
    scenarios = _study_and_sweep_scenarios(bench_spec)
    assert len(scenarios) == 81 + 16
    for sc in scenarios:
        snr, power = _UserArrays.of(sc, SNR), _UserArrays.of(sc, POWER)
        _assert_rel(snr.pi_hat, reference_snr_pi_hat(sc), 1e-13)
        _assert_rel(power.pi_hat, reference_power_pi_hat(sc), 1e-13)
        points = reference_power_cutoff_points(power)
        _assert_rel(_power_cutoff(power)[0], points, 1e-13)
    for link, point in zip(sc.users, points):  # the one-user view of the last scenario
        got = power_cutoff_point(link, sc.relay_budget_w, sc.system)
        assert got is None if np.isnan(point) else got == pytest.approx(point, rel=1e-13)


def test_closed_form_build_agrees_with_channel_functions(bench_spec):
    # the 81 sweep positions and the first 7 study topologies, re-budgeted from 1e-6 to 1e3 W
    sweep = [build_two_user_scenario(bench_spec, float(y)) for y in bench_spec.relay_ys()]
    topologies = study_scenarios(7)[::4]
    built = interior = 0
    for base in sweep + topologies:
        for budget in 10.0 ** np.arange(-6.0, 4.0):
            sc = NetworkScenario(base.users, budget, base.system)
            snr, power = _UserArrays.of(sc, SNR), _UserArrays.of(sc, POWER)
            links, sys = LinkArrays.of(sc.users), sc.system
            s_max = relayed_snr(links, budget, sys)
            gain = rate_increase(links, budget, sys)
            _assert_rel(snr.g, direct_snr(links, sys), 1e-13)
            _assert_rel(snr.b, relayed_snr_limit(links, sys), 1e-13)
            _assert_rel(snr.c, links.gain_rd / sys.noise_w, 1e-13)
            _assert_rel(snr.snr_max, s_max, 1e-13)
            _assert_rel(snr.gain_max, gain, 1e-13)
            floor = breakeven_powers(power)
            _assert_rel(floor, power_for_relayed_snr(links, np.minimum(snr.g**2 + snr.g, s_max), sys), 1e-13)
            slope = rate_increase_power_slope(links, budget, sys)
            _assert_rel(power.pi_lower, slope, 1e-13)
            _assert_rel(np.where(gain > 0.0, power.slope_full, 0.0), slope, 1e-13)
            _assert_rel(snr.pi_lower, snr_marginal_rate(links, s_max, sys), 1e-13)
            _assert_rel(snr.cutoff[~snr.regular], (gain / s_max)[~snr.regular], 1e-13)
            _assert_rel(power.cutoff[~power.regular], (gain / budget)[~power.regular], 1e-13)
            # the demand constants: each interior demand meets its price
            for users, floor, marginal in (
                (snr, 0.0, lambda x: snr_marginal_rate(links, relayed_snr(links, x, sys), sys)),
                (power, floor, lambda x: rate_increase_power_slope(links, x, sys)),
            ):
                for t in (0.1, 0.5, 0.9):  # a price per user inside its band (pi_lower, pi_hat)
                    price = np.where(users.regular, users.pi_lower ** (1 - t) * users.pi_hat**t, 1.0)
                    x = users.demands(price)
                    inner = (x > floor) & (x < budget * (1 - 1e-6)) & users.regular
                    _assert_rel(marginal(x)[inner], price[inner], 1e-13)
                    interior += int(inner.sum())
            built += 1
    assert built == (81 + 7) * 10 and interior > 4000, interior


def test_core_snr_is_the_channel_relayed_snr_to_the_bit(bench_spec):
    # the core's relayed SNR rounds as channel.relayed_snr does, at every power up to the budget
    for sc in _study_and_sweep_scenarios(bench_spec):
        powers = np.linspace(0.0, sc.relay_budget_w, 33)[:, None] * np.ones(sc.n_users)
        want = relayed_snr(LinkArrays.of(sc.users), powers, sc.system)
        assert np.array_equal(_Core.of(sc).snr(powers), want)
        assert np.array_equal(_Core.of(sc).snr_max, want[-1])


def test_user_arrays_build_makes_no_newton_search(monkeypatch, bench_spec):
    # the builds are closed forms and monotone Newton iterations: no package module holds the
    # tests' bracketed Newton, and a build that ran a bracketed search would raise here
    def refuse(*args, **kwargs):
        raise AssertionError("bracketed search called")

    assert [m.__name__ for m in (auction, channel, cli, dynamics, experiments, numutil, oracles)
            if hasattr(m, "newton_root")] == []
    monkeypatch.setattr(conftest, "newton_root", refuse)
    scenarios = _study_and_sweep_scenarios(bench_spec)
    for sc in (scenarios[0], scenarios[40], scenarios[-1]):
        for kind in KINDS:
            assert _UserArrays(_Core(sc.users, sc.relay_budget_w, sc.system), kind).pi_hat.size == sc.n_users


def _link_with_direct_snr(g, d_sr=80.0, d_rd=120.0):
    return UserLink(0, 0.01, g * BENCH_SYSTEM.noise_w / 0.01, d_sr**-4, d_rd**-4)


@given(log_g=st.floats(-6.0, 15.0))
def test_snr_pi_hat_is_the_root_of_g_snr(log_g):
    link = _link_with_direct_snr(10.0**log_g)
    g = direct_snr(link, BENCH_SYSTEM)
    pi_hat = _snr_user(link).pi_hat[0]
    assert abs(g_snr(link, pi_hat, BENCH_SYSTEM)) <= 1e-12 * K
    assert 0.0 < pi_hat < K / (1.0 + g)


def _decimal_snr_pi_hat(g: float) -> float:
    """pi_hat to 40 digits: u - ln u = 1 + ln(1+g) on (0, 1) by bisection, g taken exactly."""
    import decimal

    with decimal.localcontext() as ctx:
        ctx.prec = 40
        one = decimal.Decimal(1)
        rhs = one + (one + decimal.Decimal(g)).ln()
        lo, hi = decimal.Decimal(0), one
        for _ in range(140):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if mid - mid.ln() > rhs else (lo, mid)
        return float((lo + hi) / 2 * decimal.Decimal(K) / (one + decimal.Decimal(g)))


def test_snr_pi_hat_accurate_as_direct_snr_vanishes():
    # the root u of u - ln u = 1 + ln(1+g) nears the double root u = 1 as g -> 0,
    # but stays well-conditioned in g (u ~ 1 - sqrt(2g)); a residual that rounds
    # 1 + g is off by up to about 1e-16 / sqrt(g) (the bracketed search before the
    # closed form: 1e-10 at g = 1e-15, 1e-14 at g = 1e-3), one in ln(1+g) holds 2e-15
    for g in 10.0 ** np.arange(-15.0, 16.0):
        link = _link_with_direct_snr(g)
        g = direct_snr(link, BENCH_SYSTEM)
        got = _snr_user(link).pi_hat[0]
        assert abs(got / _decimal_snr_pi_hat(g) - 1.0) <= 2e-15


def test_snr_pi_hat_matches_50_digit_lambert_w():
    # g a quarter decade apart from 1e-300 to 1e30: at most 4.4e-16 off here, 5.6e-16 on 8301 g
    g = 10.0 ** np.arange(-300.0, 30.25, 0.25)
    got = _snr_pi_hat(SimpleNamespace(g=g, g1=1.0 + g, k=K))
    assert np.all(np.abs(got / mp_snr_pi_hat(g, K) - 1.0) <= 6e-16)


def test_power_cutoff_points_match_50_digit_root():
    # at most 6.7e-16 off on these users; over the whole study (4193 users and budgets with
    # r(budget) > 0) at most 8.3e-15
    for sc in study_scenarios():
        users = _UserArrays.of(sc, POWER)
        _assert_rel(_power_cutoff(users)[0], mp_power_cutoff_points(users), 1e-15)


def _decimal_power_pi_hat(users) -> float:
    """pi_hat to 40 digits: u(p) / p where p u'(p) = u(p) on (breakeven, budget], by bisection."""
    import decimal

    with decimal.localcontext() as ctx:
        ctx.prec = 40
        one = decimal.Decimal(1)
        g, b, c = (decimal.Decimal(float(x[0])) for x in (users.g, users.b, users.c))
        budget = decimal.Decimal(users.budget)
        k = decimal.Decimal(BENCH_SYSTEM.bandwidth_hz) / (2 * decimal.Decimal(2).ln())

        def curve(p):  # u(p) and u'(p) of _Core.gain and _Core.slope
            a = p * c
            d1 = a + b + one
            u = k * ((one + g + a * b / d1).ln() - 2 * (one + g).ln())
            return u, k * c * b * (b + one) / (d1 * ((one + g) * d1 + a * b))

        lo, hi = (g * g + g) * (b + one) / ((b - g * g - g) * c), budget  # breakeven, budget
        u, slope = curve(hi)
        if hi * slope < u:
            for _ in range(120):
                mid = (lo + hi) / 2
                u, slope = curve(mid)
                lo, hi = (mid, hi) if mid * slope > u else (lo, mid)
        return float(curve(hi)[0] / hi)


def test_power_pi_hat_accurate_on_weak_direct_links():
    # r(p) = 0.5 W log2(1+g+s) - W log2(1+g) cancels as g -> 0: read from it, pi_hat
    # is up to 4.9e-13 off here; u(p) in log1p form does not cancel
    for g in 10.0 ** np.arange(-7.0, -2.9, 0.25):
        link = _link_with_direct_snr(g)
        for budget in (1e-3, BUDGET, 10.0):
            users = _power_user(link, budget)
            assert abs(users.pi_hat[0] / _decimal_power_pi_hat(users) - 1.0) <= 2e-15


def test_power_pi_hat_holds_as_direct_snr_vanishes():
    # g four decades apart from 1e-3 to 1e-299 at 1 mW, 0.1 W and 10 W: at most 2.2e-16 off
    # the 30-digit max, while the cutoff point itself is up to 1.6e-11 off at g = 1e-11 and
    # off by a factor of 6e133 at g = 1e-299 (see _power_cutoff)
    for g in 10.0 ** np.arange(-3.0, -300.0, -4.0):
        for budget in (1e-3, BUDGET, 10.0):
            users = _power_user(_link_with_direct_snr(g), budget)
            assert abs(users.pi_hat[0] / mp_power_pi_hat(users)[0] - 1.0) <= 4.5e-16


def test_power_pi_hat_within_its_measured_error_on_the_study():
    # pi_hat is K w / p at the cutoff Newton's last iterate w (u(p) = K w there), or r(budget) / budget
    # where the point is the budget.  Over the 1,117 users with a gain in study_scenarios(25) it is at
    # most 7.3e-15 off the 30-digit max at the 1,060 inner points (u(p) / p read 3.1e-15) and 2.23e-14
    # at the 57 on the budget, where r is read by _log_gain near its breakeven (s / (s - g^2 - g) = 72,
    # topology 23 at 0.1 W).  Topologies 22-24 hold both worsts.
    inner = whole = 0.0
    for sc in study_scenarios(25)[88:]:
        core = _Core.of(sc)
        live = core.gain_max > 0.0
        want = mp_power_pi_hat(SimpleNamespace(g=core.g[live], b=core.b[live], c=core.c[live], k=core.k,
                                               budget=core.budget))
        err = np.abs(core.power_pi_hat[live] / want - 1.0)
        at_budget = _power_cutoff(core)[0][live] == core.budget
        inner, whole = max(inner, err[~at_budget].max()), max(whole, err[at_budget].max(initial=0.0))
    assert 0.0 < inner <= 7.5e-15 and 0.0 < whole <= 2.3e-14


# one user per draw: node distances from 1 m to 10 km (direct SNR 1e-7 to 1e9)
extreme_links = st.tuples(
    st.floats(0.0, 4.0), st.floats(0.0, 4.0), st.floats(0.0, 4.0)
).map(lambda e: UserLink(0, 0.01, 10.0 ** (-4 * e[0]), 10.0 ** (-4 * e[1]), 10.0 ** (-4 * e[2])))


@given(link=extreme_links, budget=budgets)
# near the breakeven at a large direct SNR: phi was 1.1e-12 of p u' when Newton ran in ln(1+g) + w
@example(link=UserLink(0, 0.01, 1.1587735479704848e-05, 0.1345273920312773, 1.0), budget=10.0)
def test_power_cutoff_point_maximizes_rate_per_watt(link, budget):
    users = _UserArrays(_Core((link,), budget, BENCH_SYSTEM), POWER)
    p = power_cutoff_point(link, budget, BENCH_SYSTEM)
    assume(p is not None)

    def per_watt(x):  # u(x) / x, with u free of the cancellation in rate_increase at small g
        return users.gain(x)[0] / x

    u, slope = users.gain(p)[0], users.slope(p)[0]
    event("interior" if p < budget else "at budget")
    if p < budget:
        # phi(p) = p u'(p) - u(p) vanishes; 1e-12 covers the rounding of u, a
        # difference of logs when the point nears the breakeven
        assert abs(p * slope - u) <= 1e-12 * p * slope
        assert per_watt(p * (1 + 1e-6)) <= per_watt(p) * (1 + 1e-15)
    else:
        assert p * slope - u >= -1e-12 * p * slope
    assert per_watt(p * (1 - 1e-6)) <= per_watt(p) * (1 + 1e-15)


# ---------------------------------------------------------------------------
# two users on a power piece


def _mp_pair_root(core, need: float, price: float):
    """The 50-digit price at which both users' unclamped power demands (_power_demand, on their g, b, c and K) sum to
    need, found within 1e-9 of price, where the sum must cross need."""
    with mpmath.workdps(50):
        mpf, terms = mpmath.mpf, []
        for g, b, c in zip(*([mpf(v) for v in x.tolist()] for x in (core.g, core.b, core.c))):
            terms.append((mpf(core.k) * c * b / (b + 1), 1 + g, 4 * (1 + g + b), 2 + 2 * g + b, b * b, (b + 1) / c))

        def excess(y):  # at the price 1 / y, rising in y
            return sum(2 * (kcb1 * y - g1) / (q1 + mpmath.sqrt(bsq + q2x4 * kcb1 * y)) * b1c
                       for kcb1, g1, q2x4, q1, bsq, b1c in terms) - need

        bracket = (1 / (price * (1 + mpf(1e-9))), 1 / (price * (1 - mpf(1e-9))))
        assert excess(bracket[0]) < 0 < excess(bracket[1])
        return float(1 / mpmath.findroot(excess, bracket, solver="anderson"))


@given(sc=wide_scenarios(max_users=2, min_users=2), depth=st.floats(-15.0, 6.0))
@example(sc=make_random_scenario(np.random.default_rng(0), 2), depth=-15.0)
def test_pair_price_is_within_a_few_ulps_of_the_50_digit_root(sc, depth):
    # the price at which two users on the curve demand need, at a price 10^depth relatively below the first
    # slope(0), where one user leaves the curve (barely on it at depth -15), in both orders of the pair:
    # swapping them scales the t^2 coefficient A by -1 / (r^2 rho), so both signs are read on every draw.
    # measured: within 9 ulps here and over 6,000 more such draws (PAIR_ULPS); the price is read from
    # h_i(t_i), which doubles t_i's rounding where t_i is large
    core = _Core.of(sc)
    price = float(core.slope(0.0).min()) / (1.0 + 10.0**depth)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        need = float(_power_demand(core, price).sum())
        assume(need > 0.0)
        got = [float(auction._pair_price(core, i, j, need)) for i, j in ((0, 1), (1, 0))]
    root = _mp_pair_root(core, need, got[0])
    assert max(abs(p - root) for p in got) <= PAIR_ULPS * math.ulp(root)


# ---------------------------------------------------------------------------
# demand rows from the per-user thresholds


def _assert_rows_equal_clamped_reference(sc, slack):
    """demands equals the clamped rows of reference_demands at every user's cutoff and
    the ulp above, its zero_from and the ulp below, its full_from and the ulps on both sides,
    and 64 prices spanning them, except where the two rules read the rounding of one demand.

    Within a few ulps of a user's full_from its interior demand is (1 - FULL_BUDGET_RTOL) P only
    to its rounding.  The reference tested the rounded demand against that mark and the rows
    test the price against full_from, so there one may take the budget P where the other takes
    the demand (seen up to 9 ulps from full_from).  The demand is then within slack of P:
    1.0001e-9 seen on the study and the sweep, 5.6e-5 on wide draws, whose users near their SNR
    limit round the demand more coarsely.
    """
    up, down = (lambda x: np.nextafter(x, math.inf)), (lambda x: np.nextafter(x, -math.inf))
    for kind in KINDS:
        users = _UserArrays.of(sc, kind)
        c, z, f = (x[users.zero_from > 0.0] for x in (users.cutoff, users.zero_from, users.full_from))
        if not z.size:
            continue
        prices = np.concatenate([c, up(c), z, down(z), down(f), f, up(f)])
        prices = prices[prices > 0.0]
        prices = np.concatenate([prices, np.geomspace(prices.min() / 2.0, 2.0 * prices.max(), 64)])[:, None]
        with np.errstate(all="ignore"):  # a wide draw's prices can overflow another user's closed form
            new, ref = users.demands(prices), reference_demands(users, prices)
        differ = (new != ref) & ~(np.isnan(new) & np.isnan(ref))
        near = np.abs(prices - users.full_from) <= 16.0 * np.spacing(users.full_from)
        assert not (differ & ~near).any(), (kind, np.argwhere(differ & ~near))
        assert np.all(np.maximum(new, ref)[differ] == users.budget)
        assert np.all(np.minimum(new, ref)[differ] >= (1.0 - slack) * users.budget)


def test_demand_rows_equal_clamped_reference_on_study_and_sweep(bench_spec):
    sweep = [build_two_user_scenario(bench_spec, float(y)) for y in bench_spec.relay_ys()]
    for sc in sweep + study_scenarios(100):
        _assert_rows_equal_clamped_reference(sc, 2e-9)


@given(sc=wide_scenarios())
def test_demand_rows_equal_clamped_reference_on_wide_draws(sc):
    _assert_rows_equal_clamped_reference(sc, 1e-4)


def test_demand_rows_never_exceed_the_budget_past_full_from():
    # a wide draw's user at 1 - 2.5e-9 of its SNR limit: unclamped, its SNR demand rounds
    # past the budget, by up to 3.5e-6 P, within 200 ulps above full_from
    sys = SystemParams(1e6, 7.11960621066766e-11, 4.0)
    link = UserLink(0, 0.0077374620365855094, 4.401330041794602e-14, 6.442508559664186e-11, 2.068214727141741e-4)
    users = one_user(link, SNR, 138.67811125543045, sys)
    assert users.snr_max[0] > (1.0 - 1e-8) * users.b[0] and users.regular[0]
    prices = users.full_from[0] * (1.0 + np.arange(1.0, 200.0) * 2.0**-52)
    assert np.all(users.demands(prices[:, None]) <= users.budget)


def test_full_budget_mark_is_one_part_in_a_billion():
    # a demand x of (1 - 1e-8) P lies between (1 - 1e-7) P and (1 - FULL_BUDGET_RTOL) P: it is
    # interior, its factor finite and counted in S as x / P; at and just below full_from the
    # user takes the budget, and just above it demands about (1 - FULL_BUDGET_RTOL) P
    link = _bench_link_2()
    x = BUDGET * (1.0 - 1e-8)
    for users, price in (
        (_power_user(link), rate_increase_power_slope(link, x, BENCH_SYSTEM)),
        (_snr_user(link), snr_marginal_rate(link, relayed_snr(link, x, BENCH_SYSTEM), BENCH_SYSTEM)),
    ):
        assert users.regular[0]
        demand = users.demands(price)[0]
        assert (1.0 - 1e-7) * BUDGET < demand < (1.0 - 1e-9) * BUDGET
        assert demand == pytest.approx(x, rel=1e-12)
        assert np.isfinite(users.factors(price)[0])
        assert users.shares([price])[0] == demand / BUDGET
        full_from = users.full_from[0]
        assert users.demands(full_from)[0] == users.demands(np.nextafter(full_from, 0.0))[0] == BUDGET
        above = users.demands(np.nextafter(full_from, math.inf))[0]
        assert above / BUDGET == pytest.approx(1.0 - FULL_BUDGET_RTOL, abs=1e-13)


# ---------------------------------------------------------------------------
# regularity


def test_regularity_far_relay_false():
    sysp = BENCH_SYSTEM
    users = tuple(
        UserLink(i, 0.01, 6.25e-10, 1e-12, 1e-12) for i in range(3)
    )  # hopeless relay links
    sc = NetworkScenario(users, BUDGET, sysp)
    assert not _UserArrays.of(sc, SNR).regular.any()
    assert not _UserArrays.of(sc, POWER).regular.any()


def test_regularity_bench_scenario(scenario_y0):
    assert _UserArrays.of(scenario_y0, SNR).regular.any()
    assert _UserArrays.of(scenario_y0, POWER).regular.any()


def test_regularity_single_user_copy(scenario_y0):
    one = NetworkScenario((scenario_y0.users[1],), BUDGET, BENCH_SYSTEM)
    assert _UserArrays.of(one, SNR).regular.any()


def test_auction_params_validation():
    with pytest.raises(ValueError):
        AuctionParams("nope", 1.0)
    with pytest.raises(ValueError):
        AuctionParams("snr", 0.0)
    with pytest.raises(ValueError):
        AuctionParams("snr", 1.0, reserve_bid=0.0)
