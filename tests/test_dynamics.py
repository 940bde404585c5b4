"""Best-response iteration, equilibrium solving, thresholds, calibration."""

import pickle

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from relayauction import (
    KINDS,
    AuctionParams,
    EquilibriumResult,
    MultiUserSpec,
    NetworkScenario,
    NoEquilibrium,
    UserLink,
    aggregate_share,
    allocate,
    build_two_user_scenario,
    calibrate_price,
    critical_prices,
    estimate_geometric_rate,
    is_power_regular,
    iterate_best_response,
    ne_bids_from_factors,
    ne_exists,
    payoff,
    response_factors,
    sample_topologies,
    scenario_from_topology,
    solve_ne,
    threshold_price,
    update_matrix,
)
from relayauction.auction import _UserArrays, divergence_cutoff
from relayauction.dynamics import THRESHOLD_RTOL, IterationTrace

from conftest import (
    BENCH_SYSTEM,
    make_random_scenario,
    make_snr_regular_scenarios,
    reference_bisect,
    snr_equal_level_prediction,
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


def test_iterate_two_user_residual_ratio(scenario_y0):
    # two-user alternating structure contracts at sqrt(f1 * f2) per step
    pr = calibrate_price(scenario_y0, "snr", 0.9)
    params = AuctionParams("snr", pr.price)
    factors = [f.value for f in response_factors(scenario_y0, params)]
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
    share = aggregate_share(response_factors(scenario_y0, params))
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
    factors = [f.value for f in response_factors(scenario_y25, params)]
    expected_bids = ne_bids_from_factors(factors, params.reserve_bid)
    assert eq.bids == pytest.approx(expected_bids, rel=1e-6, abs=1e-9)
    assert eq.utilization == pytest.approx(aggregate_share(response_factors(scenario_y25, params)), abs=1e-8)


def test_power_iteration_from_former_multistarts_matches_solve_ne():
    # the power auction was once solved by iterating from these five starts;
    # all of them must reach the closed-form fixed point solve_ne returns
    rng = np.random.default_rng(2008)
    scenarios, live = 0, 0
    while scenarios < 20:
        sc = make_random_scenario(rng, int(rng.integers(2, 6)))
        if not is_power_regular(sc):
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
            assert ne_exists(sc, params) == isinstance(solve_ne(sc, params), EquilibriumResult)


# ---------------------------------------------------------------------------
# threshold price


def test_threshold_price_transition(scenario_y0):
    th = threshold_price(scenario_y0, "snr")
    assert th > 0.0 and np.isfinite(th)
    assert isinstance(solve_ne(scenario_y0, AuctionParams("snr", th * 1.01)), EquilibriumResult)
    assert isinstance(solve_ne(scenario_y0, AuctionParams("snr", th * 0.99)), NoEquilibrium)


def test_threshold_above_divergence_cutoffs(scenario_y0):
    th = threshold_price(scenario_y0, "snr")
    bound = max(
        divergence_cutoff(u, "snr", BUDGET, BENCH_SYSTEM) for u in scenario_y0.users
    )
    assert th >= bound * (1 - 1e-9)


def test_threshold_cross_checked_by_grid_scan(scenario_y0):
    th = threshold_price(scenario_y0, "snr")
    prices = np.geomspace(th * 0.5, th * 2.0, 400)
    exists = np.array([ne_exists(scenario_y0, AuctionParams("snr", float(p))) for p in prices])
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


def _study_scenarios(n_topologies=4):
    """The first topologies of the 20-user population study, at each of its budgets."""
    spec = MultiUserSpec()
    return [
        scenario_from_topology(spec, nodes, budget)
        for nodes in sample_topologies(spec)[:n_topologies]
        for budget in spec.relay_powers
    ]


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
    for sc in scenarios + _study_scenarios():
        for kind in KINDS:
            if _UserArrays.of(sc, kind).regular.any():
                yield sc, kind


def test_price_searches_equal_one_price_at_a_time_search(bench_spec):
    checked = []
    for sc, kind in _regular_cases(bench_spec):
        users = _UserArrays.of(sc, kind)
        (t_over, t_under), (c_over, c_under) = _reference_starts(users, (1.0, 0.99))
        p_none, p_some = reference_bisect(
            lambda p: _scalar_share(users, p) < 1.0, t_over, t_under, THRESHOLD_RTOL
        )[0]
        assert threshold_price(sc, kind) == 0.5 * (p_none + p_some)
        share = _scalar_share(users, p_some)
        if share < 0.99:
            want = (p_some, share, False, (p_none, p_some))
        else:
            bracket = reference_bisect(lambda p: _scalar_share(users, p) < 0.99, c_over, c_under, 1e-9)[0]
            price = max(bracket[0], p_some)
            want = (price, _scalar_share(users, price), True, bracket)
        res = calibrate_price(sc, kind, 0.99)
        assert (res.price, res.utilization, res.feasible, res.bracket) == want
        assert res.threshold_bracket == (p_none, p_some)
        checked.append(res.feasible)
    # 130 regular cases, both calibration outcomes among them
    assert len(checked) >= 120 and 0 < sum(checked) < len(checked)


def test_calibrated_price_has_the_reported_equilibrium(bench_spec):
    for sc, kind in _regular_cases(bench_spec):
        res = calibrate_price(sc, kind, 0.99)
        eq = solve_ne(sc, AuctionParams(kind, res.price))
        assert isinstance(eq, EquilibriumResult)
        assert eq.utilization == pytest.approx(res.utilization, rel=0.0, abs=1e-12)
        assert threshold_price(sc, kind) == 0.5 * sum(res.threshold_bracket)
        p_some = res.threshold_bracket[1]
        if res.feasible:
            assert res.price >= p_some and eq.utilization >= 0.99 - 1e-9
        else:
            assert res.price == p_some and res.utilization < 0.99


def test_share_at_threshold_search_start_is_at_least_one(bench_spec):
    # any price at or below the largest divergence cutoff has a divergent user
    for sc, kind in _regular_cases(bench_spec):
        users = _UserArrays.of(sc, kind)
        lo = float(users.cutoff.max()) * (1.0 - 1e-7)
        assert users.shares([lo, float(users.cutoff.max())]).min() >= 1.0


def test_calibration_evaluates_factors_few_times(monkeypatch):
    sc = _study_scenarios(1)[0]
    calls = []
    shares = _UserArrays.shares

    def counted(self, prices):
        calls.append(np.shape(prices))
        return shares(self, prices)

    monkeypatch.setattr(_UserArrays, "shares", counted)
    res = calibrate_price(sc, "power", 0.99)
    # at most one ladder call, then one call per five steps of both searches together
    assert len(calls) == res.evaluations <= 10


def test_user_arrays_built_once_per_scenario_and_kind(monkeypatch, bench_spec):
    builds = []
    init = _UserArrays.__init__

    def counted(self, users, budget, sys, kind):
        builds.append((len(users), kind))
        init(self, users, budget, sys, kind)

    monkeypatch.setattr(_UserArrays, "__init__", counted)
    sc = build_two_user_scenario(bench_spec, 0.0)
    for kind in KINDS:
        price = calibrate_price(sc, kind, 0.99).price
        params = AuctionParams(kind, price)
        assert isinstance(solve_ne(sc, params), EquilibriumResult)
        threshold_price(sc, kind)
        ne_exists(sc, params)
        response_factors(sc, params)
        iterate_best_response(sc, params, [0.0, 0.0])
    assert builds == [(2, kind) for kind in KINDS]
    calibrate_price(sc.without_user(0), "power", 0.99)
    assert builds[-1] == (1, "power")
    # the memo is no field: equality, hashing, the repr and pickling ignore it
    fresh = build_two_user_scenario(bench_spec, 0.0)
    assert sc == fresh and hash(sc) == hash(fresh) and repr(sc) == repr(fresh)
    assert pickle.loads(pickle.dumps(sc)) == fresh


def test_user_arrays_are_read_only(scenario_y0):
    for kind in KINDS:
        users = _UserArrays.of(scenario_y0, kind)
        arrays = [a for a in (*vars(users).values(), *users.links) if isinstance(a, np.ndarray)]
        assert len(arrays) >= 15
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
        factors = response_factors(sc, params)
        if any(f.is_infinite for f in factors):
            continue
        rho = float(np.max(np.abs(np.linalg.eigvals(update_matrix([f.value for f in factors])))))
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
    factors = response_factors(sc, AuctionParams(kind, price))
    return sum(1.0 if f.is_infinite else f.value / (1.0 + f.value) for f in factors)


def _price_grid(sc, kind, th, n=40):
    """Sorted log-spaced prices from half the threshold to twice the largest pi_hat."""
    hats = [critical_prices(u, kind, sc.relay_budget_w, sc.system).pi_hat for u in sc.users]
    return np.geomspace(0.5 * th, 2.0 * max(hats), n)


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
