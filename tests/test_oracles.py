"""Centralized benchmarks: exact efficient split, fair level, pivot payments."""

import numpy as np
import pytest

import relayauction.oracles as oracles
from relayauction import (
    POWER,
    AuctionParams,
    EquilibriumResult,
    MultiUserSpec,
    NetworkScenario,
    TwoUserSweepSpec,
    UserLink,
    build_two_user_scenario,
    calibrate_price,
    direct_snr,
    efficient_allocation,
    fair_allocation,
    rate_increase,
    relayed_snr,
    sample_topologies,
    scenario_from_topology,
    snr_marginal_rate,
    solve_ne,
    vcg_auction,
)
from relayauction.auction import _UserArrays
from relayauction.channel import breakeven_power, power_for_relayed_snr, relayed_snr_limit

from conftest import BENCH_SYSTEM, make_random_scenario, reference_bisect

BUDGET = 0.1


def _useless_scenario(n=2):
    users = tuple(UserLink(i, 0.01, 6.25e-10, 1e-12, 1e-12) for i in range(n))
    return NetworkScenario(users, BUDGET, BENCH_SYSTEM)


def brute_force_welfare(scenario, budget, n=241):
    """Full-simplex grid over every feasible split, interior included."""
    sys = scenario.system
    if scenario.n_users == 1:
        xs = np.linspace(0.0, budget, 4 * n)
        return float(np.max(rate_increase(scenario.users[0], xs, sys)))
    if scenario.n_users == 2:
        best = 0.0
        for x0 in np.linspace(0.0, budget, n):
            xs = np.linspace(0.0, budget - x0, n)
            w = float(rate_increase(scenario.users[0], x0, sys)) + np.asarray(
                rate_increase(scenario.users[1], xs, sys)
            )
            best = max(best, float(w.max()))
        return best
    raise NotImplementedError


def enumerated_welfare(scenario, delta):
    """Best welfare over every nonempty participant set, one forced-in water-filling each.

    The efficient welfare is the largest, over participant sets, of the
    concave water-filling on the set; this enumerates all 2^n - 1 sets as
    rows of one solve, so it is meant for n <= 8.
    """
    n = scenario.n_users
    budget = scenario.relay_budget_w * (1.0 - delta)
    relax = oracles._Relaxation(_UserArrays(scenario.users, budget, scenario.system, POWER))
    sets = (np.arange(1, 2**n)[:, None] >> np.arange(n) & 1).astype(bool)
    x = relax.solve(sets, np.zeros_like(sets))[1]
    assert np.all(x.sum(axis=1) <= budget * (1 + 1e-12))
    return float(oracles._welfare(scenario, x).max())


# ---------------------------------------------------------------------------
# efficient allocation


def test_efficient_useless_relay_zero():
    alloc = efficient_allocation(_useless_scenario(), delta=0.01)
    assert np.all(alloc.powers == 0.0)
    assert alloc.total_rate_increase_bps == 0.0


def test_efficient_single_user_gets_everything():
    link = UserLink(0, 0.01, 200.0**-4, 80.0**-4, 120.0**-4)
    sc = NetworkScenario((link,), BUDGET, BENCH_SYSTEM)
    alloc = efficient_allocation(sc, delta=0.01)
    assert alloc.powers[0] == pytest.approx(BUDGET * 0.99, rel=1e-9)
    assert alloc.total_rate_increase_bps > 0.0


def test_efficient_single_user_zero_when_hopeless():
    sc = _useless_scenario(n=1)
    alloc = efficient_allocation(sc, delta=0.01)
    assert alloc.powers[0] == 0.0


def test_efficient_welfare_nondecreasing_in_budget_with_certified_gap(scenario_y25):
    welfare = []
    for budget in np.geomspace(1e-4, 10.0, 64):
        alloc = efficient_allocation(NetworkScenario(scenario_y25.users, budget, BENCH_SYSTEM), delta=0.0)
        assert alloc.certified_gap <= 1e-12
        welfare.append(alloc.total_rate_increase_bps)
    # more power can always be spent as before
    assert all(b >= a * (1.0 - 1e-12) for a, b in zip(welfare, welfare[1:]))
    assert welfare[0] < welfare[-1]


def test_efficient_matches_brute_force_grid(scenario_y25, scenario_y0):
    for sc in (scenario_y25, scenario_y0):
        alloc = efficient_allocation(sc, delta=0.0)
        brute = brute_force_welfare(sc, BUDGET)
        assert alloc.total_rate_increase_bps >= brute * (1 - 1e-6)


def test_efficient_beats_auction_totals(scenario_y25, scenario_y0):
    for sc in (scenario_y25, scenario_y0):
        eff = efficient_allocation(sc, delta=0.0)
        for kind in ("snr", "power"):
            pr = calibrate_price(sc, kind, 0.99)
            eq = solve_ne(sc, AuctionParams(kind, pr.price))
            assert isinstance(eq, EquilibriumResult)
            assert eff.total_rate_increase_bps >= eq.total_rate_increase_bps * (1 - 1e-9)


def test_efficient_respects_budget_and_nonnegativity():
    rng = np.random.default_rng(17)
    for _ in range(10):
        sc = make_random_scenario(rng, int(rng.integers(1, 6)))
        alloc = efficient_allocation(sc, delta=0.01, grid_n=256)
        assert np.all(alloc.powers >= 0.0)
        assert alloc.powers.sum() <= BUDGET * 0.99 * (1 + 1e-12)


def test_efficient_multiuser_path_beats_seeds():
    rng = np.random.default_rng(23)
    sc = make_random_scenario(rng, 6)
    budget = BUDGET * 0.99
    alloc = efficient_allocation(sc, delta=0.01, grid_n=256)
    # no single-user concentration does better than the returned split
    for i in range(sc.n_users):
        one = np.zeros(sc.n_users)
        one[i] = budget
        assert alloc.total_rate_increase_bps >= oracles._welfare(sc, one) * (1 - 1e-9)


def test_efficient_matches_participant_set_enumeration():
    rng = np.random.default_rng(79)
    # no one gains, and ties between the permutations of equal users
    twin = UserLink(0, 0.01, 200.0**-4, 80.0**-4, 120.0**-4)
    tied = [_useless_scenario(3), NetworkScenario((twin,) * 3, BUDGET, BENCH_SYSTEM)]
    scenarios = tied + [make_random_scenario(rng, int(rng.integers(2, 9))) for _ in range(30)]
    shared = 0
    for delta in (0.0, 0.01):
        for sc in scenarios:
            alloc = efficient_allocation(sc, delta=delta)
            assert alloc.total_rate_increase_bps == pytest.approx(
                enumerated_welfare(sc, delta), rel=1e-12, abs=0.0
            )
            assert alloc.powers.sum() <= sc.relay_budget_w * (1 - delta) * (1 + 1e-12)
            assert 1 <= alloc.nodes and 0.0 <= alloc.certified_gap <= 1e-12
            shared += int(np.count_nonzero(alloc.powers) >= 2)
    assert shared >= 20


def _pair_welfare(u0, u1, pool, t):
    rest = np.maximum(pool - t, 0.0)
    return rate_increase(u0, t, BENCH_SYSTEM) + rate_increase(u1, rest, BENCH_SYSTEM)


def _grid_best_three_by_rows(scenario, budget, grid_n):
    """Best three-user split on the grid_n-point budget grid, one k at a time."""
    t = np.linspace(0.0, budget, grid_n)
    g0, g1, g2 = (np.asarray(rate_increase(u, t, scenario.system)) for u in scenario.users)
    best_w, best = -np.inf, None
    for k in range(grid_n):
        w = g0[k] + g1[: grid_n - k] + g2[grid_n - 1 - k :: -1]  # user 2 takes t[N-1-k-m]
        m = int(np.argmax(w))
        if w[m] > best_w:
            best_w, best = w[m], np.array([t[k], t[m], budget - t[k] - t[m]])
    return best_w, best


@pytest.mark.parametrize("grid_n", [256, 1024])
def test_grid_best_three_blocks_match_row_loop(grid_n):
    # the exact three-user split is never beaten by the row-by-row grid search,
    # and a grid_n passed to the oracle leaves its split unchanged
    rng = np.random.default_rng(67)
    # ties everywhere (no one gains) and between the permutations of equal users
    twin = UserLink(0, 0.01, 200.0**-4, 80.0**-4, 120.0**-4)
    tied = [_useless_scenario(3), NetworkScenario((twin,) * 3, BUDGET, BENCH_SYSTEM)]
    for sc in tied + [make_random_scenario(rng, 3) for _ in range(6)]:
        alloc = efficient_allocation(sc, delta=0.0, grid_n=grid_n)
        assert np.array_equal(alloc.powers, efficient_allocation(sc, delta=0.0).powers)
        grid_w, grid_x = _grid_best_three_by_rows(sc, sc.relay_budget_w, grid_n)
        assert oracles._welfare(sc, grid_x) == pytest.approx(grid_w, rel=1e-12, abs=0.0)
        assert alloc.total_rate_increase_bps >= grid_w * (1.0 - 1e-12)
        assert alloc.powers.min() >= 0.0
        assert alloc.powers.sum() <= sc.relay_budget_w * (1 + 1e-12)
        if grid_w == 0.0:
            assert alloc.total_rate_increase_bps == 0.0


@pytest.mark.parametrize("grid_n", [65, 4096])
def test_line_search_pair_reaches_dense_grid_optimum(grid_n):
    rng = np.random.default_rng(71)
    positive = 0
    for _ in range(30):
        sc = make_random_scenario(rng, 2)
        u0, u1 = sc.users
        pools = BUDGET * 10.0 ** rng.uniform(-4.0, 0.0, size=6)
        for pool in pools:
            pooled = NetworkScenario(sc.users, pool, BENCH_SYSTEM)
            alloc = efficient_allocation(pooled, delta=0.0, grid_n=grid_n)
            assert np.array_equal(alloc.powers, efficient_allocation(pooled, delta=0.0).powers)
            x0, x1 = alloc.powers
            assert min(x0, x1) >= 0.0 and x0 + x1 <= pool * (1 + 1e-12)
            v = alloc.total_rate_increase_bps
            dense = _pair_welfare(u0, u1, pool, np.linspace(0.0, pool, 2**16))
            assert v >= dense.max() * (1.0 - 1e-12)
            assert v == pytest.approx(
                float(rate_increase(u0, x0, BENCH_SYSTEM) + rate_increase(u1, x1, BENCH_SYSTEM)),
                rel=1e-15,
            )
            positive += bool(v > 0.0)
    assert positive >= 40


def _power_equilibria():
    """Calibrated power-auction equilibria: the sweep, and 10 study topologies at every budget."""
    sweep = TwoUserSweepSpec()
    scenarios = [build_two_user_scenario(sweep, float(y)) for y in sweep.relay_ys()]
    study = MultiUserSpec()
    for nodes in sample_topologies(study)[:10]:
        scenarios += [scenario_from_topology(study, nodes, p) for p in study.relay_powers]
    for sc in scenarios:
        eq = solve_ne(sc, AuctionParams(POWER, calibrate_price(sc, POWER, 0.99).price))
        assert isinstance(eq, EquilibriumResult)
        yield sc, eq


def test_power_auction_split_is_efficient_at_its_used_budget():
    # Everett: each demand maximizes r_i(x) - price x, so the equilibrium split
    # is the efficient split of the power it uses
    live = 0
    for sc, eq in _power_equilibria():
        used = float(eq.powers.sum())
        if used == 0.0:
            continue
        eff = efficient_allocation(NetworkScenario(sc.users, used, sc.system), delta=0.0)
        assert eq.total_rate_increase_bps == pytest.approx(eff.total_rate_increase_bps, rel=1e-12)
        live += 1
    assert live >= 100


def test_efficient_validates_arguments(scenario_y0):
    with pytest.raises(ValueError):
        efficient_allocation(scenario_y0, delta=1.0)
    with pytest.raises(ValueError):
        efficient_allocation(scenario_y0, grid_n=4)


# ---------------------------------------------------------------------------
# fair allocation


def test_fair_equal_direct_snr_gives_equal_snr_increase(scenario_y0):
    alloc = fair_allocation(scenario_y0, delta=0.01)
    snrs = [
        float(relayed_snr(u, float(p), BENCH_SYSTEM))
        for u, p in zip(scenario_y0.users, alloc.powers)
    ]
    assert snrs[0] > 0.0
    assert snrs[0] == pytest.approx(snrs[1], rel=1e-6)
    assert alloc.per_user_rate_increase_bps[0] == pytest.approx(
        alloc.per_user_rate_increase_bps[1], rel=1e-9
    )


def test_fair_marginals_equal(scenario_y0, scenario_ym25):
    for sc in (scenario_y0, scenario_ym25):
        alloc = fair_allocation(sc, delta=0.01)
        participants = alloc.per_user_rate_increase_bps > 0.0
        marg = alloc.marginal_utility[participants]
        assert marg.size >= 1
        assert np.max(marg) - np.min(marg) <= 1e-8 * np.max(marg)
        # every participant has a strictly positive SNR gain
        for i in np.flatnonzero(participants):
            assert float(relayed_snr(sc.users[i], float(alloc.powers[i]), BENCH_SYSTEM)) > 0.0


def test_fair_marginal_value_is_consistent(scenario_y0):
    alloc = fair_allocation(scenario_y0, delta=0.01)
    for i, u in enumerate(scenario_y0.users):
        if alloc.per_user_rate_increase_bps[i] <= 0:
            continue
        snr = float(relayed_snr(u, float(alloc.powers[i]), BENCH_SYSTEM))
        assert alloc.marginal_utility[i] == pytest.approx(
            snr_marginal_rate(u, snr, BENCH_SYSTEM), rel=1e-12
        )


def test_fair_no_participants_when_hopeless():
    alloc = fair_allocation(_useless_scenario(), delta=0.01)
    assert np.all(alloc.powers == 0.0)
    assert alloc.total_rate_increase_bps == 0.0


def test_fair_budget_binding(scenario_y0):
    alloc = fair_allocation(scenario_y0, delta=0.01)
    assert alloc.powers.sum() == pytest.approx(BUDGET * 0.99, rel=1e-9)
    assert alloc.powers.sum() <= BUDGET * 0.99 * (1 + 1e-12)


def test_fair_drops_user_whose_gain_would_vanish():
    # second user's relay path is too weak to break even: must end at zero
    strong = UserLink(0, 0.01, 200.0**-4, 80.0**-4, 120.0**-4)
    weak = UserLink(1, 0.01, 6.25e-10, 1e-12, 1e-12)
    sc = NetworkScenario((strong, weak), BUDGET, BENCH_SYSTEM)
    alloc = fair_allocation(sc, delta=0.01)
    assert alloc.powers[1] == 0.0
    assert alloc.per_user_rate_increase_bps[0] > 0.0


def reference_fair_powers(scenario, delta):
    """The fair split user by user: one user's power per call, one level per bisection step."""
    budget = scenario.relay_budget_w * (1.0 - delta)
    sys = scenario.system
    users = scenario.users

    def power_needed(i, level):
        target = level - 1.0 - direct_snr(users[i], sys)
        if target <= 0.0:
            return 0.0
        if target >= relayed_snr_limit(users[i], sys):
            return float("inf")
        return power_for_relayed_snr(users[i], target, sys)

    active = [
        i
        for i, u in enumerate(users)
        if breakeven_power(u, sys) is not None and breakeven_power(u, sys) < budget
    ]
    level = 1.0
    while active:
        hi = min(1.0 + direct_snr(users[i], sys) + relayed_snr_limit(users[i], sys) for i in active)
        hi *= 1.0 - 1e-12

        def fits(k):
            return sum(power_needed(i, k) for i in active) <= budget

        level = hi if fits(hi) else reference_bisect(fits, hi, 1.0, 1e-13)[0][1]
        drops = [i for i in active if level <= (1.0 + direct_snr(users[i], sys)) ** 2]
        if not drops:
            break
        active = [i for i in active if i not in drops]
    return np.array([power_needed(i, level) if i in active else 0.0 for i in range(len(users))])


def test_fair_equals_user_by_user_reference(bench_spec):
    rng = np.random.default_rng(11)
    scenarios = [build_two_user_scenario(bench_spec, float(y)) for y in bench_spec.relay_ys()]
    for _ in range(40):
        sc = make_random_scenario(rng, int(rng.integers(1, 25)))
        for budget in (1e-4, 0.1, 30.0):
            scenarios.append(NetworkScenario(sc.users, budget, BENCH_SYSTEM))
    for sc in scenarios:
        assert np.array_equal(fair_allocation(sc, delta=0.01).powers, reference_fair_powers(sc, 0.01))


def test_fair_participation_matches_subset_search(scenario_y0, scenario_y25):
    # exhaustive subset check: no participant set beats the iterative-drop level
    for sc in (scenario_y0, scenario_y25):
        alloc = fair_allocation(sc, delta=0.01)
        chosen = tuple(np.flatnonzero(alloc.powers > 0.0))
        budget = BUDGET * 0.99

        def subset_level(members):
            lo_level, hi_level = 1.0, None
            hi_level = min(
                1.0 + direct_snr(sc.users[i], BENCH_SYSTEM)
                + 0.01 * 0 + (sc.users[i].source_power_w * sc.users[i].gain_sr / BENCH_SYSTEM.noise_w)
                for i in members
            ) * (1 - 1e-12)

            def total(level):
                s = 0.0
                for i in members:
                    u = sc.users[i]
                    t = level - 1.0 - direct_snr(u, BENCH_SYSTEM)
                    if t <= 0:
                        continue
                    limit = u.source_power_w * u.gain_sr / BENCH_SYSTEM.noise_w
                    if t >= limit:
                        return float("inf")
                    a = t * (limit + 1) / (limit - t)
                    s += a * BENCH_SYSTEM.noise_w / u.gain_rd
                return s

            for _ in range(200):
                mid = 0.5 * (lo_level + hi_level)
                if total(mid) <= budget:
                    lo_level = mid
                else:
                    hi_level = mid
            return lo_level

        if chosen:
            level_chosen = subset_level(chosen)
            # all-user subsets either match or force some member below breakeven
            for bits in range(1, 2 ** sc.n_users):
                members = tuple(i for i in range(sc.n_users) if bits & (1 << i))
                if not all(
                    breakeven_power(sc.users[i], BENCH_SYSTEM) is not None
                    and breakeven_power(sc.users[i], BENCH_SYSTEM) < budget
                    for i in members
                ):
                    continue
                lvl = subset_level(members)
                ok = all(lvl > (1 + direct_snr(sc.users[i], BENCH_SYSTEM)) ** 2 for i in members)
                if ok and set(members) == set(chosen):
                    assert lvl == pytest.approx(level_chosen, rel=1e-9)


# ---------------------------------------------------------------------------
# pivot payments


def test_vcg_single_user_pays_nothing():
    link = UserLink(0, 0.01, 200.0**-4, 80.0**-4, 120.0**-4)
    sc = NetworkScenario((link,), BUDGET, BENCH_SYSTEM)
    res = vcg_auction(sc, delta=0.01)
    assert res.payments[0] == 0.0


def test_vcg_zero_allocation_user_pays_nothing(scenario_y25):
    # add a hopeless third user: it gets nothing and pays nothing
    users = scenario_y25.users + (UserLink(2, 0.01, 6.25e-10, 1e-12, 1e-12),)
    sc = NetworkScenario(users, BUDGET, BENCH_SYSTEM)
    res = vcg_auction(sc, delta=0.0, grid_n=1024)
    assert res.allocation.powers[2] == 0.0
    assert res.payments[2] == 0.0


def test_vcg_solves_nothing_more_for_users_given_no_power(monkeypatch, scenario_y25):
    users = scenario_y25.users + (UserLink(2, 0.01, 6.25e-10, 1e-12, 1e-12),)
    sc = NetworkScenario(users, BUDGET, BENCH_SYSTEM)
    calls = []
    real = oracles.efficient_allocation

    def counting(scenario, *args, **kwargs):
        calls.append(scenario.n_users)
        return real(scenario, *args, **kwargs)

    monkeypatch.setattr(oracles, "efficient_allocation", counting)
    res = oracles.vcg_auction(sc, delta=0.0)
    assert calls == [3] + [2] * int(np.count_nonzero(res.allocation.powers))
    assert res.allocation.powers[2] == 0.0 and res.payments[2] == 0.0


def test_vcg_allocation_is_efficient(scenario_y25):
    res = vcg_auction(scenario_y25, delta=0.0)
    eff = efficient_allocation(scenario_y25, delta=0.0)
    assert res.allocation.total_rate_increase_bps == pytest.approx(
        eff.total_rate_increase_bps, rel=1e-12
    )


def test_vcg_payments_nonnegative_and_individually_rational():
    rng = np.random.default_rng(8)
    for _ in range(50):
        sc = make_random_scenario(rng, int(rng.integers(1, 4)))
        res = vcg_auction(sc, delta=0.01, grid_n=256)
        assert np.all(res.payments >= 0.0)
        slack = 1e-7 * max(res.allocation.total_rate_increase_bps, 1.0)
        assert np.all(res.payments <= res.allocation.per_user_rate_increase_bps + slack)


def test_vcg_runs_one_welfare_solve_per_user_plus_one(monkeypatch, scenario_y0):
    calls = {"n": 0}
    real = oracles.efficient_allocation

    def counting(*args, **kwargs):
        calls["n"] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(oracles, "efficient_allocation", counting)
    oracles.vcg_auction(scenario_y0, delta=0.0, grid_n=256)
    assert calls["n"] == scenario_y0.n_users + 1


# ---------------------------------------------------------------------------
# arguments kept from the grid search


@pytest.mark.parametrize(
    "seed, match",
    [
        ([0.05, 0.05], r"seeds\[1\] has shape \(2,\)"),
        ([0.02] * 5, r"seeds\[1\] has shape \(5,\)"),
        ([0.02, -0.01, 0.02, 0.02], r"seeds\[1\] must hold finite nonnegative powers"),
        ([0.02, np.nan, 0.02, 0.02], r"seeds\[1\] must hold finite nonnegative powers"),
        ([0.02, np.inf, 0.02, 0.02], r"seeds\[1\] must hold finite nonnegative powers"),
    ],
    ids=["short", "long", "negative", "nan", "inf"],
)
def test_efficient_rejects_malformed_seed(seed, match):
    sc = make_random_scenario(np.random.default_rng(5), 4)
    with pytest.raises(ValueError, match=match):
        efficient_allocation(sc, grid_n=256, seeds=([0.02] * 4, seed))


def test_efficient_matches_brute_force_on_random_pairs():
    rng = np.random.default_rng(73)
    positive = 0
    for _ in range(20):
        sc = make_random_scenario(rng, 2)
        alloc = efficient_allocation(sc, delta=0.0)
        brute = brute_force_welfare(sc, BUDGET)
        assert alloc.total_rate_increase_bps >= brute * (1 - 1e-6)
        positive += bool(brute > 0.0)
    assert positive >= 5
