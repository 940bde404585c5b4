"""Shared fixtures: the benchmark two-user geometry and random scenarios."""

import math
from typing import Callable, NamedTuple

import mpmath
import numpy as np
import pytest
from hypothesis import assume, settings
from hypothesis import strategies as st

from relayauction import (
    MultiUserSpec,
    NetworkScenario,
    SystemParams,
    TwoUserSweepSpec,
    UserLink,
    build_two_user_scenario,
    link_from_geometry,
    run_two_user_sweep,
    sample_topologies,
    scenario_from_topology,
)
from relayauction.auction import (
    FULL_BUDGET_RTOL,
    POWER,
    SNR,
    _Core,
    _power_cutoff,
    _power_demand,
    _rule,
    _UserArrays,
)
from relayauction.channel import (
    LN2,
    _log_gain,
    direct_snr,
    rate_increase,
    relayed_snr,
    relayed_snr_limit,
)

# property tests draw the same examples on every run, so tier-1 stays deterministic
settings.register_profile("relayauction", derandomize=True, max_examples=200, deadline=None)
settings.load_profile("relayauction")

BENCH_SYSTEM = SystemParams(bandwidth_hz=1e6, noise_w=1e-11, pathloss_exponent=4.0)


class LinkArrays(NamedTuple):
    """The users' link fields as arrays: a link the public channel functions evaluate elementwise."""

    source_power_w: np.ndarray
    gain_sd: np.ndarray
    gain_sr: np.ndarray
    gain_rd: np.ndarray

    @classmethod
    def of(cls, users) -> "LinkArrays":
        return cls(*(np.array([getattr(u, name) for u in users]) for name in cls._fields))


def make_random_scenario(rng: np.random.Generator, n_users: int) -> NetworkScenario:
    """Random square-field topology with the relay at the origin."""
    users = []
    for i in range(n_users):
        src = (float(rng.uniform(-150, 150)), float(rng.uniform(-150, 150)))
        dst = (float(rng.uniform(-150, 150)), float(rng.uniform(-150, 150)))
        users.append(link_from_geometry(i, src, dst, (0.0, 0.0), 0.01, BENCH_SYSTEM))
    return NetworkScenario(tuple(users), 0.1, BENCH_SYSTEM)


@st.composite
def wide_scenarios(draw, max_users=6):
    """Scenarios over many decades, each quantity log-uniform: 1 to max_users users, noise
    1e-30 to 1e-9 W, gains 1e-16 to 1e-3, source powers 1e-4 to 1 W, budget 1e-6 to 1e3 W.

    The values come from a generator on a drawn seed: Hypothesis's own floats crowd the ends
    of a range and rarely meet its corners together.  Only draws that NetworkScenario rejects
    are assumed away.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = int(rng.integers(1, max_users + 1))
    system = SystemParams(1e6, 10.0 ** rng.uniform(-30, -9), 4.0)
    powers, gains = 10.0 ** rng.uniform(-4, 0, n), 10.0 ** rng.uniform(-16, -3, (n, 3))
    users = tuple(UserLink(i, float(powers[i]), *gains[i].tolist()) for i in range(n))
    try:
        return NetworkScenario(users, 10.0 ** rng.uniform(-6, 3), system)
    except ValueError:
        assume(False)


def without_user(scenario: NetworkScenario, index: int) -> NetworkScenario:
    """The scenario with its user at index removed."""
    users = tuple(u for k, u in enumerate(scenario.users) if k != index)
    return NetworkScenario(users, scenario.relay_budget_w, scenario.system, scenario.relay)


def make_snr_regular_scenarios(seed: int, count: int, min_users: int = 2, max_users: int = 5):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        sc = make_random_scenario(rng, int(rng.integers(min_users, max_users + 1)))
        if _UserArrays.of(sc, SNR).regular.any():
            out.append(sc)
    return out


def study_scenarios(n_topologies=4):
    """The first topologies of the 20-user population study, at each of its budgets."""
    spec = MultiUserSpec()
    return [
        scenario_from_topology(spec, nodes, budget)
        for nodes in sample_topologies(spec)[:n_topologies]
        for budget in spec.relay_powers
    ]


def oracle_bench_scenarios(seed: int, units: int = 30, n_users: int = 4, budget: float = 0.1):
    """The inputs of the benchmark's oracle_vcg workload (perfbench/workloads.py): 4-user
    topologies drawn once from seed 0 on the study's field, each node moved by N(0, 1 cm) from seed."""
    base = np.random.default_rng(0).uniform(-150.0, 150.0, size=(units, n_users, 4))
    nodes = base + np.random.default_rng(seed).normal(0.0, 0.01, size=base.shape)
    spec = MultiUserSpec(n_users=n_users)
    return [scenario_from_topology(spec, topology, budget) for topology in nodes]


def snr_equal_level_prediction(scenario: NetworkScenario, eq):
    """Rate increases (bits/s/Hz) that the SNR-auction equilibrium must give.

    Each participant's best response sets dR/dSNR = price, so every
    participant ends at the same level L = 1 + g_i + dSNR_i = W / (2 ln2 price)
    and gains 0.5 log2 L - log2(1 + g_i), with g_i its direct SNR.  Returns
    that prediction for every user and log2(1 + g_i); the prediction holds
    for participants (positive relay power) only.
    """
    level = scenario.system.bandwidth_hz / (2.0 * np.log(2.0) * eq.price)
    g = np.array([direct_snr(u, scenario.system) for u in scenario.users])
    log_direct = np.log2(1.0 + g)
    return 0.5 * np.log2(level) - log_direct, log_direct


@pytest.fixture(scope="session")
def bench_spec() -> TwoUserSweepSpec:
    return TwoUserSweepSpec()


@pytest.fixture(scope="session")
def scenario_y0(bench_spec):
    return build_two_user_scenario(bench_spec, 0.0)


@pytest.fixture(scope="session")
def scenario_y25(bench_spec):
    return build_two_user_scenario(bench_spec, 25.0)


@pytest.fixture(scope="session")
def scenario_ym25(bench_spec):
    return build_two_user_scenario(bench_spec, -25.0)


@pytest.fixture(scope="session")
def two_user_report(bench_spec):
    import time

    t0 = time.time()
    report = run_two_user_sweep(bench_spec)
    elapsed = time.time() - t0
    return report, elapsed


def one_user(link, kind, budget, sys):
    """One user's arrays under a payment rule; read [0] of factors(p), pi_lower, pi_hat, cutoff."""
    return _UserArrays(_Core((link,), budget, sys), kind)


def aggregate_share(factors) -> float:
    """S = sum f/(1+f) of an array of factors: the equilibrium utilization when all are finite."""
    f = np.asarray(factors, dtype=float)
    if np.isinf(f).any():
        raise ValueError("aggregate share undefined with divergent factors")
    return float((f / (1.0 + f)).sum())


def payment(kind, price, link, p_rd, sys):
    """Charge for an allocated relay power under the given payment rule.

    Elementwise when the powers, or the link's gains, are arrays.
    """
    return price * _rule(kind).charged(p_rd, relayed_snr(link, p_rd, sys))


def payoff(link, bid, opponents_bid_sum, params, budget, sys) -> float:
    """Rate increase minus payment at the power this bid wins."""
    if bid < 0.0 or opponents_bid_sum < 0.0:
        raise ValueError("bids must be nonnegative")
    p_rd = bid / (bid + opponents_bid_sum + params.reserve_bid) * budget
    gain = float(rate_increase(link, p_rd, sys))
    return gain - float(payment(params.kind, params.price, link, p_rd, sys))


def reference_bisect(pred, x_false, x_true, rtol, max_iter=math.inf):
    """Bisection asking pred about one midpoint per step, the references' bracketed search.

    Returns the tightened pair and the number of steps taken, at most max_iter.
    """
    if pred(x_false):
        raise ValueError("pred(x_false) must be False")
    steps = 0
    while steps < max_iter and abs(x_true - x_false) > rtol * max(abs(x_false), abs(x_true)):
        mid = 0.5 * (x_false + x_true)
        if pred(mid):
            x_true = mid
        else:
            x_false = mid
        steps += 1
    return (x_false, x_true), steps


# the model's rates and landmarks by their textbook formulas, to check the closed forms against


def direct_rate(link, sys):
    """Rate of direct transmission only."""
    return sys.bandwidth_hz * np.log2(1.0 + direct_snr(link, sys))


def coop_rate(link, p_rd, sys):
    """Rate of two-phase cooperative transmission with MRC at the destination.

    Exactly half the direct rate at zero relay power: the halving is applied
    last so the two code paths share the same rounding.
    """
    g = direct_snr(link, sys) + relayed_snr(link, p_rd, sys)
    return 0.5 * (sys.bandwidth_hz * np.log2(1.0 + g))


def power_for_relayed_snr(link, target, sys):
    """Relay power achieving a relayed SNR target s below the limit b (inverse of relayed_snr):
    s ((b + 1) / c) / (b - s), c = gain_rd / noise."""
    b = relayed_snr_limit(link, sys)
    return target * ((b + 1.0) / (link.gain_rd / sys.noise_w)) / (b - target)


def breakeven_power(link, sys):
    """Smallest relay power at which cooperation matches direct transmission.

    The relayed SNR must reach g^2 + g, g the direct SNR; None when that
    level is at or above the attainable supremum.
    """
    g = direct_snr(link, sys)
    need = g * g + g
    if need == 0.0:
        return 0.0
    if need >= relayed_snr_limit(link, sys):
        return None
    return power_for_relayed_snr(link, need, sys)


def snr_marginal_rate(link, delta_snr, sys):
    """Marginal rate increase per unit of relayed SNR on the cooperative branch."""
    g = direct_snr(link, sys)
    return 0.5 * sys.bandwidth_hz / LN2 / (1.0 + g + delta_snr)


def g_snr(link, price, sys):
    """Best attainable payoff in the SNR auction as a function of price.

    Convex in price, diverging to +inf at both ends; its smallest positive
    root is the participation cutoff pi_hat.
    """
    w = sys.bandwidth_hz
    g = direct_snr(link, sys)
    return price * (1.0 + g) - 0.5 * w * (np.log2(2.0 * price * LN2 * (1.0 + g) ** 2 / w) + 1.0 / LN2)


# the references below find their roots by bracketed Newton, independent of the package's monotone iterations
NEWTON_MAX_ITER = 100  # Newton steps at most, on the slowest element


def newton_root(fdf: Callable, lo, hi, rtol: float = 1e-12):
    """Root of f on [lo, hi] by Newton steps from lo kept inside a shrinking bracket.

    Elementwise: lo and hi are arrays (or broadcast to one) and fdf(x)
    returns the arrays (f(x), f'(x)); f(lo) and f(hi) must differ in sign.
    fdf gets both ends in one call, stacked on a leading axis: it must broadcast.
    Every iterate narrows the bracket to the sign change; a Newton step that
    would leave it is replaced by the bracket's midpoint, so the search
    converges like bisection at worst and quadratically near a simple root.
    An element stops at the first step within rtol of its point and keeps that
    step; the search ends once every element has stopped, or after
    NEWTON_MAX_ITER steps.  No element's root depends on the others, so a
    batch of problems gives each the root it gets alone, to the bit.
    """
    ends = np.empty((2, *np.broadcast(lo, hi).shape))
    ends[0], ends[1] = lo, hi
    lo, hi = ends
    (flo, fhi), (dflo, dfhi) = fdf(ends)
    if ((flo != 0.0) & (fhi != 0.0) & ((flo > 0.0) == (fhi > 0.0))).any():
        raise ValueError(f"root not bracketed on [{lo!r}, {hi!r}]")
    at_hi = fhi == 0.0
    x, fx, dfx = np.where(at_hi, hi, lo), np.where(at_hi, fhi, flo), np.where(at_hi, dfhi, dflo)
    rising = flo < 0.0  # f increases through the root
    live, step = np.ones(rising.shape, dtype=bool), np.zeros(rising.shape)
    for _ in range(NEWTON_MAX_ITER):
        above = (fx > 0.0) == rising  # the root lies below x
        lo, hi = np.where(above, lo, x), np.where(above, x, hi)
        sloped = dfx != 0.0  # elsewhere the step keeps an old quotient, and the midpoint is taken
        nxt = x - np.divide(fx, dfx, out=step, where=sloped)
        nxt = np.where(sloped & (nxt >= lo) & (nxt <= hi), nxt, 0.5 * (lo + hi))
        moving = np.abs(nxt - x) > rtol * np.abs(nxt)
        x = np.where(live, nxt, x)
        live &= moving
        if not live.any():
            break
        fx, dfx = fdf(x)
    return x


def reference_snr_pi_hat(scenario):
    """SNR participation cutoffs by a bracketed Newton search: what the closed form must return.

    g_snr is convex and decreasing below pi_star = K / (1+g), negative there
    and positive at pi_star / (2e (1+g)), which brackets its smallest root.
    """
    links, sys = LinkArrays.of(scenario.users), scenario.system
    g, k = direct_snr(links, sys), sys.bandwidth_hz / (2.0 * LN2)
    pi_star = snr_marginal_rate(links, 0.0, sys)
    lo = pi_star / (2.0 * math.e * (1.0 + g))
    return newton_root(lambda p: (g_snr(links, p, sys), 1.0 + g - k / p), lo, pi_star)


def reference_power_cutoff_points(users):
    """Power-auction cutoff points by a bracketed Newton search in relay power.

    phi(p) = p u'(p) - u(p) falls on [breakeven, budget] from a positive
    value; the point is the budget when phi(budget) >= 0, else phi's root.
    """
    k = users.k

    def phi(p, g, b, c):
        # u'' = -c u' w, w = 1 / D1 + (1+g+b) / D2, with a = p c, D1 = a+b+1, D2 = (1+g) D1 + a b
        a = p * c
        d1 = a + b + 1.0
        d2 = (1.0 + g) * d1 + a * b
        u, slope = _log_gain(a * b / d1, g, g * g, (1.0 + g) ** 2, k), k * c * b * (b + 1.0) / (d1 * d2)
        return p * slope - u, -p * c * slope * (1.0 / d1 + (1.0 + g + b) / d2)

    live = users.gain_max > 0.0
    p = np.where(live, users.budget, np.nan)
    inner = live & (phi(users.budget, users.g, users.b, users.c)[0] < 0.0)
    if inner.any():
        g, b, c = users.g[inner], users.b[inner], users.c[inner]
        p[inner] = newton_root(lambda x: phi(x, g, b, c), breakeven_powers(users)[inner], users.budget)
    return p


def breakeven_powers(core):
    """Each user's breakeven power on a core, where the relayed SNR reaches g^2 + g; about the
    budget where the budget cannot reach it."""
    return core.power(np.minimum(core.g * core.g + core.g, core.snr_max))


def reference_demands(users, price):
    """Demand rows from each closed form clamped, the whole budget read from the clamped demand:
    the reference the thresholds of _UserArrays.demands must reproduce.

    The SNR demand's SNR is held within [0, snr_max], the power demand within [0, budget] and
    then raised to the breakeven; a demand of (1 - FULL_BUDGET_RTOL) of the budget or more,
    or any demand at or below the divergence cutoff, is the whole budget.
    """
    if users.kind == SNR:
        x = users.power(np.minimum(np.maximum(users.k / price - users.g1, 0.0), users.snr_max))
    else:
        x = np.minimum(np.maximum(_power_demand(users, price), 0.0), users.budget)
        x = np.maximum(x, breakeven_powers(users))
    x = np.where(price >= users.zero_from, 0.0, x)
    whole = (x >= users.budget * (1.0 - FULL_BUDGET_RTOL)) | (price <= users.cutoff)
    return np.where(whole, users.budget, x)


def reference_power_pi_hat(scenario):
    """Power-auction participation cutoffs read at the reference cutoff points."""
    users = _UserArrays.of(scenario, POWER)
    p = reference_power_cutoff_points(users)
    rate = rate_increase(LinkArrays.of(scenario.users), p, scenario.system)
    return np.where(users.gain_max > 0.0, rate / p, 0.0)


def rate_increase_power_slope(link, p_rd, sys):
    """Marginal rate increase per watt of relay power; zero on the clamped region."""
    b = relayed_snr_limit(link, sys)
    a = p_rd * link.gain_rd / sys.noise_w
    dsnr_dp = b * (b + 1.0) / (a + b + 1.0) ** 2 * (link.gain_rd / sys.noise_w)
    g = direct_snr(link, sys) + relayed_snr(link, p_rd, sys)
    slope = 0.5 * sys.bandwidth_hz / LN2 * dsnr_dp / (1.0 + g)
    return np.where(rate_increase(link, p_rd, sys) > 0.0, slope, 0.0)[()]


def power_cutoff_point(link, budget, sys):
    """One user's relay power p in (0, budget] maximizing r(p) / p; None if r stays 0."""
    p = float(_power_cutoff(one_user(link, POWER, budget, sys))[0][0])
    return None if math.isnan(p) else p


# the model's critical points at 50 digits, on the float64 inputs taken exactly


def mp_snr_pi_hat(g, k):
    """SNR participation cutoffs -W0(z) K / (1+g), z = -1 / (e (1+g)), by mpmath.lambertw at 50 digits.

    Where z rounds to -1/e or just below it (g < 1e-50), W0 is -1 to within 1e-25, and its
    real part is taken.
    """
    with mpmath.workdps(50):
        out = []
        for x in np.asarray(g, dtype=float).tolist():
            x = mpmath.mpf(x)
            w = mpmath.re(mpmath.lambertw(-mpmath.exp(-1 - mpmath.log1p(x))))
            out.append(float(-w * mpmath.mpf(k) / (1 + x)))
    return np.array(out)


def mp_node_excess(users, jumps, inn, free):
    """A relaxation node's excess at a price: the sum over its participants of the power demand
    solving u'(p) = price, held within [0, budget] and 0 from a free user's jump on, less the
    budget.  Call it within mpmath.workdps(50); it reads the users' g, b, c and K, the budget and
    the jumps.
    """
    mpf, budget, terms = mpmath.mpf, mpmath.mpf(users.budget), []
    for i in np.flatnonzero(inn | free).tolist():
        g, b, c = (mpf(float(v[i])) for v in (users.g, users.b, users.c))
        q2 = 1 + g + b
        jump = mpf(float(jumps[i])) if free[i] else mpmath.inf
        terms.append((mpf(users.k) * c * b / (b + 1), 4 * q2, 2 + 2 * g + b, b * b, (b + 1) / (2 * q2 * c), jump))

    def excess(price):
        total = -budget
        for kcb1, q2x4, q1, bsq, scale, jump in terms:
            if price < jump:  # the root t of q2 t^2 + q1 t + 1 + g - X, X = kcb1 / price, as a power
                total += min(max((mpmath.sqrt(bsq + q2x4 * kcb1 / price) - q1) * scale, 0), budget)
        return total

    return excess


def mp_power_cutoff_points(users):
    """Power-auction cutoff points at 50 digits: the root of p u'(p) = u(p) on [breakeven, budget],
    the budget where p u'(p) >= u(p) there, and nan where u(budget) <= 0.

    u and u' are those of _Core.gain and _Core.slope, on the users' g, b, c and K.
    """
    with mpmath.workdps(50):
        k, budget, out = mpmath.mpf(users.k), mpmath.mpf(users.budget), []
        for g, b, c in zip(*([mpmath.mpf(v) for v in x.tolist()] for x in (users.g, users.b, users.c))):

            def u(p):
                a = p * c
                return k * (mpmath.log(1 + g + a * b / (a + b + 1)) - 2 * mpmath.log1p(g))

            def phi(p):
                a = p * c
                d1 = a + b + 1
                return p * k * c * b * (b + 1) / (d1 * ((1 + g) * d1 + a * b)) - u(p)

            if u(budget) <= 0:
                out.append(math.nan)
            elif phi(budget) >= 0:
                out.append(float(budget))
            else:
                breakeven = (g * g + g) * (b + 1) / ((b - g * g - g) * c)
                out.append(float(mpmath.findroot(phi, (breakeven, budget), solver="anderson")))
    return np.array(out)


def mp_power_pi_hat(users):
    """Power-auction pi_hat, the max of u(p) / p over [breakeven, budget], at 30 digits.

    u(p) = K (log1p(g + s) - 2 log1p(g)) does not round 1 + g, so it holds its digits
    however small g is.  u / p is unimodal in ln p and flat at its max, so a golden
    section in ln p reads the max to 1.6e-21 after 45 steps (against u(p) / p at the root
    of the cutoff equation found at 400 digits, for g from 1e-3 to 1e-299 at 1 mW, 0.1 W
    and 10 W; 35 steps read 4.3e-16).  The budget is the last candidate, for where the
    max lies there.
    """
    with mpmath.workdps(30):
        k, budget, out = mpmath.mpf(users.k), mpmath.mpf(users.budget), []
        for g, b, c in zip(*([mpmath.mpf(v) for v in x.tolist()] for x in (users.g, users.b, users.c))):

            def per_watt(x, two_l=2 * mpmath.log1p(g)):  # u(p) / p at p = e^x
                a = mpmath.exp(x) * c
                return k * c * (mpmath.log1p(g + a * b / (a + b + 1)) - two_l) / a

            breakeven = (g * g + g) * (b + 1) / ((b - g * g - g) * c)
            lo, hi, r = mpmath.log(breakeven), mpmath.log(budget), (mpmath.sqrt(5) - 1) / 2
            x1, x2 = hi - r * (hi - lo), lo + r * (hi - lo)
            f1, f2 = per_watt(x1), per_watt(x2)
            for _ in range(45):
                if f1 < f2:
                    lo, x1, f1 = x1, x2, f2
                    x2 = lo + r * (hi - lo)
                    f2 = per_watt(x2)
                else:
                    hi, x2, f2 = x2, x1, f1
                    x1 = hi - r * (hi - lo)
                    f1 = per_watt(x1)
            out.append(float(max(f1, f2, per_watt(mpmath.log(budget)))))
    return np.array(out)
