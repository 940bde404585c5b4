"""Share-auction mechanics for relay power.

The relay announces a price and a positive reserve bid, users submit
nonnegative bids, and each user receives the fraction bid/(sum of bids +
reserve) of the power budget.  Two payment rules are supported: an SNR
auction charges price * (relayed SNR obtained), a power auction charges
price * (relay power obtained).

Because a user's allocated power sweeps [0, budget) monotonically as its own
bid grows, the best response is linear in (sum of opponents' bids + reserve):
bid = f(price) * (opponents + reserve).  The factor has three branches,
delimited by two per-user critical prices: divergent (the user wants the
whole budget) at or below the divergence cutoff, zero at or above the
participation cutoff pi_hat, and in between f = x / (budget - x) at the
power x where the marginal rate per unit charged equals the price.  x and the
SNR auction's pi_hat (by Lambert's W) are closed forms; the power auction's
pi_hat, the peak of rate per watt, is a monotone Newton iteration.  A third
price, full_from, at or below which a user demands the whole budget, is closed.

Every user of a scenario is held in read-only arrays, built in closed form
once per scenario and budget.  One `_Core` holds what no payment rule changes
and owns the model's formulas on those arrays (the relayed SNR, its inverse,
the rate increase and its slope) with their price-free terms, the power
demand's among them, and the power pi_hat, computed at its first read; it
serves both auctions and the oracles, which read the core alone.  On it, one
`_UserArrays` per rule adds that rule's critical prices, so that all factors
at a price, or at a column of prices, are one array expression; each rule
also inverts its demand and solves S = level on a piece between two knots.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .channel import LN2, NetworkScenario, SystemParams, UserLink, _log_gain
from .numutil import falling_secular, rising_newton

SNR = "snr"
POWER = "power"
KINDS = (SNR, POWER)

# A demand x within this fraction of the budget is the whole budget, so full_from
# is the price where x reaches the mark: the factor x / (budget - x) >= 1e9 would
# multiply the ~1e-15 relative error of x by 1e9; S counts x / budget as one.
FULL_BUDGET_RTOL = 1e-9


@dataclass(frozen=True)
class AuctionParams:
    """Mechanism knobs: payment rule, per-unit price, and reserve bid."""

    kind: str
    price: float
    reserve_bid: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}")
        if not self.price > 0.0:
            raise ValueError("price must be strictly positive")
        if not self.reserve_bid > 0.0:
            raise ValueError("reserve_bid must be strictly positive")


def allocate(bids, reserve_bid: float, budget: float) -> np.ndarray:
    """Proportional-share allocation: bid/(total bids + reserve) of the budget."""
    b = np.asarray(bids, dtype=float)
    if b.ndim != 1:
        raise ValueError("bids must be a flat vector")
    if not np.all(np.isfinite(b)) or np.any(b < 0.0):
        raise ValueError("bids must be finite and nonnegative")
    if not reserve_bid > 0.0:
        raise ValueError("reserve_bid must be strictly positive")
    if not budget > 0.0:
        raise ValueError("budget must be strictly positive")
    return b / (b.sum() + reserve_bid) * budget


# ---------------------------------------------------------------------------
# SNR auction


def _snr_pi_hat(core: "_Core") -> np.ndarray:
    """Smallest positive root of K (u - ln u - ln(1+g) - 1), u = price (1+g) / K.

    That is the best attainable SNR-auction payoff at a price, convex in the price and
    diverging at both ends.  u = -W0(z), z = -1 / (e (1+g)), by two Halley steps on w e^w = z
    from Winitzki's e z / (1 + 1 / (1/y - 1/sqrt(2) + 1/(e-1))), y = sqrt(2 (e z + 1)), exact at
    both ends of (-1/e, 0) and within 0.7% between ("Uniform approximations for transcendental
    functions", 2003).  Near the branch point (w < -1/2) the residual w - z e^-w is taken as
    d + expm1(-d - ln(1+g)), d = w + 1, which never rounds 1 + g; u is then within 6e-16 of a
    50-digit Lambert W at every g from 1e-300 to 1e30.
    """
    g, g1 = core.g, core.g1
    ln1g = np.log1p(g)
    z = -math.exp(-1.0) / g1
    y = np.sqrt(2.0 * g / g1)
    w = -1.0 / (g1 * (1.0 + y / (1.0 + (1.0 / (math.e - 1.0) - math.sqrt(0.5)) * y)))
    for _ in range(2):
        d = w + 1.0
        t = np.where(w < -0.5, d + np.expm1(-d - ln1g), w - z * np.exp(-w))
        w = w - 2.0 * d * t / (2.0 * d * d - (w + 2.0) * t)
    return -w * core.k / g1


def _snr_root(users: "_UserArrays", on, need: float, lo: float, hi: float) -> float:
    """The price in [lo, hi] where the users on the curve demand need in all, hi where S jumps there: in L = K / price
    each demands b1c s / (b - s) at s = L - 1 - g, a secular sum solved from L = K / lo (numutil.falling_secular)."""
    floor = x = users.k / hi
    if need > 0.0:  # else S >= m >= level up to hi
        x = falling_secular(users.g1[on], users.b[on], users.b1c[on], need, users.k / lo, floor, 4.0)[0]
    return hi if x <= floor else users.k / x


# ---------------------------------------------------------------------------
# power auction
#
# Past its breakeven power x0 the rate increase r(p) equals the unclamped
# u(p) = 0.5 W log2(1 + g + s(p)) - W log2(1 + g), the log of a concave
# increasing SNR and hence concave.  On [x0, budget] the net gain
# r(p) - price * p therefore peaks where r'(p) = price, and r(p) / p peaks
# where p r'(p) = r(p).


def _power_demand(core: "_Core", price):
    """Relay power at which u'(p) = price, unclamped.

    With a = p c, c = gain_rd / noise, b the SNR limit, g the direct SNR and
    K = W / (2 ln 2), u'(p) = K c b (b+1) / ((a+b+1) ((1+g)(a+b+1) + a b)), so
    u'(p) = price is the quadratic
    (1+g+b) a^2 + (b+1)(2+2g+b) a + (b+1)^2 (1+g) - K c b (b+1) / price = 0.
    It is solved in t = a / (b+1) (divided through by (b+1)^2, which keeps the
    coefficients in range) as q2 t^2 + q1 t + q0 = 0, q2 = 1+g+b, q1 = 2+2g+b,
    q0 = 1+g - X, X = K c b / ((b+1) price), taking the positive root in the
    form free of cancellation.  The discriminant q1^2 - 4 q2 q0 equals
    b^2 + 4 q2 X, a sum of positive terms, so it is computed as that: the
    difference rounds below 0 where b << 1+g.  Its root, sqrt(b^2 + 4 q2 X) =
    2 q2 t + q1, gives the slope d t / d X = 1 / root.  u is concave, so the
    root clamped to [0, budget] maximizes u(p) - price * p there.  Only X depends
    on the price, which may be an array broadcasting against the users; the rest
    is read from the core's g1, power_coef and b1c.
    """
    q2x4, q1, bsq, kcb1 = core.power_coef
    x = kcb1 / price
    root = np.sqrt(bsq + q2x4 * x)
    return -2.0 * (core.g1 - x) / (q1 + root) * core.b1c


def _piece_excess(piece, z):
    """Each row's excess on its piece at a column z = -price^(-1/2), and its slope in z.

    piece is (const, the rest of the excess, then _power_demand's 1+g, 4 q2, q1, b^2,
    K c b / (b+1) and 2 b1c, the last three 1, 0 and 0 off the users on the curve).
    X = K c b z^2 / (b+1), so each curved demand 2 b1c (X - 1 - g) / (q1 + root) is a hyperbola
    in z with a linear asymptote, convex and falling, of slope 2 b1c X / (root z).
    """
    const, g1, q2x4, q1, bsq, kcb1, b1c2 = piece
    x = kcb1 * (z * z)
    root = np.sqrt(bsq + q2x4 * x)
    excess = np.add.reduce(b1c2 * (x - g1) / (q1 + root), axis=-1, keepdims=True) + const
    return excess, np.add.reduce(b1c2 * x / root, axis=-1, keepdims=True) / z


def _power_root(users: "_UserArrays", on, need: float, lo: float, hi: float) -> float:
    """The price in [lo, hi] where the users on the curve demand need: lo or hi where S jumps there, else rising Newton
    in z (numutil.rising_newton) on their piece (_piece_excess) from the larger root of its tangents at both ends."""
    piece = (-need, users.g1[on], *(c[on] for c in users.power_coef), 2.0 * users.b1c[on])
    za, zb = -lo**-0.5, -hi**-0.5
    (ea, eb), (da, db) = (v[:, 0].tolist() for v in _piece_excess(piece, np.array([[za], [zb]])))
    if eb >= 0.0 or ea < 0.0:
        return hi if eb >= 0.0 else lo
    z = rising_newton(lambda z: [float(v[0]) for v in _piece_excess(piece, z)], max(za - ea / da, zb - eb / db))[0]
    return 1.0 / z**2


def _power_cutoff(core: "_Core") -> tuple[np.ndarray, np.ndarray]:
    """Relay power p in (0, budget] maximizing r(p) / p, nan where r stays 0, and that max, pi_hat, 0 there.

    phi(p) = p u'(p) - u(p) falls on [breakeven, budget] (phi' = p u'' <= 0) from a
    positive value, so p is the budget if phi(budget) >= 0 and phi's root otherwise.
    In w = ln((1+g+s) / (1+g)^2) = u / K and m = expm1(-w - ln(1+g)) in (-1, 0), phi = -K H(w)
    with the convex H(w) = (1+g)^2 m^2 e^w / b + m + w > w - 1, whose root lies in (0, 1).  Plain
    Newton in w, which no step rounds ln(1+g) into, from min(w(budget), 1), where H > 0, falls
    monotonically onto the root; it stops once a step is not positive or not shorter than the
    last, which only rounding brings about.  p is within 1e-14 relative of the 50-digit root
    of p u'(p) = u(p) on the population study's users.  The loop runs on v = -w.

    As g -> 0 the root nears sqrt(2 g b / (b + 2)) and p loses digits: H sums terms of size w
    to a value of size w^2, so w carries an absolute error near 1e-16 and p a relative one
    that grows as 1 / w (d_sr 80 m, d_rd 120 m, 1 mW to 10 W: 4e-13 to 1.6e-11 at g = 1e-11,
    6e-4 to 1.7e-3 at g = 1e-27).  Below g = 1e-32 or so w stops between 1e-16 and 6e-16
    after 51 or 52 passes, however small the root: p is off by a factor of 6e133 at g =
    1e-299.  pi_hat = u(p) / p keeps its digits: u(p) / p = K c b / (b + 1) (1 - O(s)) - K g / p,
    and both corrections stay below 1e-16 relative at such a w, so any such p reads the max.
    It is read as K w / p, u(p) = K w by construction, or as r(budget) / budget at the budget.
    """
    g, g1 = core.g, core.g1
    a = core.g1sq / core.b
    w_max = core.gain_max / core.k  # 0 where r stays 0
    v = -np.minimum(w_max, 1.0)
    last = np.where(core.gain_max > 0.0, np.inf, 0.0)  # the last step; 0 stays at the budget
    for _ in range(64):
        e = np.expm1(v)
        m = (e - g) / g1
        rm = a / (1.0 + e) * m
        t = m * (rm + 1.0)
        step = (v - t) / (2.0 * rm + t)  # H / H', as (m (r m + 1) + w) / (-2 r m - m (r m + 1))
        go = (step > 0.0) & (step < last)  # false on nan; at first, where H > 0 at the start
        if not go.any():
            break
        last = np.where(go, step, 0.0)
        v += last
    w = -v
    inner = w < w_max
    s = np.where(inner, g1 * (g1 * np.expm1(w) + g), 0.0)
    p = np.where(inner, core.power(s), np.where(core.gain_max > 0.0, core.budget, np.nan))
    return p, np.where(inner, core.k * w / p, core.gain_max / core.budget)


# ---------------------------------------------------------------------------
# the per-rule table and the per-scenario arrays


@dataclass(frozen=True)
class _Rule:
    """One payment rule: what it charges for and how users answer its price."""

    charged: Callable  # (power, relayed SNR) -> units charged
    pi_hat: Callable  # (core) -> participation cutoffs
    price: Callable  # (users, power) -> the demand's inverse: the price of that power, 0 where r stays 0
    demand: Callable  # (users, price) -> power where the marginal rate meets the price, read past full_from
    root: Callable  # (users, on, need, lo, hi) -> the price in [lo, hi] where the users on the curve demand need


_RULES = {
    SNR: _Rule(
        charged=lambda p, s: s,
        pi_hat=_snr_pi_hat,
        price=lambda users, x: users.k / (users.g1 + users.snr(x)),
        # the power of s = K / price - (1+g), at most P: near the SNR limit it can round past P
        demand=lambda users, price: np.minimum(users.power(users.k / price - users.g1), users.budget),
        root=_snr_root,
    ),
    POWER: _Rule(
        charged=lambda p, s: p,
        pi_hat=lambda core: core.power_pi_hat,
        price=lambda users, x: np.where(users.gain_max > 0.0, users.slope(x), 0.0),
        demand=_power_demand,
        root=_power_root,
    ),
}


def _rule(kind: str) -> _Rule:
    if kind not in _RULES:
        raise ValueError(f"kind must be one of {KINDS}")
    return _RULES[kind]


def _read_only(*arrays) -> None:
    for a in arrays:
        if isinstance(a, np.ndarray):
            a.setflags(write=False)


class _Core:
    """The arrays of one scenario's users at one budget that no payment rule changes.

    k = W / (2 ln 2), the rate per unit log SNR; g, the direct SNR; b, the relayed
    SNR's limit; rd, the relay-destination gains; noise; c = rd / noise; b1c =
    (b + 1) / c; the price-free terms g1 = 1 + g, gsq = g^2, g1sq = (1 + g)^2,
    kcbb1 = K c b (b + 1) and the power demand's power_coef (_power_demand); and
    at the full budget, the relayed SNR snr_max, the rate increase gain_max and
    the unclamped slope u'(budget), slope_full.  Its methods are the model's
    formulas on them, free of the checks the scenario has made.  power_pi_hat,
    the power auction's participation cutoffs (_power_cutoff), is computed at
    its first read, once per core, for the power auction and the oracles alike.
    """

    def __init__(self, users: Sequence[UserLink], budget: float, sys: SystemParams):
        p_s, sd, sr, rd = np.array([(u.source_power_w, u.gain_sd, u.gain_sr, u.gain_rd) for u in users]).T
        self.budget, self.noise, self.rd = budget, sys.noise_w, rd
        self.k = sys.bandwidth_hz / (2.0 * LN2)
        self.g = g = p_s * sd / sys.noise_w
        self.b = b = p_s * sr / sys.noise_w
        self.c = c = rd / sys.noise_w
        self.b1c = (b + 1.0) / c
        self.g1 = g1 = 1.0 + g
        self.gsq, self.g1sq = g * g, g1 * g1
        self.kcbb1 = self.k * c * b * (b + 1.0)
        # 4 q2, q1, b^2 and K c b / (b+1)
        self.power_coef = (4.0 * (g1 + b), 2.0 + 2.0 * g + b, b * b, self.k * c * b / (b + 1.0))
        self.snr_max = self.snr(budget)
        self.gain_max = np.maximum(_log_gain(self.snr_max, g, self.gsq, self.g1sq, self.k), 0.0)
        self.slope_full = self.slope(budget)
        _read_only(*vars(self).values(), *self.power_coef)

    @classmethod
    def of(cls, scenario: NetworkScenario, budget: float | None = None) -> "_Core":
        """The scenario's core at a budget, its relay budget by default, built once per scenario and budget."""
        budget = scenario.relay_budget_w if budget is None else budget
        memo = scenario._derived
        if ("core", budget) not in memo:
            memo["core", budget] = cls(scenario.users, budget, scenario.system)
        return memo["core", budget]

    def snr(self, p):
        """Relayed SNR a b / (a + b + 1) at relay power p, a = p rd / noise, rounded as channel.relayed_snr."""
        a = p * self.rd / self.noise
        return a * self.b / (a + self.b + 1.0)

    def power(self, s):
        """Relay power s (b + 1) / ((b - s) c) buying the relayed SNR s, 0 <= s < b: snr's inverse."""
        return s * self.b1c / (self.b - s)

    def gain(self, p):
        """The unclamped rate increase u(p) at relay power p; the rate increase is max(u, 0)."""
        return _log_gain(self.snr(p), self.g, self.gsq, self.g1sq, self.k)

    def slope(self, p):
        """u'(p) = K c b (b+1) / (D1 D2), with a = p c, D1 = a+b+1 and D2 = (1+g) D1 + a b."""
        a = p * self.c
        d1 = a + self.b + 1.0
        return self.kcbb1 / (d1 * (self.g1 * d1 + a * self.b))

    @functools.cached_property
    def power_pi_hat(self) -> np.ndarray:
        """The power auction's participation cutoffs, max over (0, budget] of r(p) / p (_power_cutoff)."""
        pi_hat = _power_cutoff(self)[1]
        _read_only(pi_hat)
        return pi_hat


class _UserArrays(_Core):
    """Every user of one scenario at one budget as arrays, under one payment rule.

    Holds the arrays of a _Core themselves, and its formulas by inheritance, so
    that one core serves both rules; it adds the critical prices of every user:
    pi_lower, the rule's price of the full budget, the marginal rate per unit charged there; pi_hat, the
    participation cutoff (the core's power_pi_hat under the power rule); and the
    divergence cutoff, which is pi_lower for a regular user (pi_hat > pi_lower)
    and otherwise the price at which the whole budget stops paying, the only profitable
    demand such a user has.  It demands the budget up to full_from, the larger of the
    cutoff and the rule's price of (1 - FULL_BUDGET_RTOL) of the budget (below zero_from),
    then the rule's demand, and nothing from zero_from (pi_hat, or the cutoff if irregular) on.
    """

    def __init__(self, core: _Core, kind: str):
        self.kind, self.rule = kind, _rule(kind)
        self.pi_hat = self.rule.pi_hat(core)  # before the copy, which then holds what the core computed for it
        vars(self).update(vars(core))
        # the rule's price of the budget and of (1 - FULL_BUDGET_RTOL) of it, in one call
        self.pi_lower, full_price = self.rule.price(self, self.budget * np.array([[1.0], [1.0 - FULL_BUDGET_RTOL]]))
        self.regular = self.pi_hat > self.pi_lower
        charged = self.rule.charged(self.budget, self.snr_max)
        whole = np.divide(self.gain_max, charged, out=np.zeros(self.gain_max.shape), where=charged > 0.0)
        self.cutoff = np.where(self.regular, self.pi_lower, whole)
        self.zero_from = np.where(self.regular, self.pi_hat, self.cutoff)
        self.full_from = np.maximum(np.minimum(full_price, np.nextafter(self.zero_from, 0.0)), self.cutoff)
        _read_only(self.pi_lower, self.pi_hat, self.regular, self.cutoff, self.zero_from, self.full_from)

    @classmethod
    def of(cls, scenario: NetworkScenario, kind: str) -> "_UserArrays":
        """The scenario's users under this rule on its core at its relay budget (_Core.of), built once per kind."""
        core = _Core.of(scenario)
        memo = scenario._derived
        if (kind, core.budget) not in memo:
            memo[kind, core.budget] = cls(core, kind)
        return memo[kind, core.budget]

    def demands(self, price) -> np.ndarray:
        """Power demanded at a price, or a row per price of a column: the budget where divergent."""
        x = np.where(price >= self.zero_from, 0.0, self.rule.demand(self, price))
        return np.where(price <= self.full_from, self.budget, x)

    def factors(self, price) -> np.ndarray:
        """Factors x / (budget - x) of the demands x: inf where divergent, 0 where zero."""
        x = self.demands(price)
        return np.divide(x, self.budget - x, out=np.full_like(x, math.inf), where=x < self.budget)

    def shares(self, prices) -> np.ndarray:
        """S = sum x / budget = sum f/(1+f) per price: non-increasing, < 1 iff an equilibrium exists."""
        return self.demands(np.asarray(prices, dtype=float)[:, None]).sum(axis=1) / self.budget
