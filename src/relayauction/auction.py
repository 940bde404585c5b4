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
power x where the marginal rate per unit charged equals the price, in closed
form for both rules.  The power auction's closed form rests on concavity:
past the breakeven power the rate increase is the log of a concave,
increasing SNR, so the first-order condition (a quadratic in relay power)
gives the best response and the peak of rate per watt gives the cutoff.

`_UserArrays` holds every user of a scenario as read-only arrays under one
payment rule, built once per scenario and rule, so that all factors at a
price, or at a column of prices, are one array expression.
The scalar functions of this module are one-user views of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .channel import (
    LN2,
    NetworkScenario,
    SystemParams,
    UserLink,
    _LinkArrays,
    direct_snr,
    power_for_relayed_snr,
    rate_increase,
    rate_increase_power_slope,
    relayed_snr,
    relayed_snr_limit,
    snr_marginal_rate,
)
from .numutil import newton_root

SNR = "snr"
POWER = "power"
KINDS = (SNR, POWER)

# A demand x within this fraction of the budget is the whole budget: the factor
# x / (budget - x) >= 1e9 would multiply the ~1e-15 relative error of the closed
# form x by 1e9, and counting the share x / budget as one moves S by <= 1e-9.
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


@dataclass(frozen=True)
class BestResponse:
    """Best-response value: a finite factor/bid, or a divergence signal.

    value is math.inf exactly when no finite bid approaches the payoff
    supremum (the user wants the entire budget).  Infinite values are never
    stored in a bid profile; the dynamics treat them as a no-equilibrium
    signal at the current price.
    """

    value: float

    @classmethod
    def finite(cls, value: float) -> "BestResponse":
        if not (value >= 0.0 and math.isfinite(value)):
            raise ValueError("finite best response must be a nonnegative real")
        return cls(value)

    @property
    def is_infinite(self) -> bool:
        return math.isinf(self.value)

    @property
    def is_zero(self) -> bool:
        return self.value == 0.0


@dataclass(frozen=True)
class CriticalPrices:
    """The two per-user price landmarks.

    Below pi_lower the user demands more SNR (or power) than the full budget
    can deliver; at or above pi_hat it cannot profit and stays out.  The user
    supports a finite, positive demand exactly when pi_hat > pi_lower.
    """

    pi_lower: float
    pi_hat: float

    @property
    def regular(self) -> bool:
        return self.pi_hat > self.pi_lower


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


def payment(kind: str, price: float, link: UserLink, p_rd, sys: SystemParams):
    """Charge for an allocated relay power under the given payment rule.

    Elementwise when the powers, or the link's gains, are arrays.
    """
    if np.any(np.asarray(p_rd) < 0.0):
        raise ValueError("relay power must be nonnegative")
    return price * _rule(kind).charged(link, p_rd, sys)


def payoff(
    link: UserLink,
    bid: float,
    opponents_bid_sum: float,
    params: AuctionParams,
    budget: float,
    sys: SystemParams,
) -> float:
    """Rate increase minus payment at the power this bid wins."""
    if bid < 0.0 or opponents_bid_sum < 0.0:
        raise ValueError("bids must be nonnegative")
    p_rd = bid / (bid + opponents_bid_sum + params.reserve_bid) * budget
    gain = float(rate_increase(link, p_rd, sys))
    return gain - float(payment(params.kind, params.price, link, p_rd, sys))


# ---------------------------------------------------------------------------
# SNR auction


def g_snr(link: UserLink, price, sys: SystemParams):
    """Best attainable payoff in the SNR auction as a function of price.

    Convex in price, diverging to +inf at both ends; its smallest positive
    root is the participation cutoff pi_hat.
    """
    if not (np.asarray(price) > 0.0).all():
        raise ValueError("price must be strictly positive")
    w = sys.bandwidth_hz
    g = direct_snr(link, sys)
    return price * (1.0 + g) - 0.5 * w * (
        np.log2(2.0 * price * LN2 * (1.0 + g) ** 2 / w) + 1.0 / LN2
    )


def _snr_pi_hat(users: "_UserArrays") -> np.ndarray:
    """Smallest positive root of g_snr, by Newton steps below pi_star = K / (1+g).

    With u = price / pi_star and K = W / (2 ln 2),
    g_snr = K (u - ln u - ln(1+g) - 1), convex and decreasing up to pi_star:
    negative (-K ln(1+g)) at pi_star and K (u + ln 2) > 0 at u = 1 / (2e (1+g)),
    which brackets the root.  Its derivative is (1+g) - K / price.
    """
    pi_star = snr_marginal_rate(users.links, 0.0, users.sys)
    lo = pi_star / (2.0 * math.e * (1.0 + users.g))
    return newton_root(
        lambda p: (g_snr(users.links, p, users.sys), 1.0 + users.g - users.k / p), lo, pi_star
    )


def _snr_demand(users: "_UserArrays", price: float) -> np.ndarray:
    """Relay power buying the demanded SNR increase, held within [0, budget].

    The marginal rate per unit SNR, K / (1 + g + s), meets the price at
    s = K / price - 1 - g.
    """
    target = np.minimum(np.maximum(users.k / price - 1.0 - users.g, 0.0), users.snr_max)
    return power_for_relayed_snr(users.links, target, users.sys)


# ---------------------------------------------------------------------------
# power auction
#
# Past its breakeven power x0 the rate increase r(p) equals the unclamped
# u(p) = 0.5 W log2(1 + g + s(p)) - W log2(1 + g), the log of a concave
# increasing SNR and hence concave.  On [x0, budget] the net gain
# r(p) - price * p therefore peaks where r'(p) = price, and r(p) / p peaks
# where p r'(p) = r(p).


def _power_curve(p, g, b, c, k):
    """u(p), u'(p) and w, where u''(p) = -c u'(p) w, elementwise.

    With a = p c, D1 = a+b+1 and D2 = (1+g) D1 + a b (see _power_demand),
    w = 1 / D1 + (1+g+b) / D2.  u(p) is taken as the log1p of
    (s - g^2 - g) / (1+g)^2, exact near the breakeven.
    """
    a = p * c
    d1 = a + b + 1.0
    d2 = (1.0 + g) * d1 + a * b
    slope = k * c * b * (b + 1.0) / (d1 * d2)
    u = k * np.log1p((a * b / d1 - g * g - g) / (1.0 + g) ** 2)
    return u, slope, 1.0 / d1 + (1.0 + g + b) / d2


def _power_demand(users: "_UserArrays", price) -> np.ndarray:
    """Relay power at which u'(p) = price, clamped to [0, budget].

    With a = p c, c = gain_rd / noise, b the SNR limit, g the direct SNR and
    K = W / (2 ln 2), u'(p) = K c b (b+1) / ((a+b+1) ((1+g)(a+b+1) + a b)), so
    u'(p) = price is the quadratic
    (1+g+b) a^2 + (b+1)(2+2g+b) a + (b+1)^2 (1+g) - K c b (b+1) / price = 0.
    It is solved in t = a / (b+1) (divided through by (b+1)^2, which keeps the
    coefficients in range), taking the positive root in the form free of
    cancellation.  The discriminant is at least b^2, so the root is real.
    u is concave, so the clamped root maximizes u(p) - price * p over
    [0, budget] (the power auction clamps it to the breakeven as well).  The
    price may be an array broadcasting against the users.
    """
    g, b, c, k = users.g, users.b, users.c, users.k
    q2 = 1.0 + g + b
    q1 = 2.0 + 2.0 * g + b
    q0 = 1.0 + g - k * c * b / ((b + 1.0) * price)
    t = -2.0 * q0 / (q1 + np.sqrt(q1 * q1 - 4.0 * q2 * q0))
    return np.minimum(np.maximum(t * (b + 1.0) / c, 0.0), users.budget)


def _power_cutoff_points(users: "_UserArrays") -> np.ndarray:
    """Relay power p in (0, budget] maximizing r(p) / p; nan where r stays 0.

    On [breakeven, budget] phi(p) = p u'(p) - u(p) has derivative
    p u''(p) <= 0 and is positive at the breakeven power, where u vanishes;
    the maximizer is therefore the budget when phi(budget) >= 0 and the root
    of phi otherwise.
    """
    k = users.k

    def phi(p, g, b, c):
        u, slope, bend = _power_curve(p, g, b, c, k)
        return p * slope - u, -p * c * slope * bend

    live = users.gain_max > 0.0
    p = np.where(live, users.budget, np.nan)
    inner = live & (phi(users.budget, users.g, users.b, users.c)[0] < 0.0)
    if inner.any():
        g, b, c = users.g[inner], users.b[inner], users.c[inner]
        p[inner] = newton_root(lambda x: phi(x, g, b, c), users.x0[inner], users.budget)
    return p


def _power_pi_hat(users: "_UserArrays") -> np.ndarray:
    """max over (0, budget] of r(p) / p, read at the cutoff point; 0 if r stays 0."""
    p = _power_cutoff_points(users)
    return np.where(users.gain_max > 0.0, rate_increase(users.links, p, users.sys) / p, 0.0)


# ---------------------------------------------------------------------------
# the per-rule table and the per-scenario arrays


@dataclass(frozen=True)
class _Rule:
    """One payment rule: what it charges for and how users answer its price."""

    charged: Callable  # (links, power, sys) -> units charged for that power
    marginal: Callable  # (links, power, sys) -> marginal rate per unit charged
    pi_hat: Callable  # (users) -> participation cutoffs
    demand: Callable  # (users, price) -> power where the marginal rate meets the price


_RULES = {
    SNR: _Rule(
        charged=relayed_snr,
        marginal=lambda links, p, sys: snr_marginal_rate(links, relayed_snr(links, p, sys), sys),
        pi_hat=_snr_pi_hat,
        demand=_snr_demand,
    ),
    POWER: _Rule(
        charged=lambda links, p, sys: p,
        marginal=rate_increase_power_slope,
        pi_hat=_power_pi_hat,
        demand=lambda users, price: np.maximum(_power_demand(users, price), users.x0),
    ),
}


def _rule(kind: str) -> _Rule:
    if kind not in _RULES:
        raise ValueError(f"kind must be one of {KINDS}")
    return _RULES[kind]


class _UserArrays:
    """Every user of one scenario as arrays, under one payment rule.

    Holds the channel quantities and the critical prices of every user:
    pi_lower, the marginal rate per unit charged at the full budget; pi_hat,
    the participation cutoff; and the divergence cutoff, which is pi_lower
    for a regular user (pi_hat > pi_lower) and otherwise the price at which
    the whole budget stops paying, the only profitable demand such a user has.
    """

    def __init__(self, users: Sequence[UserLink], budget: float, sys: SystemParams, kind: str):
        self.kind, self.rule = kind, _rule(kind)
        self.links = links = _LinkArrays.of(users)
        self.budget, self.sys = budget, sys
        self.k = sys.bandwidth_hz / (2.0 * LN2)  # rate per unit log SNR
        self.g = direct_snr(links, sys)
        self.b = relayed_snr_limit(links, sys)
        self.c = links.gain_rd / sys.noise_w
        self.snr_max = relayed_snr(links, budget, sys)
        self.gain_max = rate_increase(links, budget, sys)
        # breakeven power, or about the budget when the budget cannot reach it
        self.x0 = power_for_relayed_snr(links, np.minimum(self.g * self.g + self.g, self.snr_max), sys)
        self.pi_lower = self.rule.marginal(links, budget, sys)
        self.pi_hat = self.rule.pi_hat(self)
        self.regular = self.pi_hat > self.pi_lower
        charged = self.rule.charged(links, budget, sys)
        whole = np.divide(self.gain_max, charged, out=np.zeros_like(self.gain_max), where=charged > 0.0)
        self.cutoff = np.where(self.regular, self.pi_lower, whole)
        self.zero_from = np.where(self.regular, self.pi_hat, self.cutoff)
        for a in (*vars(self).values(), *links):  # shared by every caller: read-only
            if isinstance(a, np.ndarray):
                a.setflags(write=False)

    @classmethod
    def of(cls, scenario: NetworkScenario, kind: str) -> "_UserArrays":
        """The scenario's users under this rule, built once per scenario and kind."""
        memo = scenario._derived
        if kind not in memo:
            memo[kind] = cls(scenario.users, scenario.relay_budget_w, scenario.system, kind)
        return memo[kind]

    def demands(self, price) -> np.ndarray:
        """Power demanded at a price, or a row per price of a column: the budget where divergent."""
        x = np.where(price >= self.zero_from, 0.0, self.rule.demand(self, price))
        whole = (x >= self.budget * (1.0 - FULL_BUDGET_RTOL)) | (price <= self.cutoff)
        return np.where(whole, self.budget, x)

    def factors(self, price) -> np.ndarray:
        """Factors x / (budget - x) of the demands x: inf where divergent, 0 where zero."""
        x = self.demands(price)
        return np.divide(x, self.budget - x, out=np.full_like(x, math.inf), where=x < self.budget)

    def shares(self, prices) -> np.ndarray:
        """S = sum x / budget = sum f/(1+f) per price: non-increasing, < 1 iff an equilibrium exists."""
        return self.demands(np.asarray(prices, dtype=float)[:, None]).sum(axis=1) / self.budget


# ---------------------------------------------------------------------------
# one-user views


def best_response_factor(
    link: UserLink, kind: str, price: float, budget: float, sys: SystemParams
) -> BestResponse:
    """Best-response factor f of one user (bid = f * (opponents + reserve))."""
    if not price > 0.0:
        raise ValueError("price must be strictly positive")
    return BestResponse(float(_UserArrays((link,), budget, sys, kind).factors(price)[0]))


def snr_best_response_factor(
    link: UserLink, price: float, budget: float, sys: SystemParams
) -> BestResponse:
    """Best-response factor in the SNR auction.

    Divergent at or below the divergence cutoff, zero at or above pi_hat (or
    above the cutoff for a user without a profitable band), and in between
    the factor of the power buying the demanded SNR increase.
    """
    return best_response_factor(link, SNR, price, budget, sys)


def power_best_response_factor(
    link: UserLink, price: float, budget: float, sys: SystemParams
) -> BestResponse:
    """Best-response factor in the power auction, in closed form.

    The net gain (rate increase minus price * power) is zero up to the
    breakeven power and concave beyond it, so its maximum over
    [breakeven, budget] sits at the root of the first-order condition clamped
    to that interval; it is positive exactly below pi_hat, and the response
    diverges when the gain still climbs at the budget and is positive there.
    """
    return best_response_factor(link, POWER, price, budget, sys)


def best_response(
    link: UserLink,
    opponents_bid_sum: float,
    params: AuctionParams,
    budget: float,
    sys: SystemParams,
) -> BestResponse:
    """Payoff-maximizing bid against a fixed sum of opponents' bids."""
    if opponents_bid_sum < 0.0:
        raise ValueError("opponents_bid_sum must be nonnegative")
    factor = best_response_factor(link, params.kind, params.price, budget, sys)
    if factor.is_infinite:
        return factor
    return BestResponse.finite(factor.value * (opponents_bid_sum + params.reserve_bid))


def critical_prices(link: UserLink, kind: str, budget: float, sys: SystemParams) -> CriticalPrices:
    users = _UserArrays((link,), budget, sys, kind)
    return CriticalPrices(pi_lower=float(users.pi_lower[0]), pi_hat=float(users.pi_hat[0]))


def snr_critical_prices(link: UserLink, budget: float, sys: SystemParams) -> CriticalPrices:
    """Critical prices of the SNR auction for one user.

    pi_lower is the marginal rate per unit SNR at the full-budget relayed SNR;
    pi_hat is the smallest positive root of g_snr.
    """
    return critical_prices(link, SNR, budget, sys)


def power_critical_prices(link: UserLink, budget: float, sys: SystemParams) -> CriticalPrices:
    """Critical prices of the power auction, in closed form.

    pi_lower is the marginal rate increase per watt at the full budget;
    pi_hat = max over (0, budget] of r(p) / p, the price at which the best
    attainable profit drops to zero, read at power_cutoff_point.  A user that
    cannot profit at any power (direct link too strong relative to the relay
    path, or breakeven out of reach) gets pi_hat = 0.
    """
    return critical_prices(link, POWER, budget, sys)


def power_cutoff_point(link: UserLink, budget: float, sys: SystemParams) -> Optional[float]:
    """Relay power p in (0, budget] that maximizes r(p) / p; None if r stays 0.

    The best attainable profit max_p r(p) - price * p is positive exactly
    when price < r(p) / p for some p, so this maximizer fixes the power
    auction's participation cutoff.
    """
    p = float(_power_cutoff_points(_UserArrays((link,), budget, sys, POWER))[0])
    return None if math.isnan(p) else p


def divergence_cutoff(link: UserLink, kind: str, budget: float, sys: SystemParams) -> float:
    """Largest price at or below which the user's best response diverges."""
    return float(_UserArrays((link,), budget, sys, kind).cutoff[0])


def is_snr_regular(scenario: NetworkScenario) -> bool:
    """True when at least one user has a profitable SNR-auction price band."""
    return bool(_UserArrays.of(scenario, SNR).regular.any())


def is_power_regular(scenario: NetworkScenario) -> bool:
    """True when at least one user has a profitable power-auction price band."""
    return bool(_UserArrays.of(scenario, POWER).regular.any())
