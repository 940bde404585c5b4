"""Share-auction mechanics for relay power.

The relay announces a price and a positive reserve bid, users submit
nonnegative bids, and each user receives the fraction bid/(sum of bids +
reserve) of the power budget.  Two payment rules are supported: an SNR
auction charges price * (relayed SNR obtained), a power auction charges
price * (relay power obtained).

Because a user's allocated power sweeps [0, budget) monotonically as its own
bid grows, the best response is linear in (sum of opponents' bids + reserve):
bid = f(price) * (opponents + reserve).  This module computes the factor f
in closed form for both auctions and exposes the two critical prices that
delimit its branches.  The power auction's closed form rests on concavity:
past the breakeven power the rate increase is the log of a concave,
increasing SNR, so the first-order condition (a quadratic in relay power)
gives the best response and the peak of rate per watt gives the cutoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .channel import (
    LN2,
    NetworkScenario,
    SystemParams,
    UserLink,
    breakeven_power,
    direct_snr,
    power_for_relayed_snr,
    rate_increase,
    rate_increase_power_slope,
    relayed_snr,
    relayed_snr_limit,
)
from .numutil import bisect_root

SNR = "snr"
POWER = "power"
KINDS = (SNR, POWER)


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

    @classmethod
    def zero(cls) -> "BestResponse":
        return cls(0.0)

    @classmethod
    def infinite(cls) -> "BestResponse":
        return cls(math.inf)

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


def payment(kind: str, price: float, link: UserLink, p_rd: float, sys: SystemParams) -> float:
    """Charge for an allocated relay power under the given payment rule."""
    if p_rd < 0.0:
        raise ValueError("relay power must be nonnegative")
    if kind == SNR:
        return price * float(relayed_snr(link, p_rd, sys))
    if kind == POWER:
        return price * p_rd
    raise ValueError(f"kind must be one of {KINDS}")


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
    return gain - payment(params.kind, params.price, link, p_rd, sys)


# ---------------------------------------------------------------------------
# SNR auction


def demanded_snr_increase(link: UserLink, price: float, sys: SystemParams) -> float:
    """Relayed SNR at which the marginal rate gain equals the SNR price."""
    g = direct_snr(link, sys)
    return sys.bandwidth_hz / (2.0 * LN2 * price) - 1.0 - g


def g_snr(link: UserLink, price: float, sys: SystemParams) -> float:
    """Best attainable payoff in the SNR auction as a function of price.

    Convex in price, diverging to +inf at both ends; its smallest positive
    root is the participation cutoff pi_hat.
    """
    if not price > 0.0:
        raise ValueError("price must be strictly positive")
    w = sys.bandwidth_hz
    g = direct_snr(link, sys)
    return price * (1.0 + g) - 0.5 * w * (
        math.log2(2.0 * price * LN2 * (1.0 + g) ** 2 / w) + 1.0 / LN2
    )


@lru_cache(maxsize=1 << 16)
def snr_critical_prices(link: UserLink, budget: float, sys: SystemParams) -> CriticalPrices:
    """Critical prices of the SNR auction for one user.

    pi_lower comes from the closed form at the full-budget relayed SNR;
    pi_hat is the smallest positive root of g_snr, found by bisection on
    (0, pi_star] where pi_star is the minimizer of g_snr.  With a positive
    direct SNR the value at pi_star is strictly negative, so the bracket
    always closes.
    """
    g = direct_snr(link, sys)
    snr_max = float(relayed_snr(link, budget, sys))
    pi_lower = sys.bandwidth_hz / (2.0 * LN2 * (1.0 + g + snr_max))

    pi_star = sys.bandwidth_hz / (2.0 * LN2 * (1.0 + g))
    g_star = g_snr(link, pi_star, sys)
    if g_star > 0.0:
        raise RuntimeError("no positive participation cutoff: g positive at its minimum")
    if g_star == 0.0:
        return CriticalPrices(pi_lower=pi_lower, pi_hat=pi_star)
    lo = 1e-12 * pi_star
    expansions = 0
    while g_snr(link, lo, sys) <= 0.0:
        lo *= 0.1
        expansions += 1
        if expansions > 60:
            raise RuntimeError("failed to bracket the participation cutoff")
    pi_hat = bisect_root(lambda p: g_snr(link, p, sys), lo, pi_star, rtol=1e-10)
    return CriticalPrices(pi_lower=pi_lower, pi_hat=pi_hat)


def full_budget_profit_cutoff(link: UserLink, budget: float, sys: SystemParams) -> float:
    """Price below which grabbing the entire budget still pays in the SNR auction."""
    snr_max = float(relayed_snr(link, budget, sys))
    if snr_max <= 0.0:
        return 0.0
    return float(rate_increase(link, budget, sys)) / snr_max


def snr_best_response_factor(
    link: UserLink, price: float, budget: float, sys: SystemParams
) -> BestResponse:
    """Best-response factor f in the SNR auction (bid = f * (opponents + reserve)).

    For a user whose profitable price band exists (pi_hat > pi_lower) this is
    the three-branch piecewise form: divergent at or below pi_lower, the
    closed-form factor in between, zero at or above pi_hat.  Otherwise the
    demand can never be met profitably at an interior point, and the response
    is divergent below the full-budget profit cutoff and zero elsewhere; the
    cutoff is zero when even the whole budget yields no rate increase.
    """
    if not price > 0.0:
        raise ValueError("price must be strictly positive")
    cp = snr_critical_prices(link, budget, sys)
    if cp.regular:
        if price <= cp.pi_lower:
            return BestResponse.infinite()
        if price >= cp.pi_hat:
            return BestResponse.zero()
        target = demanded_snr_increase(link, price, sys)
        if target <= 0.0:
            return BestResponse.zero()
        p_rd = power_for_relayed_snr(link, target, sys)
        if p_rd >= budget:  # rounding at the band edge: demand fills the budget
            return BestResponse.infinite()
        return BestResponse.finite(p_rd / (budget - p_rd))
    cutoff = full_budget_profit_cutoff(link, budget, sys)
    return BestResponse.infinite() if price < cutoff else BestResponse.zero()


# ---------------------------------------------------------------------------
# power auction
#
# Past its breakeven power x0 the rate increase r(p) equals the unclamped
# u(p) = 0.5 W log2(1 + g + s(p)) - W log2(1 + g), the log of a concave
# increasing SNR and hence concave.  On [x0, budget] the net gain
# r(p) - price * p therefore peaks where r'(p) = price, and r(p) / p peaks
# where p r'(p) = r(p).


def _power_curve(link: UserLink, sys: SystemParams) -> tuple[float, float, float, float]:
    """(g, b, c, K): direct SNR, SNR limit, gain_rd / noise and W / (2 ln 2)."""
    return (
        direct_snr(link, sys),
        relayed_snr_limit(link, sys),
        link.gain_rd / sys.noise_w,
        sys.bandwidth_hz / (2.0 * LN2),
    )


def _power_first_order_point(link: UserLink, price: float, sys: SystemParams) -> float:
    """Relay power at which u'(p) = price, or 0 when u' stays below price.

    With a = p c, c = gain_rd / noise, b the SNR limit, g the direct SNR and
    K = W / (2 ln 2), u'(p) = K c b (b+1) / ((a+b+1) ((1+g)(a+b+1) + a b)), so
    u'(p) = price is the quadratic
    (1+g+b) a^2 + (b+1)(2+2g+b) a + (b+1)^2 (1+g) - K c b (b+1) / price = 0.
    It is solved in t = a / (b+1) (divided through by (b+1)^2, which keeps the
    coefficients in range), taking the positive root in the form free of
    cancellation.  The discriminant is at least b^2, so the root is real.
    """
    g, b, c, k = _power_curve(link, sys)
    q2 = 1.0 + g + b
    q1 = 2.0 + 2.0 * g + b
    q0 = 1.0 + g - k * c * b / ((b + 1.0) * price)
    t = -2.0 * q0 / (q1 + math.sqrt(q1 * q1 - 4.0 * q2 * q0))
    return max(t, 0.0) * (b + 1.0) / c


def power_best_response_factor(
    link: UserLink, price: float, budget: float, sys: SystemParams
) -> BestResponse:
    """Best-response factor in the power auction, in closed form.

    The net gain (rate increase minus price * power) is zero up to the
    breakeven power and concave beyond it, so its maximum over
    [breakeven, budget] sits at the root of the first-order condition clamped
    to that interval.  When the gain still climbs at the budget cap and is
    positive there, no finite bid is optimal and the response diverges.
    """
    if not price > 0.0:
        raise ValueError("price must be strictly positive")
    x0 = breakeven_power(link, sys)
    if x0 is None or x0 >= budget:
        return BestResponse.zero()
    end_gain = float(rate_increase(link, budget, sys)) - price * budget
    if rate_increase_power_slope(link, budget, sys) > price:
        return BestResponse.infinite() if end_gain > 0.0 else BestResponse.zero()
    x = min(max(_power_first_order_point(link, price, sys), x0), budget)
    v = float(rate_increase(link, x, sys)) - price * x
    if end_gain > v:
        x, v = budget, end_gain
    if v <= 0.0:
        return BestResponse.zero()
    if x >= budget * (1.0 - 1e-9):
        return BestResponse.infinite()
    return BestResponse.finite(x / (budget - x))


def power_cutoff_point(link: UserLink, budget: float, sys: SystemParams) -> Optional[float]:
    """Relay power p in (0, budget] that maximizes r(p) / p; None if r stays 0.

    The best attainable profit max_p r(p) - price * p is positive exactly
    when price < r(p) / p for some p, so this maximizer fixes the power
    auction's participation cutoff.  On [breakeven, budget]
    phi(p) = p u'(p) - u(p) has derivative p u''(p) <= 0 and is positive at
    the breakeven power, where u vanishes; the maximizer is therefore the
    budget when phi(budget) >= 0 and the root of phi otherwise.  The direct
    SNR must be positive, as it is in every valid scenario.
    """
    x0 = breakeven_power(link, sys)
    if x0 is None or x0 >= budget or float(rate_increase(link, budget, sys)) <= 0.0:
        return None
    g, b, c, k = _power_curve(link, sys)
    if not g > 0.0:
        raise ValueError("direct SNR must be strictly positive")

    def phi(p: float) -> float:
        a = p * c
        s = a * b / (a + b + 1.0)
        slope = k * c * b * (b + 1.0) / ((a + b + 1.0) ** 2 * (1.0 + g + s))
        # u(p) as log1p of (s - g^2 - g) / (1+g)^2: exact near the breakeven
        return p * slope - k * math.log1p((s - g * g - g) / (1.0 + g) ** 2)

    if phi(budget) >= 0.0:
        return budget
    return bisect_root(phi, x0, budget)


@lru_cache(maxsize=1 << 16)
def power_critical_prices(link: UserLink, budget: float, sys: SystemParams) -> CriticalPrices:
    """Critical prices of the power auction, in closed form.

    pi_lower is the marginal rate increase per watt at the full budget;
    pi_hat = max over (0, budget] of r(p) / p, the price at which the best
    attainable profit drops to zero, read at power_cutoff_point.  A user that
    cannot profit at any power (direct link too strong relative to the relay
    path, or breakeven out of reach) gets pi_hat = 0.
    """
    pi_lower = rate_increase_power_slope(link, budget, sys)
    p = power_cutoff_point(link, budget, sys)
    if p is None:
        return CriticalPrices(pi_lower=pi_lower, pi_hat=0.0)
    return CriticalPrices(pi_lower=pi_lower, pi_hat=float(rate_increase(link, p, sys)) / p)


# ---------------------------------------------------------------------------
# shared surface


def best_response_factor(
    link: UserLink, kind: str, price: float, budget: float, sys: SystemParams
) -> BestResponse:
    if kind == SNR:
        return snr_best_response_factor(link, price, budget, sys)
    if kind == POWER:
        return power_best_response_factor(link, price, budget, sys)
    raise ValueError(f"kind must be one of {KINDS}")


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
    if kind == SNR:
        return snr_critical_prices(link, budget, sys)
    if kind == POWER:
        return power_critical_prices(link, budget, sys)
    raise ValueError(f"kind must be one of {KINDS}")


def divergence_cutoff(link: UserLink, kind: str, budget: float, sys: SystemParams) -> float:
    """Largest price at or below which the user's best response can diverge."""
    cp = critical_prices(link, kind, budget, sys)
    if kind == SNR:
        if cp.regular:
            return cp.pi_lower
        return full_budget_profit_cutoff(link, budget, sys)
    if cp.regular:
        return cp.pi_lower
    return min(cp.pi_lower, float(rate_increase(link, budget, sys)) / budget)


def is_snr_regular(scenario: NetworkScenario) -> bool:
    """True when at least one user has a profitable SNR-auction price band."""
    return any(
        snr_critical_prices(u, scenario.relay_budget_w, scenario.system).regular
        for u in scenario.users
    )


def is_power_regular(scenario: NetworkScenario) -> bool:
    """True when at least one user has a profitable power-auction price band."""
    return any(
        power_critical_prices(u, scenario.relay_budget_w, scenario.system).regular
        for u in scenario.users
    )
