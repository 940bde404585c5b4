"""Equilibria, price search, and best-response dynamics.

With linear best responses bid_i = f_i * (opponents + reserve), an
equilibrium exists exactly when every factor is finite and the aggregate
share S = sum f_i/(1+f_i) stays below one.  It is then unique: with total
bid B, b_i = f_i/(1+f_i) (B + reserve), which allocates user i the fraction
f_i/(1+f_i) of the budget, so S is also the utilization.  solve_ne evaluates
this fixed point directly for both auctions.

Counting a divergent factor as share one makes S a non-increasing function
of the price: the existence threshold is where S drops below one, and the
calibrated price is where it drops below the target utilization.  One
bracketed bisection serves both, evaluating S at a tree of prices per call.

Synchronous best-response iteration is kept as a diagnostic.  It is a linear
fixed-point iteration whose matrix has f_i in row i off the diagonal; its
spectral radius is below one under the same condition, so it converges
geometrically from any positive start to the same bids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .auction import (
    AuctionParams,
    BestResponse,
    _UserArrays,
    allocate,
    payment,
)
from .channel import NetworkScenario, rate_increase, relayed_snr
from .numutil import bisect_transition

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 100_000
DIVERGENCE_CAP_FACTOR = 1e12
THRESHOLD_RTOL = 1e-6


@dataclass(frozen=True)
class IterationTrace:
    """Residuals and end point of one synchronous best-response run."""

    residuals: tuple[float, ...]
    final_bids: np.ndarray
    converged: bool
    diverged: bool

    @property
    def n_steps(self) -> int:
        return len(self.residuals)


@dataclass(frozen=True)
class EquilibriumResult:
    """Equilibrium bids together with everything they imply for each user."""

    kind: str
    price: float
    reserve_bid: float
    bids: np.ndarray
    powers: np.ndarray
    delta_snr: np.ndarray
    rate_increase_bps: np.ndarray
    payments: np.ndarray
    payoffs: np.ndarray
    utilization: float

    @property
    def total_rate_increase_bps(self) -> float:
        return float(self.rate_increase_bps.sum())


@dataclass(frozen=True)
class NoEquilibrium:
    """Outcome marker for prices at which no equilibrium exists."""

    reason: str


SolveResult = Union[EquilibriumResult, NoEquilibrium]


@dataclass(frozen=True)
class PriceSearchResult:
    """Outcome of tuning the price toward a target utilization."""

    price: float
    utilization: float
    feasible: bool
    # the last bisection bracket (S >= level, S < level) and the array evaluations of S
    bracket: Optional[tuple[float, float]] = None
    evaluations: int = 0


def response_factors(scenario: NetworkScenario, params: AuctionParams) -> list[BestResponse]:
    """Per-user best-response factors at this price."""
    factors = _UserArrays.of(scenario, params.kind).factors(params.price)
    return [BestResponse(float(f)) for f in factors]


def aggregate_share(factors: Sequence[BestResponse]) -> float:
    """S = sum f/(1+f); equilibrium utilization when all factors are finite."""
    if any(f.is_infinite for f in factors):
        raise ValueError("aggregate share undefined with divergent factors")
    return float(sum(f.value / (1.0 + f.value) for f in factors))


def ne_exists(scenario: NetworkScenario, params: AuctionParams) -> bool:
    return bool(_UserArrays.of(scenario, params.kind).shares([params.price])[0] < 1.0)


def ne_bids_from_factors(factors: Sequence[float], reserve_bid: float) -> np.ndarray:
    """Fixed-point bids for finite factors: b_i = f_i/(1+f_i) * (B + reserve)."""
    f = np.asarray(factors, dtype=float)
    shares = f / (1.0 + f)
    s = float(shares.sum())
    if s >= 1.0:
        raise ValueError("aggregate demand meets or exceeds the budget")
    total = reserve_bid * s / (1.0 - s)
    return shares * (total + reserve_bid)


def update_matrix(factors: Sequence[float]) -> np.ndarray:
    """Linear map of the synchronous update: f_i off the diagonal of row i."""
    f = np.asarray(factors, dtype=float)
    m = np.tile(f[:, None], (1, f.size))
    np.fill_diagonal(m, 0.0)
    return m


def equilibrium_from_bids(
    scenario: NetworkScenario, params: AuctionParams, bids: np.ndarray
) -> EquilibriumResult:
    """Powers, SNRs, rates, payments and payoffs that a bid profile implies."""
    powers = allocate(bids, params.reserve_bid, scenario.relay_budget_w)
    links = _UserArrays.of(scenario, params.kind).links
    sys = scenario.system
    gains = rate_increase(links, powers, sys)
    pays = payment(params.kind, params.price, links, powers, sys)
    return EquilibriumResult(
        kind=params.kind,
        price=params.price,
        reserve_bid=params.reserve_bid,
        bids=np.asarray(bids, dtype=float),
        powers=powers,
        delta_snr=relayed_snr(links, powers, sys),
        rate_increase_bps=gains,
        payments=pays,
        payoffs=gains - pays,
        utilization=float(powers.sum() / scenario.relay_budget_w),
    )


def iterate_best_response(
    scenario: NetworkScenario,
    params: AuctionParams,
    b0: Sequence[float],
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> IterationTrace:
    """Synchronous updates: every user best-responds to the previous profile.

    Stops when the max-norm bid change falls below tol relative to the bid
    scale, when any bid passes the divergence cap, or after max_iter steps.
    A divergent best response at this price marks the trace diverged
    immediately.
    """
    if not tol > 0.0:
        raise ValueError("tol must be strictly positive")
    b = np.asarray(b0, dtype=float).copy()
    if b.shape != (scenario.n_users,):
        raise ValueError("b0 must hold one bid per user")
    if np.any(b < 0.0) or not np.all(np.isfinite(b)):
        raise ValueError("starting bids must be finite and nonnegative")

    f = _UserArrays.of(scenario, params.kind).factors(params.price)
    if np.isinf(f).any():
        return IterationTrace((), b, converged=False, diverged=True)

    cap = DIVERGENCE_CAP_FACTOR * params.reserve_bid
    residuals: list[float] = []
    converged = False
    diverged = False
    for _ in range(max_iter):
        b_next = f * (b.sum() - b + params.reserve_bid)
        res = float(np.max(np.abs(b_next - b)))
        residuals.append(res)
        b = b_next
        if res <= tol * max(float(b.max(initial=0.0)), params.reserve_bid):
            converged = True
            break
        if float(b.max(initial=0.0)) > cap:
            diverged = True
            break
    return IterationTrace(tuple(residuals), b, converged=converged, diverged=diverged)


def solve_ne(scenario: NetworkScenario, params: AuctionParams) -> SolveResult:
    """The unique equilibrium at this price, or a no-equilibrium marker.

    Both auctions are solved by the aggregate-share fixed point
    (ne_bids_from_factors) of their closed-form best-response factors.
    """
    f = _UserArrays.of(scenario, params.kind).factors(params.price)
    if np.isinf(f).any():
        return NoEquilibrium("a best response diverges at this price")
    if float((f / (1.0 + f)).sum()) >= 1.0:
        return NoEquilibrium("aggregate demand meets or exceeds the budget")
    return equilibrium_from_bids(scenario, params, ne_bids_from_factors(f, params.reserve_bid))


def estimate_geometric_rate(trace: IterationTrace, tail: int = 20) -> float:
    """Per-step residual contraction ratio from a least-squares fit of log residuals."""
    if not trace.converged:
        raise ValueError("rate estimation needs a converged trace")
    res = np.asarray(trace.residuals, dtype=float)
    if res.size < 5:
        raise ValueError("rate estimation needs at least 5 steps")
    steps = np.arange(res.size)
    floor = res.max() * 1e-14
    keep = res > max(floor, 0.0)
    res, steps = res[keep], steps[keep]
    if res.size < 5:
        raise ValueError("too few usable residuals for a rate estimate")
    if res.size > tail:
        res, steps = res[-tail:], steps[-tail:]
    slope = np.polyfit(steps, np.log(res), 1)[0]
    return float(math.exp(slope))


class _Shares:
    """S at arrays of prices on one scenario's users, counting the array evaluations."""

    def __init__(self, users: _UserArrays):
        self.users, self.evaluations = users, 0

    def __call__(self, prices) -> np.ndarray:
        self.evaluations += 1
        return self.users.shares(prices)

    def crossing(self, level: float, p_over: float, p_under: float, rtol: float) -> tuple[float, float]:
        """Bracket (p_over, p_under) of the price where S drops below level, rtol apart.

        S(p_over) >= level is required.  p_under is doubled until S < level,
        which holds once nobody bids: the whole ladder is one evaluation.  S is
        non-increasing, so bisection keeps S(p_over) >= level > S(p_under).
        """
        top, ladder = float(self.users.zero_from.max()), [p_under]
        while ladder[-1] <= top:
            ladder.append(2.0 * ladder[-1])
        p_under = ladder[int(np.argmax(self(ladder) < level))]
        return bisect_transition(lambda p: self(p) < level, p_over, p_under, rtol=rtol)

    def threshold_bracket(self, rtol: float) -> tuple[float, float]:
        """Prices just without and just with an equilibrium."""
        users = self.users
        if not users.regular.any():
            raise ValueError(f"scenario is not {users.kind}-regular: only the all-zero outcome exists")
        # just below its divergence cutoff a user diverges, so S >= 1 there
        lo = float(users.cutoff.max()) * (1.0 - 1e-7)
        return self.crossing(1.0, lo, max(float(users.pi_hat.max()), 2.0 * lo), rtol)


def threshold_price(scenario: NetworkScenario, kind: str, rtol: float = THRESHOLD_RTOL) -> float:
    """Price above which an equilibrium exists and below which none does.

    The midpoint of the bisection bracket on S(p) < 1 that starts just below
    the largest divergence cutoff.
    """
    p_none, p_some = _Shares(_UserArrays.of(scenario, kind)).threshold_bracket(rtol)
    return 0.5 * (p_none + p_some)


def calibrate_price(
    scenario: NetworkScenario,
    kind: str,
    target_utilization: float = 0.99,
    rtol: float = 1e-9,
) -> PriceSearchResult:
    """Largest price whose equilibrium still meets the target utilization.

    Utilization S is non-increasing in the price, so the feasible prices form
    an interval from the existence threshold up; the search starts at the
    upper end of the threshold bracket and returns the upper edge, leaving
    utilization as close to the target as the (possibly discontinuous) curve
    allows.  When S falls short of the target already there, that point is
    reported with feasible=False; a scenario where nobody ever bids reports
    zero utilization at a price above every participation cutoff.  The result
    carries the last bisection bracket and the number of array evaluations of S.
    """
    if not 0.0 < target_utilization < 1.0:
        raise ValueError("target_utilization must lie in (0, 1)")
    users = _UserArrays.of(scenario, kind)
    if not users.regular.any():
        price = max(float(users.pi_hat.max()) * 1.01, 1.0)
        return PriceSearchResult(price=price, utilization=0.0, feasible=False)
    shares = _Shares(users)
    bracket = shares.threshold_bracket(THRESHOLD_RTOL)
    p_some, share = bracket[1], float(shares(bracket[1:])[0])
    if share < target_utilization:
        return PriceSearchResult(p_some, share, False, bracket, shares.evaluations)
    bracket = shares.crossing(target_utilization, p_some, 2.0 * p_some, rtol)
    price, share = bracket[0], float(shares(bracket[:1])[0])
    return PriceSearchResult(price, share, True, bracket, shares.evaluations)
