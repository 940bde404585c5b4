"""Equilibria, price search, and best-response dynamics.

With linear best responses bid_i = f_i * (opponents + reserve), an
equilibrium exists exactly when every factor is finite and the aggregate
share S = sum f_i/(1+f_i) stays below one.  It is then unique: with total
bid B, b_i = f_i/(1+f_i) (B + reserve), which allocates user i the fraction
f_i/(1+f_i) of the budget, so S is also the utilization.  solve_ne evaluates
this fixed point directly for both auctions.

S is also the total demand over the budget, counting a divergent factor as
share one, and does not increase with the price: the existence threshold is
where S drops below one, the calibrated price where it drops below the
target.  One bisection follows both levels in the same array calls of S.

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
    # the last bracket (S >= level, S < level), array evaluations of S, threshold bracket
    bracket: Optional[tuple[float, float]] = None
    evaluations: int = 0
    threshold_bracket: Optional[tuple[float, float]] = None


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


def _search(users: _UserArrays, levels: Sequence[tuple[float, float]]) -> tuple[list, int]:
    """bisect_transition on S for each (level, rtol) from one ladder, and the evaluations of S.

    At or below a user's divergence cutoff its factor diverges (factors()
    tests price <= cutoff), so S >= 1 on (0, cutoff.max()]; the brackets start
    1e-7 below it, inside that set and within a tenth of THRESHOLD_RTOL of a
    threshold at its edge.  The ladder doubles from max(pi_hat.max(), 2 *
    start) to zero_from.max(), where (past cutoff.max() too) S = 0 unevaluated.
    """
    if not users.regular.any():
        raise ValueError(f"scenario is not {users.kind}-regular: only the all-zero outcome exists")
    calls = []

    def shares(prices) -> np.ndarray:
        calls.append(len(prices))
        return users.shares(prices)

    lo = float(users.cutoff.max()) * (1.0 - 1e-7)
    top, ladder = float(users.zero_from.max()), [max(float(users.pi_hat.max()), 2.0 * lo)]
    while ladder[-1] < top:
        ladder.append(2.0 * ladder[-1])
    rungs, below = [lo, *ladder], ladder[:-1]
    s = np.append(shares(below) if below else [], 0.0)
    ks = [int(np.argmax(s < level)) for level, _ in levels]
    searches = [(level, rungs[k], rungs[k + 1], rtol) for (level, rtol), k in zip(levels, ks)]
    return bisect_transition(shares, searches), len(calls)


def threshold_price(scenario: NetworkScenario, kind: str, rtol: float = THRESHOLD_RTOL) -> float:
    """Price above which an equilibrium exists and below which none does.

    The midpoint of the bisection bracket on S(p) < 1 that starts just below
    the largest divergence cutoff.
    """
    p_none, p_some, _, _ = _search(_UserArrays.of(scenario, kind), [(1.0, rtol)])[0][0]
    return 0.5 * (p_none + p_some)


def calibrate_price(
    scenario: NetworkScenario,
    kind: str,
    target_utilization: float = 0.99,
    rtol: float = 1e-9,
) -> PriceSearchResult:
    """Largest price whose equilibrium still meets the target utilization.

    One search follows S = 1 (to THRESHOLD_RTOL) and S = target (to rtol),
    and returns the target bracket's lower end, raised to the threshold
    bracket's upper end if below it, where an equilibrium exists.  If S is
    below the target already at that upper end, that point is reported with
    feasible=False; where nobody ever bids, zero utilization at a price above
    every participation cutoff.  The result carries both brackets and the
    array evaluations of S.
    """
    if not 0.0 < target_utilization < 1.0:
        raise ValueError("target_utilization must lie in (0, 1)")
    users = _UserArrays.of(scenario, kind)
    if not users.regular.any():
        return PriceSearchResult(max(float(users.pi_hat.max()) * 1.01, 1.0), 0.0, False)
    found, evaluations = _search(users, [(1.0, THRESHOLD_RTOL), (target_utilization, rtol)])
    (p_none, p_some, _, s_some), target = found
    if s_some < target_utilization:
        return PriceSearchResult(p_some, s_some, False, (p_none, p_some), evaluations, (p_none, p_some))
    price, share = (target[0], target[2]) if target[0] > p_some else (p_some, s_some)
    return PriceSearchResult(price, share, True, target[:2], evaluations, (p_none, p_some))
