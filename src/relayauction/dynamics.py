"""Equilibria, price search, and best-response dynamics.

With linear best responses bid_i = f_i * (opponents + reserve), an
equilibrium exists exactly when every factor is finite and the aggregate
share S = sum f_i/(1+f_i) stays below one.  It is then unique: with total
bid B, b_i = f_i/(1+f_i) (B + reserve), which allocates user i the fraction
f_i/(1+f_i) = x_i / budget of the budget: exactly its demand x_i.  So S is the
utilization, and solve_ne reads either auction's equilibrium from one demand
row, with the price search's existence test: nobody diverges and S < 1.

S is also the total demand over the budget, counting a divergent factor as
share one, and does not increase with the price: the existence threshold is
where S drops below one, the calibrated price where it drops below the
target.  A calibration bisects the target level alone; its final bracket also
decides whether the target is met above the threshold.  Each array call of S
also asks ahead along the path a guess of the crossing predicts: S's jumps (a
user leaving at its participation cutoff, or ceasing to diverge just past its
divergence cutoff), else an interpolation of S.  A 20-user calibration takes
1-4 array calls (2.7 on average), each of about 52 prices, with the prices
of one midpoint per step.

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

from .auction import AuctionParams, _UserArrays, allocate
from .channel import NetworkScenario, _log_gain
from .numutil import bisect_transition

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 100_000
DIVERGENCE_CAP_FACTOR = 1e12
THRESHOLD_RTOL = 1e-6
CALIBRATE_RTOL = 1e-9
RATE_TAIL = 20  # residuals the contraction-rate fit reads, the last ones


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
    # the last bracket (S >= target, S < target) and the array evaluations of S
    bracket: Optional[tuple[float, float]] = None
    evaluations: int = 0


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


def _equilibrium(users: _UserArrays, params: AuctionParams, powers, bids, utilization: float) -> EquilibriumResult:
    """The result of an allocation: the relayed SNR once, then the rate increases, payments and payoffs."""
    snr = users.snr(powers)
    gains = np.maximum(_log_gain(snr, users.g, users.gsq, users.g1sq, users.k), 0.0)
    pays = params.price * users.rule.charged(powers, snr)
    return EquilibriumResult(params.kind, params.price, params.reserve_bid, bids, powers, snr, gains, pays,
                             gains - pays, utilization)


def equilibrium_from_bids(scenario: NetworkScenario, params: AuctionParams, bids: np.ndarray) -> EquilibriumResult:
    """Powers, SNRs, rates, payments and payoffs that a bid profile implies."""
    powers = allocate(bids, params.reserve_bid, scenario.relay_budget_w)
    users = _UserArrays.of(scenario, params.kind)
    return _equilibrium(users, params, powers, np.asarray(bids, dtype=float), float(powers.sum() / users.budget))


def iterate_best_response(
    scenario: NetworkScenario, params: AuctionParams, b0: Sequence[float], tol: float = DEFAULT_TOL
) -> IterationTrace:
    """Synchronous updates: every user best-responds to the previous profile.

    Stops when the max-norm bid change falls below tol relative to the bid
    scale, when any bid passes the divergence cap, or after DEFAULT_MAX_ITER steps.
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
    for _ in range(DEFAULT_MAX_ITER):
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

    Both auctions are read from the demand row x at the price: a user diverges
    where x is the whole budget P, and otherwise the equilibrium exists iff
    S = sum x / P < 1, the reduction of _UserArrays.shares and so the price
    search's S to the bit.  The powers are then x, and the bids
    x / P * reserve / (1 - S), which allocate x.
    """
    users = _UserArrays.of(scenario, params.kind)
    x = users.demands(params.price)
    if (x == users.budget).any():
        return NoEquilibrium("a best response diverges at this price")
    s = float(x.sum() / users.budget)
    if s >= 1.0:
        return NoEquilibrium("aggregate demand meets or exceeds the budget")
    return _equilibrium(users, params, x, x / users.budget * (params.reserve_bid / (1.0 - s)), s)


def estimate_geometric_rate(trace: IterationTrace) -> float:
    """Per-step residual contraction ratio from a least-squares fit of the last RATE_TAIL log residuals."""
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
    res, steps = res[-RATE_TAIL:], steps[-RATE_TAIL:]
    slope = np.polyfit(steps, np.log(res), 1)[0]
    return float(math.exp(slope))


def _search(users: _UserArrays, level: float, rtol: float) -> tuple[tuple, int]:
    """bisect_transition on S at level to rtol, and the evaluations of S.

    At or below a user's divergence cutoff its factor diverges (demands()
    tests price <= full_from), so S >= 1 on (0, cutoff.max()]; the bracket starts
    1e-7 below it, inside that set and within a tenth of THRESHOLD_RTOL of a
    threshold at its edge.  It ends at max(pi_hat.max(), 2 * start), where S =
    0: no user diverges past cutoff.max(), and each user demands 0 from its
    zero_from (its pi_hat or its cutoff) on.  The bisection guesses the
    crossing from S's jumps, users.breaks.
    """
    if not users.regular.any():
        raise ValueError(f"scenario is not {users.kind}-regular: only the all-zero outcome exists")
    calls = []

    def shares(prices) -> np.ndarray:
        calls.append(len(prices))
        return users.shares(prices)

    lo = float(users.cutoff.max()) * (1.0 - 1e-7)
    hi = max(float(users.pi_hat.max()), 2.0 * lo)
    return bisect_transition(shares, level, lo, hi, rtol, jumps=users.breaks), len(calls)


def threshold_price(scenario: NetworkScenario, kind: str) -> float:
    """Price above which an equilibrium exists and below which none does.

    The midpoint of the bisection bracket on S(p) < 1, THRESHOLD_RTOL wide,
    that starts just below the largest divergence cutoff.
    """
    p_none, p_some, _, _ = _search(_UserArrays.of(scenario, kind), 1.0, THRESHOLD_RTOL)[0]
    return 0.5 * (p_none + p_some)


def calibrate_price(scenario: NetworkScenario, kind: str, target_utilization: float = 0.99) -> PriceSearchResult:
    """Largest price whose equilibrium still meets the target utilization.

    One search brackets where S drops below the target, to CALIBRATE_RTOL: S(t0) >=
    target > S(t1).  If S(t0) < 1, an equilibrium exists at t0 and meets the
    target.  Otherwise S falls from at least one to below the target within
    the bracket, which therefore holds the existence threshold: no price meets
    the target, and t1, just above the threshold, is reported with
    feasible=False.  Where nobody ever bids, zero utilization at a price above
    every participation cutoff.  The result carries the bracket and the array
    evaluations of S.
    """
    if not 0.0 < target_utilization < 1.0:
        raise ValueError("target_utilization must lie in (0, 1)")
    users = _UserArrays.of(scenario, kind)
    if not users.regular.any():
        return PriceSearchResult(max(float(users.pi_hat.max()) * 1.01, 1.0), 0.0, False)
    (t0, t1, s0, s1), evaluations = _search(users, target_utilization, CALIBRATE_RTOL)
    if s0 < 1.0:
        return PriceSearchResult(t0, s0, True, (t0, t1), evaluations)
    return PriceSearchResult(t1, s1, False, (t0, t1), evaluations)
