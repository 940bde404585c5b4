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
target.  One search serves both levels (_search): it narrows to the two knots,
users' full_from and zero_from prices, between which S crosses the level and
is a sum of closed forms, solves S = level there by the rule's own root finder
(rising Newton in z = -price^(-1/2) for power, a secular solver for SNR), and
ends at adjacent floats t0 < t1 with S(t0) >= level > S(t1).  The threshold is
t1; a calibration's bracket also decides whether the target is met above it.

Synchronous best-response iteration is kept as a diagnostic.  It is a linear
fixed-point iteration whose matrix has f_i in row i off the diagonal; its
spectral radius is below one under the same condition, so it converges
geometrically from any positive start to the same bids.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .auction import AuctionParams, _UserArrays, allocate
from .channel import NetworkScenario, _log_gain

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 100_000
DIVERGENCE_CAP_FACTOR = 1e12
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
    total_rate_increase_bps: float


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
    # the final bracket, adjacent floats (S >= target, S < target), and the array evaluations of S
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
                             gains - pays, utilization, float(gains.sum()))


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


def _narrow(users: _UserArrays, level: float, prices, bracket: tuple, ks) -> tuple[tuple, int]:
    """The bracket (i, j, S(i), S(j)) of sorted indices, S(i) >= level > S(j), closed in to adjacent ones by calls
    of S at the prices of indices ks in it (given, then up to 32 evenly spaced), and the calls."""
    calls = 0
    while ks:
        i, j, si, sj = bracket
        for k, sk in zip(ks, users.shares(prices(ks)).tolist()):
            if sk < level:
                j, sj = k, sk
                break
            i, si = k, sk
        bracket, calls, n = (i, j, si, sj), calls + 1, min(j - i - 1, 32)
        ks = [i + (j - i) * m // (n + 1) for m in range(1, n + 1)]
    return bracket, calls


def _floats(bits) -> tuple:
    """The floats of the bit patterns, which order the positive floats as integers."""
    return struct.unpack(f"<{len(bits)}d", struct.pack(f"<{len(bits)}q", *bits))


def _bits(floats) -> tuple:
    """The bit patterns of the floats: _floats' inverse."""
    return struct.unpack(f"<{len(floats)}q", struct.pack(f"<{len(floats)}d", *floats))


def _search(users: _UserArrays, level: float) -> tuple[tuple, int]:
    """Adjacent floats t0 < t1 with S(t0) >= level > S(t1), as (t0, t1, S(t0), S(t1)), and the array calls of S.

    For users with a regular one: S >= 1 at the largest divergence cutoff lo, and S = 0 at the last knot
    (the users' full_from and zero_from and next(lo)).  Between knots each user demands the budget, nothing
    or its rule's closed form.  The search narrows to the knots a < b that hold the crossing.  With one user
    on the curve, its inverse demand gives the root; else the rule's root finder on the piece (_Rule.root),
    which finds a jump of S at either end too.  S is then asked at the 13 floats around that price.
    """
    lo = float(users.cutoff.max())
    knots = np.concatenate((users.full_from, users.zero_from, (lo, math.nextafter(lo, math.inf))))
    knots.sort()
    knots = knots[np.concatenate(((True,), knots[1:] != knots[:-1]))]  # a knot that users share is asked once
    i, j = int(knots.searchsorted(lo)), knots.size - 1
    n = min(j - i - 1, 32)  # the first call asks both ends too
    ks = [i + (j - i) * m // (n + 1) for m in range(n + 2)]
    (i, j, si, sj), calls = _narrow(users, level, knots.take, (i, j, None, None), ks)
    a, b = knots[i], knots[j]
    i, j = _bits((a, b))
    if j - i > 1:
        on, m = (users.full_from <= a) & (users.zero_from >= b), np.count_nonzero(users.full_from >= b)
        if np.count_nonzero(on) == 1 and m < level:  # S = m + x / budget: the inverse demand at x is the root
            r = users.rule.price(users, (level - m) * users.budget)[on].item()
        else:
            r = users.rule.root(users, on, (level - m) * users.budget, *_floats((i + 1, j - 1)))
        r = min(max(_bits((r,))[0], i + 1), j - 1)
        (i, j, si, sj), asked = _narrow(users, level, _floats, (i, j, si, sj), range(max(r - 6, i + 1), min(r + 7, j)))
        calls += asked
    return (*_floats((i, j)), si, sj), calls


def threshold_price(scenario: NetworkScenario, kind: str) -> float:
    """Price above which an equilibrium exists and below which none does: the first float with one."""
    users = _UserArrays.of(scenario, kind)
    if not users.regular.any():
        raise ValueError(f"scenario is not {kind}-regular: only the all-zero outcome exists")
    return _search(users, 1.0)[0][1]


def calibrate_price(scenario: NetworkScenario, kind: str, target_utilization: float = 0.99) -> PriceSearchResult:
    """Largest price whose equilibrium still meets the target utilization.

    One search brackets where S drops below the target between adjacent floats: S(t0) >=
    target > S(t1).  If S(t0) < 1, an equilibrium exists at t0 and meets the
    target.  Otherwise S falls from at least one to below the target
    at t1, the existence threshold: no price meets the target, and t1 is reported with
    feasible=False.  Where nobody ever bids, zero utilization at a price above
    every participation cutoff.  The result carries the bracket and the array
    evaluations of S.
    """
    if not 0.0 < target_utilization < 1.0:
        raise ValueError("target_utilization must lie in (0, 1)")
    users = _UserArrays.of(scenario, kind)
    if not users.regular.any():
        return PriceSearchResult(max(float(users.pi_hat.max()) * 1.01, 1.0), 0.0, False)
    (t0, t1, s0, s1), evaluations = _search(users, target_utilization)
    if s0 < 1.0:
        return PriceSearchResult(t0, s0, True, (t0, t1), evaluations)
    return PriceSearchResult(t1, s1, False, (t0, t1), evaluations)
