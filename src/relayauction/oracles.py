"""Centralized benchmarks: efficient, fair, and pivot-payment allocations.

The total rate increase is non-concave in the power split: each user's
increase r_i = max(0, u_i) is zero up to its breakeven power and concave
beyond, where u_i, the unclamped increase, is concave in power everywhere.
The efficient welfare is therefore the largest, over sets of participants,
of a concave water-filling on the set (Everett's multiplier method), and
`efficient_allocation` finds it exactly by branch-and-bound over the sets
(Udell & Boyd, "Maximizing a sum of sigmoids").  A node forces some users
in, some out and leaves the rest free, relaxed to the concave envelope of
r_i; its water-filling is the power auction's own demand at one multiplier
per node, and its dual value bounds every set below it.  A node whose
relaxed split uses the whole budget is solved outright; otherwise it
branches on the free user whose envelope demand jumps across the
multiplier.  The fair allocation equalizes the marginal rate gain per unit
of relayed SNR across participants, which pins a common SNR level; the
largest feasible level is found by bisection on the budget constraint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .auction import POWER, _power_curve, _power_demand, _UserArrays
from .channel import (
    NetworkScenario,
    _LinkArrays,
    direct_snr,
    power_for_relayed_snr,
    rate_increase,
    relayed_snr,
    relayed_snr_limit,
    snr_marginal_rate,
)
from .numutil import bisect_transition, newton_root

# a node is closed once its bound is at most the incumbent times (1 + BOUND_RTOL)
BOUND_RTOL = 1e-12


@dataclass(frozen=True)
class OracleAllocation:
    """A centrally computed power split and the welfare it yields."""

    powers: np.ndarray
    total_rate_increase_bps: float
    per_user_rate_increase_bps: np.ndarray
    marginal_utility: np.ndarray  # d(rate)/d(SNR) for participants, 0 otherwise
    nodes: int = 1  # branch-and-bound nodes solved; 1 for a closed form
    certified_gap: float = 0.0  # the optimum is at most the total times (1 + gap)


@dataclass(frozen=True)
class VcgResult:
    """Efficient allocation plus the externality payment charged to each user."""

    allocation: OracleAllocation
    payments: np.ndarray


def _welfare(scenario: NetworkScenario, powers: np.ndarray, links: Optional[_LinkArrays] = None):
    """Total rate increase of a split, or of every row of a stack of splits."""
    if links is None:
        links = _LinkArrays.of(scenario.users)
    return rate_increase(links, powers, scenario.system).sum(axis=-1)


def _finish(
    scenario: NetworkScenario, powers: np.ndarray, links: _LinkArrays, nodes: int = 1, gap: float = 0.0
) -> OracleAllocation:
    """Zero out users whose power buys no rate increase, then package."""
    sys = scenario.system
    gains = rate_increase(links, powers, sys)
    buys = gains > 0.0
    powers = np.where(buys, powers, 0.0)
    marginals = np.where(buys, snr_marginal_rate(links, relayed_snr(links, powers, sys), sys), 0.0)
    return OracleAllocation(
        powers=powers,
        total_rate_increase_bps=float(gains.sum()),
        per_user_rate_increase_bps=gains,
        marginal_utility=marginals,
        nodes=nodes,
        certified_gap=gap,
    )


class _Relaxation:
    """Nodes of the efficient problem on one scenario's power-auction arrays.

    A node is a row of two masks: users forced in take u_i, free users take
    the concave envelope of r_i on [0, budget] (the line of slope pi_hat up
    to the tangent point, then u_i), and the rest take 0.  For any set A
    between the forced-in users and the free ones, the water-filling of A is
    at most the node's relaxation.  Users whose rate increase stays 0 up to
    the budget (pi_hat = 0) are never worth forcing in or leaving free.
    """

    def __init__(self, users: _UserArrays):
        self.users = users
        self.live = users.gain_max > 0.0
        # where a free user's demand drops from its tangent point to 0
        self.jumps = np.where(self.live, users.pi_hat, np.inf)
        # the demand at pi_hat: u' meets pi_hat there, or stays above it up to the budget
        self.tangent = _power_demand(users, self.jumps)
        self.shape = (users.g, users.b, users.c, users.k)
        self.slope_zero = _power_curve(0.0, *self.shape)[1]
        self.slope_full = _power_curve(users.budget, *self.shape)[1]

    def _split(self, price, inn: np.ndarray, free: np.ndarray):
        """Demands at prices broadcast against the masks, and the forced-in demands d."""
        d = _power_demand(self.users, price)
        # below pi_hat the envelope's demand is d, at least the tangent point
        relaxed = np.where(price < self.jumps, d, 0.0)
        return np.where(inn, d, np.where(free, relaxed, 0.0)), d

    def solve(self, inn: np.ndarray, free: np.ndarray):
        """Multiplier, split, dual bound and welfare of every node; each needs a participant.

        The multiplier is the root of f(lam) = sum_i x_i(lam) - budget, which
        falls by a free user's tangent point at its pi_hat.  Evaluating f at
        every free pi_hat either finds the root on such a jump, where the
        relaxed split misses the budget, or brackets it between two jumps,
        where one Newton search for all those rows finds it, with
        d x_i / d lam = 1 / u_i'' where x_i lies on a curved piece.  The
        bound lam B + sum_i max_x (f_i(x) - lam x), f_i the user's term,
        holds at any lam >= 0.  The split is returned scaled onto the budget,
        with the welfare sum_i r_i it yields.
        """
        budget, jumps = self.users.budget, self.jumps
        after = self._split(jumps[:, None], inn[:, None, :], free[:, None, :])[0].sum(axis=2) - budget
        before = after + self.tangent
        # at top every demand is 0; at half of full some user's is the budget
        top = np.where(inn, self.slope_zero, np.where(free, jumps, 0.0)).max(axis=1)
        full = np.where(free, np.minimum(self.slope_full, jumps), np.where(inn, self.slope_full, 0.0))
        lo = np.maximum(0.5 * full.max(axis=1), np.where(free & (after > 0.0), jumps, 0.0).max(axis=1))
        hi = np.minimum(top, np.where(free & (before < 0.0), jumps, np.inf).min(axis=1))
        lam = np.where(free & (after <= 0.0) & (before >= 0.0), jumps, np.inf).min(axis=1)
        rows = np.isinf(lam)
        if rows.any():
            inn_r, free_r = inn[rows], free[rows]

            def excess(lam):
                x, d = self._split(lam[:, None], inn_r, free_r)
                _, slope, bend = _power_curve(x, *self.shape)
                curved = (x == d) & (x > 0.0) & (x < budget)
                dx = -1.0 / (self.users.c * slope * bend)
                return x.sum(axis=1) - budget, np.where(curved, dx, 0.0).sum(axis=1)

            lam[rows] = newton_root(excess, lo[rows], hi[rows])
        x, _ = self._split(lam[:, None], inn, free)
        gain = _power_curve(x, *self.shape)[0] - lam[:, None] * x
        gain = np.where(inn, gain, np.where(free, np.maximum(gain, 0.0), 0.0))
        total = x.sum(axis=1, keepdims=True)
        x = x * np.divide(budget, total, out=np.zeros_like(total), where=total > 0.0)
        welfare = np.maximum(_power_curve(x, *self.shape)[0], 0.0).sum(axis=1)
        return lam, x, lam * budget + gain.sum(axis=1), welfare


def _branch_and_bound(users: _UserArrays) -> tuple[np.ndarray, int, float]:
    """Efficient split of users.budget, the nodes solved, and the certified gap.

    Each level is solved as one array of nodes.  A node's split, scaled
    onto the budget, is a candidate.  A node whose bound the incumbent does
    not meet branches on the free user whose pi_hat is nearest its
    multiplier, forcing it in and out; the water-filling of its
    participants (those forced in, the free ones with positive demand and
    that user) joins the next level as a node with none free.  The search
    ends when every open bound is at most the incumbent times
    (1 + BOUND_RTOL).
    """
    relax = _Relaxation(users)
    n = relax.live.size
    best_x, best = np.zeros(n), 0.0
    inn, free = np.zeros((1, n), dtype=bool), relax.live[None, :]
    nodes, closed = 0, 0.0
    while len(inn):
        nodes += len(inn)
        lam, x, bound, value = relax.solve(inn, free)
        k = int(value.argmax())
        if value[k] > best:
            best_x, best = x[k], float(value[k])
        branch = (bound > best * (1.0 + BOUND_RTOL)) & free.any(axis=1)
        closed = max(closed, float(bound[~branch].max(initial=0.0)))
        inn, free, lam, x = inn[branch], free[branch], lam[branch], x[branch]
        rows = np.arange(len(inn))
        pick = np.where(free, np.abs(relax.jumps - lam[:, None]), np.inf).argmin(axis=1)
        filled = inn | (free & (x > 0.0))
        forced, rest = inn.copy(), free.copy()
        filled[rows, pick] = forced[rows, pick] = True
        rest[rows, pick] = False
        inn = np.concatenate([forced, inn, filled])
        free = np.concatenate([rest, rest, np.zeros_like(filled)])
        # a node without participants is worth 0, which no incumbent is below
        keep = (inn | free).any(axis=1)
        inn, free = inn[keep], free[keep]
    return best_x, nodes, max(closed / best - 1.0, 0.0)


def _check_seeds(seeds: Iterable[Sequence[float]], n: int) -> None:
    """Raise ValueError naming a seed that is not one finite nonnegative power per user."""
    for k, seed in enumerate(seeds):
        row = np.asarray(seed, dtype=float)
        if row.shape != (n,):
            raise ValueError(f"seeds[{k}] has shape {row.shape}; it needs one power per user ({n})")
        if not np.all(np.isfinite(row) & (row >= 0.0)):
            raise ValueError(f"seeds[{k}] must hold finite nonnegative powers, got {row.tolist()}")


def efficient_allocation(
    scenario: NetworkScenario,
    delta: float = 0.01,
    grid_n: int = 4096,
    seeds: Iterable[Sequence[float]] = (),
) -> OracleAllocation:
    """Power split maximizing the total rate increase on budget P*(1-delta).

    Exact, by branch-and-bound over the participant set (see the module
    docstring); the result reports the nodes solved and the certified gap,
    at most 1e-12.  A scenario with at most one user who can gain from the
    relay is a closed form: that user takes the whole budget.  Power that
    buys no rate increase is released, so the budget may go partly unused.
    grid_n (at least 16) and seeds (one finite nonnegative power per user
    each) are validated and otherwise ignored, kept for compatibility.
    """
    if not 0.0 <= delta < 1.0:
        raise ValueError("delta must lie in [0, 1)")
    if grid_n < 16:
        raise ValueError("grid_n must be at least 16")
    _check_seeds(seeds, scenario.n_users)
    budget = scenario.relay_budget_w * (1.0 - delta)
    links = _LinkArrays.of(scenario.users)
    live = rate_increase(links, budget, scenario.system) > 0.0
    if live.sum() <= 1:
        return _finish(scenario, np.where(live, budget, 0.0), links)
    if delta == 0.0:  # the relay budget: the power auction's own arrays serve
        users = _UserArrays.of(scenario, POWER)
    else:
        users = _UserArrays(scenario.users, budget, scenario.system, POWER)
    powers, nodes, gap = _branch_and_bound(users)
    return _finish(scenario, powers, links, nodes, gap)


def fair_allocation(scenario: NetworkScenario, delta: float = 0.01) -> OracleAllocation:
    """Equal-marginal power split on budget P*(1-delta).

    Every participant ends at the same combined SNR level (direct plus
    relayed), which equalizes the marginal rate gain per unit of SNR; the
    level is pushed as high as the budget allows.  Users whose rate increase
    would not be positive at the resulting level are dropped and the level
    recomputed, until the participant set is stable.
    """
    if not 0.0 <= delta < 1.0:
        raise ValueError("delta must lie in [0, 1)")
    budget = scenario.relay_budget_w * (1.0 - delta)
    sys = scenario.system
    links = _LinkArrays.of(scenario.users)
    g, limit = direct_snr(links, sys), relayed_snr_limit(links, sys)
    # users whose breakeven power (relayed SNR g^2 + g) lies within the budget
    even = g * g + g
    reach = even < limit
    active = reach & (power_for_relayed_snr(links, np.where(reach, even, 0.0), sys) < budget)

    def powers_at(levels) -> np.ndarray:
        """Each active user's power at each level: 0 below its direct level, inf at its limit."""
        target = np.asarray(levels, dtype=float)[:, None] - 1.0 - g
        need = active & (target > 0.0)
        inside = need & (target < limit)
        p = power_for_relayed_snr(links, np.where(inside, target, 0.0), sys)
        return np.where(inside, p, np.where(need, np.inf, 0.0))

    def over(levels) -> np.ndarray:
        return powers_at(levels).sum(axis=1) > budget

    level = 1.0
    while active.any():
        hi = float((1.0 + g + limit)[active].min()) * (1.0 - 1e-12)
        # at level 1 nobody needs power; over drops below 1/2 where the total fits
        level = hi if not over([hi])[0] else bisect_transition(over, [(0.5, hi, 1.0, 1e-13)])[0][1]
        drops = active & (level <= (1.0 + g) ** 2)
        if not drops.any():
            break
        active &= ~drops

    return _finish(scenario, powers_at([level])[0], links)


def vcg_auction(scenario: NetworkScenario, delta: float = 0.01, grid_n: int = 4096) -> VcgResult:
    """Efficient allocation with pivot payments.

    Each user pays the welfare the others lose from its presence: the best
    total the others could reach alone, minus what they actually get.  A
    user the efficient split gives no power leaves the optimum unchanged and
    pays exactly 0; for every other user one more welfare maximization runs
    on the scenario without it.
    """
    base = efficient_allocation(scenario, delta, grid_n)
    payments = np.zeros(scenario.n_users)
    for i in np.flatnonzero(base.powers > 0.0) if scenario.n_users > 1 else ():
        others_gain = float(base.total_rate_increase_bps - base.per_user_rate_increase_bps[i])
        alone = efficient_allocation(scenario.without_user(i), delta, grid_n)
        payments[i] = max(alone.total_rate_increase_bps - others_gain, 0.0)
    return VcgResult(allocation=base, payments=payments)
