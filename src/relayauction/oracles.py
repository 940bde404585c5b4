"""Centralized benchmarks: efficient, fair, and pivot-payment allocations.

The total rate increase is non-concave in the power split: each user's increase
r_i = max(0, u_i) is zero up to its breakeven power and concave beyond, where u_i, the
unclamped increase, is concave in power everywhere.  The efficient welfare is therefore
the largest, over sets of participants, of a concave water-filling on the set (Everett's
multiplier method), and `efficient_allocation` finds it exactly by branch-and-bound over
the sets (Udell & Boyd, "Maximizing a sum of sigmoids").  A node forces some users in,
some out and leaves the rest free, relaxed to the concave envelope of r_i; its
water-filling is the power auction's own demand at one multiplier per node, found by
monotone Newton in lam^(-1/2) on the piece between tabulated breakpoints that holds it,
and its dual value bounds every set below it.  A node whose relaxed split uses the whole
budget is solved outright; else it branches on the free user whose envelope demand jumps
across the multiplier.  A user's pivot payment needs the welfare of the others without
it: the same problem with that user forced out from the root.  The efficient problem and
every such leave-one-out problem run as one search on the scenario's core (auction._Core,
whose power demand and pi_hat it reads; no auction's thresholds are built), one relaxation
solve per level, and each problem sees the nodes it would see alone.  Each split comes back
with its per-user gains, which the results and the payments read.  The fair allocation
equalizes the marginal rate gain per unit of relayed SNR across participants at one SNR
level 1 + u, the largest the budget allows: the root of a secular sum, with a pole at each
user's SNR limit, which numutil.falling_secular steps onto from its two nearest poles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .auction import _Core, _piece_excess, _power_demand
from .channel import NetworkScenario
from .numutil import falling_secular

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


def _finish(core: _Core, powers: np.ndarray, gains: np.ndarray, nodes: int = 1, gap: float = 0.0) -> OracleAllocation:
    """Zero out users whose power buys no rate increase (gains: max(u, 0) at the powers), then package."""
    buys = gains > 0.0
    return OracleAllocation(
        powers=np.where(buys, powers, 0.0),
        total_rate_increase_bps=float(gains.sum()),
        per_user_rate_increase_bps=gains,
        marginal_utility=np.where(buys, core.k / (core.g1 + core.snr(powers)), 0.0),
        nodes=nodes,
        certified_gap=gap,
    )


class _Relaxation:
    """Nodes of the efficient problem on one scenario's core.

    A node is a row of two masks: users forced in take u_i, free users take
    the concave envelope of r_i on [0, budget] (the line of slope pi_hat up
    to the tangent point, then u_i), and the rest take 0.  For any set A
    between the forced-in users and the free ones, the water-filling of A is
    at most the node's relaxation.  Users whose rate increase stays 0 up to
    the budget (pi_hat = 0) are never worth forcing in or leaving free.
    points holds every breakpoint of a node's excess: each user's jump, then
    its slope_full (below it, the whole budget), then its slope_zero (from it,
    0).  at[k, i] is user i's demand at points[k], and relaxed[k, i] its
    envelope demand there, 0 from user i's own jump on; both are built once.
    """

    def __init__(self, core: _Core):
        self.core = core
        # where a free user's demand drops from its tangent point to 0
        self.jumps = jumps = np.where(core.gain_max > 0.0, core.power_pi_hat, np.inf)
        self.points = points = np.concatenate([jumps, core.slope_full, core.slope(0.0)])
        self.at = self._demand(points[:, None])
        self.relaxed = np.where(points[:, None] < jumps, self.at, 0.0)
        # the demand at pi_hat: u' meets pi_hat there, or stays above it up to the budget
        self.tangent = self.at.diagonal()

    def _demand(self, price):
        """Every user's demand at prices broadcast against the users, held within [0, budget]."""
        return np.minimum(np.maximum(_power_demand(self.core, price), 0.0), self.core.budget)

    def _search(self, inn: np.ndarray, free: np.ndarray, excess: np.ndarray) -> np.ndarray:
        """Multipliers of nodes whose excess crosses 0 off every jump (excess: at every point).

        A node's own points are its free users' jumps and its participants' clamp prices.
        The excess falls in price, so the largest of them lo where it is > 0 (else half the
        smallest, where every participant demands the budget) opens the piece holding the
        root.  On it each participant demands the budget, nothing or its unclamped closed
        form, so plain Newton from lo in z = -lam^(-1/2) rises monotonically onto the root
        (_piece_excess).  A row stops at its first step within 1e-12 of its point and stays
        frozen, so each row's root is the one it gets alone, to the bit.
        """
        core, points, n = self.core, self.points, self.jumps.size
        part = inn | free
        owned = part[:, np.arange(points.size) % n]  # a point is its user's while the user takes part,
        owned[:, :n] = free  # a jump only while the user is free
        lo = np.maximum.reduce(np.where(owned & (excess > 0.0), points, 0.0), axis=1, keepdims=True)
        lo = np.maximum(lo, 0.5 * np.minimum.reduce(np.where(owned, points, np.inf), axis=1, keepdims=True))
        # just above lo: who demands something, and of those who less than the budget
        demands = part & (lo < np.minimum(points[2 * n :], np.where(free, self.jumps, np.inf)))
        curved = demands & (core.slope_full <= lo)
        q2x4, q1, bsq, kcb1 = core.power_coef
        piece = ((np.add.reduce(demands ^ curved, axis=1, keepdims=True) - 1.0) * core.budget, core.g1, q2x4, q1,
                 np.where(curved, bsq, 1.0), np.where(curved, kcb1, 0.0), np.where(curved, 2.0 * core.b1c, 0.0))
        z, step = -lo**-0.5, np.zeros(lo.shape)
        live = np.logical_or.reduce(curved, axis=1, keepdims=True)  # elsewhere the excess is flat: lo is a root
        for _ in range(64):
            if not np.logical_or.reduce(live, axis=None):
                break
            excess, slope = _piece_excess(piece, z)
            np.divide(excess, slope, out=step, where=live)
            nxt = z - step
            z = np.where(live, nxt, z)
            live &= np.abs(step) > 1e-12 * np.abs(nxt)
        return 1.0 / (z * z)[:, 0]

    def solve(self, inn: np.ndarray, free: np.ndarray):
        """Multiplier, split, dual bound, welfare and per-user gains of every node; each needs a participant.

        The multiplier is the root of f(lam) = sum_i x_i(lam) - budget, which
        falls by a free user's tangent point at its pi_hat.  f at every point
        is one pair of matrix products on the tables.  Its values at the free
        users' jumps either find the root on such a jump, where the relaxed
        split misses the budget, or show it lies off every jump, where one
        monotone Newton search for all those rows finds it (_search).  The
        bound lam B + sum_i max_x (f_i(x) - lam x), f_i the user's term,
        holds at any lam >= 0.  The split is returned scaled onto the budget,
        with each user's r_i there and the welfare sum_i r_i.
        """
        core, jumps, budget = self.core, self.jumps, self.core.budget
        excess = inn @ self.at.T + free @ self.relaxed.T - budget
        after = excess[:, : jumps.size]  # at each jump, just after its user's demand drops
        lam = np.where(free & (after <= 0.0) & (after + self.tangent >= 0.0), jumps, np.inf).min(axis=1)
        rows = np.isinf(lam)
        if rows.any():
            lam[rows] = self._search(inn[rows], free[rows], excess[rows])
        # below pi_hat the envelope's demand is the demand, at least the tangent point
        x = np.where(inn | free & (lam[:, None] < jumps), self._demand(lam[:, None]), 0.0)
        gain = core.gain(x) - lam[:, None] * x
        gain = np.where(inn, gain, np.where(free, np.maximum(gain, 0.0), 0.0))
        total = x.sum(axis=1, keepdims=True)
        x = x * np.divide(budget, total, out=np.zeros(total.shape), where=total > 0.0)
        gains = np.maximum(core.gain(x), 0.0)
        return lam, x, lam * budget + gain.sum(axis=1), gains.sum(axis=1), gains


def _branch_and_bound(relax: _Relaxation, free: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Efficient splits of the budget, their per-user gains, nodes solved and certified gaps of a stack of problems.

    Row p of free marks the users problem p may let in.  Each level of
    every problem is solved as one array of nodes, each tagged with its
    problem.  A node's split, scaled onto the budget, is a candidate for its
    problem.  A node whose bound its problem's incumbent does not meet
    branches on the free user whose pi_hat is nearest its multiplier,
    forcing it in and out; the water-filling of its participants (those
    forced in, the free ones with positive demand and that user) joins the
    next level as a node with none free.  A problem ends when every open
    bound is at most its incumbent times (1 + BOUND_RTOL).  A user never
    free is never let in: its column adds exact zeros to every sum and
    neutral values to every reduction.  Nodes keep their problem's order
    within a level and the multiplier search solves each node as if alone,
    so every problem sees the nodes and results it would see alone.
    """
    problems, n = free.shape
    each = np.arange(problems)[:, None]
    best_x, best_gains, best = np.zeros((problems, n)), np.zeros((problems, n)), np.zeros(problems)
    inn, tag = np.zeros(free.shape, dtype=bool), each[:, 0]
    tags, closed = [], []  # every node's problem, and its bound where it closed (else 0)
    while True:
        lam, x, bound, value, gains = relax.solve(inn, free)
        # each problem's largest value, at the first of its nodes that reaches it
        mine = np.where(tag == each, value, -np.inf)
        k, top = mine.argmax(axis=1), mine.max(axis=1)
        better = top > best
        node = k[better]
        best_x[better], best_gains[better], best = x[node], gains[node], np.maximum(best, top)
        branch = (bound > best[tag] * (1.0 + BOUND_RTOL)) & free.any(axis=1)
        tags.append(tag)
        closed.append(np.where(branch, 0.0, bound))
        if not branch.any():
            break
        inn, free, tag, lam, x = inn[branch], free[branch], tag[branch], lam[branch], x[branch]
        rows = np.arange(len(inn))
        pick = np.where(free, np.abs(relax.jumps - lam[:, None]), np.inf).argmin(axis=1)
        filled = inn | (free & (x > 0.0))
        forced, rest = inn.copy(), free.copy()
        filled[rows, pick] = forced[rows, pick] = True
        rest[rows, pick] = False
        inn = np.concatenate([forced, inn, filled])
        free = np.concatenate([rest, rest, np.zeros(filled.shape, dtype=bool)])
        tag = np.concatenate([tag, tag, tag])
        # a node without participants is worth 0, which no incumbent is below
        keep = (inn | free).any(axis=1)
        inn, free, tag = inn[keep], free[keep], tag[keep]
    mine = np.concatenate(tags) == each
    closed = np.where(mine, np.concatenate(closed), 0.0).max(axis=1)
    return best_x, best_gains, mine.sum(axis=1), np.maximum(closed / best - 1.0, 0.0)


def _core(scenario: NetworkScenario, delta: float) -> _Core:
    """The scenario's core at the budget P*(1-delta) the oracles solve on."""
    if not 0.0 <= delta < 1.0:
        raise ValueError("delta must lie in [0, 1)")
    return _Core.of(scenario, scenario.relay_budget_w * (1.0 - delta))


def _solve(scenario: NetworkScenario, delta: float, pivots: bool):
    """The core, the live users, and each problem's efficient split, its gains, nodes and gap on budget P*(1-delta).

    Problem 0 may let in every live user (one who can gain from the relay); with pivots, problem
    1 + j leaves live user j out.  A problem with at most one live user is a closed form, that user
    taking the whole budget and gaining gain_max; the rest run as one branch-and-bound on the core.
    """
    core = _core(scenario, delta)
    can_gain = core.gain_max > 0.0
    live = can_gain.nonzero()[0]
    free = np.repeat(can_gain[None], 1 + live.size * pivots, axis=0)
    free[np.arange(1, len(free)), live[: len(free) - 1]] = False  # problem 1 + j leaves live user j out
    x, gains = np.where(free, core.budget, 0.0), np.where(free, core.gain_max, 0.0)
    nodes, gaps = np.ones(len(free), dtype=int), np.zeros(len(free))
    many = free.sum(axis=1) > 1
    if many.any():
        x[many], gains[many], nodes[many], gaps[many] = _branch_and_bound(_Relaxation(core), free[many])
    return core, live, x, gains, nodes, gaps


def efficient_allocation(scenario: NetworkScenario, delta: float = 0.01) -> OracleAllocation:
    """Power split maximizing the total rate increase on budget P*(1-delta).

    Exact, by branch-and-bound over the participant set (_solve, and the
    module docstring); the result reports the nodes solved and the certified
    gap, at most 1e-12.  With at most one user who can gain from the relay it
    is a closed form: that user takes the whole budget.  Power that buys no
    rate increase is released, so the budget may go partly unused.
    """
    core, _, x, gains, nodes, gaps = _solve(scenario, delta, pivots=False)
    return _finish(core, x[0], gains[0], int(nodes[0]), float(gaps[0]))


def fair_allocation(scenario: NetworkScenario, delta: float = 0.01) -> OracleAllocation:
    """Equal-marginal power split on budget P*(1-delta).

    Every participant ends at the same combined SNR level 1 + u (direct plus relayed), which equalizes
    the marginal rate gain per unit of SNR; u is the first that fits falling from the smallest g + snr_max,
    so the largest that fits to a few ulps (numutil.falling_secular: user i needs b1c_i t_i / (b_i - t_i),
    t_i = u - g_i).  Users whose rate increase would not be positive there (u <= g (2 + g)) are dropped
    and u solved again, from the users who can gain from the relay until the set is stable, each set
    once.  A round that drops only users given no power (u <= g) keeps its level; one that would drop
    every user keeps the one who gains most alone (the first on ties).
    """
    core = _core(scenario, delta)
    g, active, powers = core.g, core.gain_max > 0.0, np.zeros(scenario.n_users)
    while active.any():
        u = float(np.minimum.reduce(np.where(active, g + core.snr_max, np.inf)))
        u, powers = falling_secular(np.where(active, g, u), core.b, core.b1c, core.budget, u)[:2]  # inactive: t <= 0
        drops = active & (u <= g * (2.0 + g))
        if not (drops & (u > g)).any():  # nobody dropped is given power: the level stands
            break
        if (drops == active).all() and active.sum() > 1:
            active = np.arange(scenario.n_users) == np.where(active, core.gain_max, 0.0).argmax()
        else:
            active &= ~drops
    powers = np.where(active, powers, 0.0)
    return _finish(core, powers, np.maximum(core.gain(powers), 0.0))


def vcg_auction(scenario: NetworkScenario, delta: float = 0.01, grid_n: int = 4096) -> VcgResult:
    """Efficient allocation with pivot payments.

    Each user pays the welfare the others lose from its presence: the best total the others could
    reach alone, minus what they actually get.  The efficient split and, for every user who can gain
    from the relay, the efficient split with that user left out are solved as the problems of one
    branch-and-bound on one core (_solve), whose splits come with their gains.  A user the efficient
    split gives no power pays exactly 0.  grid_n is ignored; its one caller, perfbench/workloads.py::_sweep_unit,
    stops passing it with ROADMAP item 1, which retires it and TwoUserSweepSpec.oracle_grid_n.
    """
    core, live, x, gains, nodes, gaps = _solve(scenario, delta, pivots=True)
    base = _finish(core, x[0], gains[0], int(nodes[0]), float(gaps[0]))
    alone = np.zeros(scenario.n_users)
    alone[live] = gains[1:].sum(axis=1)
    others = base.total_rate_increase_bps - base.per_user_rate_increase_bps
    payments = np.where(base.powers > 0.0, np.maximum(alone - others, 0.0), 0.0)
    return VcgResult(allocation=base, payments=payments)
