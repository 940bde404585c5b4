"""Centralized benchmarks: efficient, fair, and pivot-payment allocations.

The total rate increase is non-smooth and non-concave in the power split, so
the efficient allocation is found by honest search.  The starts are an
exhaustive grid optimum for up to three users (restricted to the full-budget
face, since every user's rate increase is non-decreasing in own power), and
the single-user, uniform and random splits beyond that, plus any seeds.  All
starts are refined together, as the rows of one array, by sweeps of optimal
two-user power transfers: each pair's split is a grid over every row's pool,
narrowed by finer grids around the best point, one array call per round.  A
row leaves the sweeps once one leaves it unchanged, so each start ends where
it would alone.  The fair allocation equalizes the marginal rate gain per
unit of relayed SNR across participants, which pins a common SNR level; the
largest feasible level is found by bisection on the budget constraint.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Optional, Sequence

import numpy as np

from .channel import (
    NetworkScenario,
    _LinkArrays,
    breakeven_power,
    direct_snr,
    power_for_relayed_snr,
    rate_increase,
    relayed_snr,
    relayed_snr_limit,
    snr_marginal_rate,
)
from .numutil import bisect_transition

# points of each refining grid of the pair line search
REFINE_POINTS = 65
# values of k per block of the three-user grid sum (a block is GRID_BLOCK x N)
GRID_BLOCK = 64


@dataclass(frozen=True)
class OracleAllocation:
    """A centrally computed power split and the welfare it yields."""

    powers: np.ndarray
    total_rate_increase_bps: float
    per_user_rate_increase_bps: np.ndarray
    marginal_utility: np.ndarray  # d(rate)/d(SNR) for participants, 0 otherwise


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


def _finish(scenario: NetworkScenario, powers: np.ndarray, links: _LinkArrays) -> OracleAllocation:
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
    )


def _grid(lo: np.ndarray, hi: np.ndarray, n: int) -> np.ndarray:
    """n points from lo to hi per row, spaced as np.linspace spaces them.

    np.linspace over arrays of ends changes its arithmetic for every row when
    one row has a zero step, which would make a row's grid depend on the
    others; this spacing is computed row by row.
    """
    t = np.arange(n) * ((hi - lo) / (n - 1))[:, None] + lo[:, None]
    t[:, -1] = hi
    return t


def _line_search_pair(
    scenario: NetworkScenario, i: int, j: int, pool: np.ndarray, grid_n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Best split of each power pool between users i and j: (powers_i, welfare gains).

    A grid_n-point grid over each pool, then REFINE_POINTS-point grids over
    the two cells around the best point, until they span less than
    1e-12 * max(1, hi) W.  The best point seen is returned.  Each pool is
    refined on its own, so its result does not depend on the other pools.
    """
    sys = scenario.system
    ui, uj = scenario.users[i], scenario.users[j]
    pool = np.asarray(pool, dtype=float)
    lo, hi = np.zeros_like(pool), pool.copy()
    x, v = np.zeros_like(pool), np.full_like(pool, -np.inf)
    rows, n = np.arange(pool.size), grid_n
    while rows.size:
        t = _grid(lo[rows], hi[rows], n)
        rest = np.maximum(pool[rows, None] - t, 0.0)
        w = rate_increase(ui, t, sys) + rate_increase(uj, rest, sys)
        best = (np.arange(rows.size), w.argmax(axis=1))
        tk, wk = t[best], w[best]
        better = wk > v[rows]
        x[rows[better]], v[rows[better]] = tk[better], wk[better]
        cell = (hi[rows] - lo[rows]) / (n - 1)
        lo[rows] = np.maximum(lo[rows], tk - cell)
        hi[rows] = np.minimum(hi[rows], tk + cell)
        rows = rows[hi[rows] - lo[rows] > 1e-12 * np.maximum(1.0, hi[rows])]
        n = REFINE_POINTS
    return x, v


def _transfer_sweeps(
    scenario: NetworkScenario,
    budget: float,
    starts: np.ndarray,
    links: _LinkArrays,
    grid_n: int = 65,
    max_sweeps: int = 60,
) -> np.ndarray:
    """Refine every row of a stack of splits by repeated optimal two-user transfers.

    A row leaves the sweeps once a sweep finds no transfer that raises its
    welfare by more than the tolerance; since the sweep is a function of the
    row alone, every later sweep would leave it unchanged too.
    """
    sys = scenario.system
    n = scenario.n_users
    x = np.clip(np.array(starts, dtype=float), 0.0, None)
    total = x.sum(axis=1)
    over = total > budget
    x[over] *= (budget / total[over])[:, None]
    slack = np.maximum(budget - x.sum(axis=1), 0.0)
    # hand each row's whole slack to whichever user gains most from it
    gains = rate_increase(links, x + slack[:, None], sys) - rate_increase(links, x, sys)
    rows = np.flatnonzero(slack > 0.0)
    x[rows, gains[rows].argmax(axis=1)] += slack[rows]
    if n == 1:
        return x
    tol = 1e-12 * max(sys.bandwidth_hz, 1.0)
    live = np.ones(len(x), dtype=bool)
    for _ in range(max_sweeps):
        moved = np.zeros_like(live)
        for i, j in combinations(range(n), 2):
            rows = np.flatnonzero(live & (x[:, i] + x[:, j] > 0.0))
            pool = x[rows, i] + x[rows, j]
            before = rate_increase(scenario.users[i], x[rows, i], sys) + rate_increase(
                scenario.users[j], x[rows, j], sys
            )
            xi, after = _line_search_pair(scenario, i, j, pool, grid_n)
            up = after > before + tol
            rows, xi, pool = rows[up], xi[up], pool[up]
            x[rows, i], x[rows, j] = xi, pool - xi
            moved[rows] = True
        live = moved
        if not live.any():
            break
    return x


def _grid_best_two(scenario: NetworkScenario, budget: float, grid_n: int) -> np.ndarray:
    xi, _ = _line_search_pair(scenario, 0, 1, np.array([budget]), grid_n)
    return np.array([xi[0], budget - xi[0]])


def _grid_best_three(
    scenario: NetworkScenario, budget: float, grid_n: int, links: _LinkArrays
) -> np.ndarray:
    """Best split of the budget among three users on a uniform grid.

    On the grid t, users 0 and 1 take t[k] and t[m] and user 2 the rest,
    which is the grid point t[N-1-k-m].  Each user's rate increase is
    evaluated once on t; the sums over k + m <= N-1 are formed GRID_BLOCK
    values of k at a time, never as the whole N x N triangle.  Ties go to
    the first k, then the first m.
    """
    t = np.linspace(0.0, budget, grid_n)
    g0, g1, g2 = rate_increase(links, t[:, None], scenario.system).T
    # row k of the window holds g2[N-1-k-m] at column m, and -inf where k + m > N-1
    tail = np.concatenate([g2[::-1], np.full(grid_n - 1, -np.inf)])
    window = np.lib.stride_tricks.sliding_window_view(tail, grid_n)
    best_w, best_k, best_m = -np.inf, 0, 0
    for k0 in range(0, grid_n, GRID_BLOCK):
        m_end = grid_n - k0  # no m at or past it is feasible in this block
        w = (g0[k0 : k0 + GRID_BLOCK, None] + g1[:m_end]) + window[k0 : k0 + GRID_BLOCK, :m_end]
        k, m = np.unravel_index(w.argmax(), w.shape)
        if w[k, m] > best_w:
            best_w, best_k, best_m = w[k, m], k0 + k, m
    rest = budget - t[best_k]
    return np.array([t[best_k], t[best_m], rest - t[best_m]])


def _seed_rows(seeds: Iterable[Sequence[float]], n: int) -> np.ndarray:
    """The seeds as a (seeds, n) array; raises ValueError naming a malformed one."""
    rows = [np.asarray(seed, dtype=float) for seed in seeds]
    for k, row in enumerate(rows):
        if row.shape != (n,):
            raise ValueError(f"seeds[{k}] has shape {row.shape}; it needs one power per user ({n})")
        if not np.all(np.isfinite(row) & (row >= 0.0)):
            raise ValueError(f"seeds[{k}] must hold finite nonnegative powers, got {row.tolist()}")
    return np.reshape(rows, (len(rows), n))


def efficient_allocation(
    scenario: NetworkScenario,
    delta: float = 0.01,
    grid_n: int = 4096,
    seeds: Iterable[Sequence[float]] = (),
) -> OracleAllocation:
    """Power split maximizing the total rate increase on budget P*(1-delta).

    Search is exhaustive-grid for up to three users and multistart
    pairwise-transfer descent beyond; extra starting points can be supplied
    through seeds, one finite nonnegative power per user each.  Every start
    is refined and the first of the best is kept.  Power that buys no rate
    increase is released, so the budget may go partly unused.
    """
    if not 0.0 <= delta < 1.0:
        raise ValueError("delta must lie in [0, 1)")
    if grid_n < 16:
        raise ValueError("grid_n must be at least 16")
    n = scenario.n_users
    seed_rows = _seed_rows(seeds, n)
    budget = scenario.relay_budget_w * (1.0 - delta)
    links = _LinkArrays.of(scenario.users)

    if n == 1:
        starts = np.array([[budget]])
    elif n == 2:
        starts = _grid_best_two(scenario, budget, grid_n)[None, :]
    elif n == 3:
        starts = _grid_best_three(scenario, budget, min(grid_n, 1024), links)[None, :]
    else:
        rng = np.random.default_rng(371)
        starts = np.concatenate(
            [
                np.eye(min(n, 8), n) * budget,  # single-user starts
                np.full((1, n), budget / n),
                rng.dirichlet(np.ones(n), size=20) * budget,
            ]
        )
    refined = _transfer_sweeps(scenario, budget, np.concatenate([starts, seed_rows]), links)
    best = int(np.argmax(_welfare(scenario, refined, links)))
    return _finish(scenario, refined[best], links)


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
    n = scenario.n_users

    active = []
    for i, u in enumerate(scenario.users):
        x0 = breakeven_power(u, sys)
        if x0 is not None and x0 < budget:
            active.append(i)

    def power_needed(i: int, level: float) -> float:
        u = scenario.users[i]
        target = level - 1.0 - direct_snr(u, sys)
        if target <= 0.0:
            return 0.0
        limit = relayed_snr_limit(u, sys)
        if target >= limit:
            return float("inf")
        return power_for_relayed_snr(u, target, sys)

    def total_power(level: float, members: Sequence[int]) -> float:
        return sum(power_needed(i, level) for i in members)

    level = 1.0
    while active:
        lo = 1.0  # zero demand everywhere
        hi = min(
            1.0 + direct_snr(scenario.users[i], sys) + relayed_snr_limit(scenario.users[i], sys)
            for i in active
        ) * (1.0 - 1e-12)
        if total_power(hi, active) <= budget:
            level = hi
        else:
            _, level = bisect_transition(
                lambda k: total_power(k, active) <= budget, hi, lo, rtol=1e-13
            )
        drops = [
            i
            for i in active
            if level <= (1.0 + direct_snr(scenario.users[i], sys)) ** 2
        ]
        if not drops:
            break
        active = [i for i in active if i not in drops]

    powers = np.zeros(n)
    for i in active:
        powers[i] = power_needed(i, level)
    return _finish(scenario, powers, _LinkArrays.of(scenario.users))


def vcg_auction(scenario: NetworkScenario, delta: float = 0.01, grid_n: int = 4096) -> VcgResult:
    """Efficient allocation with pivot payments.

    Each user pays the welfare the others lose from its presence: the best
    total the others could reach alone, minus what they actually get.  One
    welfare maximization runs for the full population and one per user.
    """
    base = efficient_allocation(scenario, delta, grid_n)
    n = scenario.n_users
    payments = np.zeros(n)
    for i in range(n):
        others_gain = float(base.total_rate_increase_bps - base.per_user_rate_increase_bps[i])
        if n == 1:
            payments[i] = 0.0
            continue
        reduced = scenario.without_user(i)
        seed = np.delete(base.powers, i)
        alone = efficient_allocation(reduced, delta, grid_n, seeds=(seed,))
        payments[i] = max(alone.total_rate_increase_bps - others_gain, 0.0)
    return VcgResult(allocation=base, payments=payments)
