"""Bracketed Newton roots, and a batched bisection on one or more levels.

All routines are deterministic and hold no state, so they are safe to call
from any number of workers.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

DEPTH = 5  # bisection steps per predicate call


def newton_root(fdf: Callable, lo, hi, rtol: float = 1e-12, max_iter: int = 100):
    """Root of f on [lo, hi] by Newton steps from lo kept inside a shrinking bracket.

    Elementwise: lo and hi are arrays (or broadcast to one) and fdf(x)
    returns the arrays (f(x), f'(x)); f(lo) and f(hi) must differ in sign.
    Every iterate narrows the bracket to the sign change; a Newton step that
    would leave it is replaced by the bracket's midpoint, so the search
    converges like bisection at worst and quadratically near a simple root.
    It stops once every step is within rtol of its point.
    """
    lo, hi = (np.array(v, dtype=float) for v in np.broadcast_arrays(lo, hi))
    (flo, dflo), (fhi, dfhi) = fdf(lo), fdf(hi)
    if np.any((flo != 0.0) & (fhi != 0.0) & ((flo > 0.0) == (fhi > 0.0))):
        raise ValueError(f"root not bracketed on [{lo!r}, {hi!r}]")
    at_hi = fhi == 0.0
    x, fx, dfx = np.where(at_hi, hi, lo), np.where(at_hi, fhi, flo), np.where(at_hi, dfhi, dflo)
    up = flo < 0.0  # f increases through the root
    for _ in range(max_iter):
        above = (fx > 0.0) == up  # the root lies below x
        lo, hi = np.where(above, lo, x), np.where(above, x, hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            nxt = x - fx / dfx
        nxt = np.where((nxt >= lo) & (nxt <= hi), nxt, 0.5 * (lo + hi))
        done = np.abs(nxt - x) <= rtol * np.abs(nxt)
        x = nxt
        if done.all():
            break
        fx, dfx = fdf(x)
    return x


# (m, m - h, m + h) for each dyadic midpoint of pts[0] and pts[2**DEPTH], coarsest first
_TREE = [(m, m - h, m + h) for k in range(1, DEPTH + 1) for h in [2**DEPTH >> k]
         for m in range(h, 2**DEPTH, 2 * h)]


def bisect_transition(f: Callable, searches: Sequence[tuple], max_iter: int = 200) -> list:
    """Bracket where f drops below each of several levels, all in the same calls of f.

    A search is (level, x_over, x_under, rtol), f(x_over) >= level > f(x_under)
    in either order.  Each call asks f about the 2**DEPTH - 1 dyadic midpoints
    0.5 * (a + b) of every open bracket (the first call about its ends too);
    each search takes up to DEPTH steps on f < level, to the bit as with one
    midpoint per step, until |b - a| <= rtol * scale or max_iter steps.  A
    later search whose level an earlier final bracket also brackets (which
    then holds its crossing) gives None, the others (x_over, x_under,
    f(x_over), f(x_under)).  Raises ValueError if f(x_over) < level.
    """
    n, done = 2**DEPTH, [None] * len(searches)
    state, live = [(a, b, 0, None, None) for _, a, b, _ in searches], list(range(len(searches)))
    while live:
        skip = state[live[0]][3] is not None  # after the first call the ends' values are known
        trees, asked = [[state[i][0]] * n + [state[i][1]] for i in live], []
        for pts in trees:
            for m, lo, hi in _TREE:
                pts[m] = 0.5 * (pts[lo] + pts[hi])
            asked += pts[1:n] if skip else pts
        vals, w = np.asarray(f(np.array(asked))).tolist(), n - 1 if skip else n + 1
        for i, pts, k in zip(live, trees, range(0, len(vals), w)):
            (level, _, _, rtol), (_, _, steps, fa, fb), lo, hi = searches[i], state[i], 0, n
            v = [fa, *vals[k : k + w], fb] if skip else vals[k : k + w]
            if v[0] < level:
                raise ValueError(f"f(x_over) = {v[0]!r} must not be below the level {level!r}")
            while True:
                a, b = pts[lo], pts[hi]
                if steps >= max_iter or abs(b - a) <= rtol * max(abs(a), abs(b)):
                    done[i] = (a, b, v[lo], v[hi])
                    break
                if hi - lo == 1:  # no answered midpoint left inside the bracket
                    state[i] = (a, b, steps, v[lo], v[hi])
                    break
                m = (lo + hi) // 2
                lo, hi = (lo, m) if v[m] < level else (m, hi)
                steps += 1
        live = [j for j in live if done[j] is None and not (
            len(searches) > 1 and any(r and r[2] >= searches[j][0] > r[3] for r in done[:j]))]
    return done
