"""A batched bisection on one level: the package's one bracketed search.

The bisection is one midpoint per step under one relative stop test, and asks
its function about many points per call, each once: a tree of midpoints of the
open bracket, and the midpoints that a guess of the transition (a known jump of
the function, or an inverse interpolation of its values) says the bisection
will meet after the tree, up to the stop test.  Its results are those of one
midpoint per step, to the bit; only the number of calls depends on the
guesses.  All routines are deterministic and hold no state.  Its one caller is the price search
(dynamics); the package's Newton iterations need no bracket, each monotone on a convex or concave piece.
"""

from __future__ import annotations

import bisect
import math
from typing import Callable, Optional, Sequence

import numpy as np

DEPTH = 5  # bisection steps per predicate call

# (m, m - h, m + h) for each dyadic midpoint of pts[0] and pts[2**DEPTH], coarsest first
_TREE = [(m, m - h, m + h) for k in range(1, DEPTH + 1) for h in [2**DEPTH >> k]
         for m in range(h, 2**DEPTH, 2 * h)]


def _interpolated_root(points) -> float:
    """x where the polynomial x(y) through the (x, y) points takes y = 0; nan unless the y are
    finite and distinct."""
    ys = [y for _, y in points]
    if not all(map(math.isfinite, ys)) or len(set(ys)) < len(ys):
        return math.nan
    root = 0.0
    for x, y in points:
        for yj in ys:
            if yj != y:  # the other points: the y are distinct
                x *= yj / (yj - y)
        root += x
    return root


def _guess(level, a, b, fa, fb, beyond, jumps) -> Optional[float]:
    """Where f < level most likely begins in the bracket (a, b], or None.

    The first of the jumps in it; else, once f is known at a and b, the
    inverse interpolation through them and the (x, f(x)) known nearest beyond
    them, cubic with both, else the secant, if strictly inside.
    """
    k = bisect.bisect_right(jumps, a)
    if k < len(jumps) and jumps[k] <= b:
        return jumps[k]
    if fa is None:
        return None
    points = [(a, fa - level), (b, fb - level), *((x, y - level) for x, y in beyond if x is not None)]
    r = _interpolated_root(points)
    if not a < r < b:
        r = _interpolated_root(points[:2])
    return r if a < r < b else None


def _path(a, b, r, rtol) -> list:
    """The midpoints one-midpoint bisection visits after DEPTH steps, up to its stop test, if f <
    level begins at r."""
    path = []
    while b - a > rtol * b:
        m = 0.5 * (a + b)
        path.append(m)
        a, b = (a, m) if m >= r else (m, b)
    return path[DEPTH:]


def bisect_transition(f: Callable, level, x_over, x_under, rtol: float, jumps: Sequence[float] = ()) -> tuple:
    """Bracket where f drops below level: (x_over, x_under, f(x_over), f(x_under)), tightened.

    f(x_over) >= level > f(x_under) on the bracket.  The search is one-midpoint
    bisection on f < level, to the bit: while b - a > rtol * b it asks about
    0.5 * (a + b) and keeps the half where f drops.  That stop test ends every
    search, as 2^-1022 <= x_over < x_under and rtol >= 2^-52 (else ValueError).
    Each call asks f about the 2**DEPTH - 1 dyadic midpoints of the bracket
    (the first call about its ends too), so that every call takes DEPTH steps
    at least, and about the midpoints after that tree which the search meets
    if f drops at a guess r (_guess).  The search takes each of those while it
    is the next midpoint, so the guess moves no result.  jumps, sorted, are
    points where f may jump, each the first point past its jump.  Raises
    ValueError if f(x_over) < level or f(x_under) >= level.
    """
    if not (2.0**-1022 <= x_over < x_under and rtol >= 2.0**-52):
        raise ValueError(f"need 2^-1022 <= x_over < x_under and rtol >= 2^-52, got {x_over!r}, {x_under!r}, {rtol!r}")
    n, a, b, fa, fb = 2**DEPTH, x_over, x_under, None, None
    a_out = b_out = (None, None)  # the (x, f(x)) known nearest beyond a and b
    while True:
        pts = [a] * n + [b]
        for m, lo, hi in _TREE:
            pts[m] = 0.5 * (pts[lo] + pts[hi])
        asked = pts if fa is None else pts[1:n]
        r = _guess(level, a, b, fa, fb, (a_out, b_out), jumps)
        path = [] if r is None else _path(a, b, r, rtol)
        j = len(asked)
        vals = np.asarray(f(np.fromiter(asked + path, float, j + len(path)))).tolist()
        v = vals[: n + 1] if fa is None else [fa, *vals[: n - 1], fb]
        if v[0] < level or v[n] >= level:  # only the first call asks f at the ends
            raise ValueError(f"need f(x_over) = {v[0]!r} >= level {level!r} > f(x_under) = {v[n]!r}")
        lo, hi = 0, n
        while hi - lo > 1 and pts[hi] - pts[lo] > rtol * pts[hi]:
            m = (lo + hi) // 2
            lo, hi = (lo, m) if v[m] < level else (m, hi)
        a, b, fa, fb = pts[lo], pts[hi], v[lo], v[hi]
        a_out = (pts[lo - 1], v[lo - 1]) if lo > 0 else a_out
        b_out = (pts[hi + 1], v[hi + 1]) if hi < n else b_out
        for x, fx in zip(path, vals[j:]):
            if not (b - a > rtol * b and x == 0.5 * (a + b)):
                break  # the search has stopped, or turned away from the guess's path
            if fx < level:
                b_out, b, fb = (b, fb), x, fx
            else:
                a_out, a, fa = (a, fa), x, fx
        if not b - a > rtol * b:
            return a, b, fa, fb
