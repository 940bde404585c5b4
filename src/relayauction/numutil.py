"""Bracketed Newton roots, and a batched bisection on one level.

The bisection asks its function about many points per call, each once: a tree
of midpoints of the open bracket, and the midpoints that a guess of the
transition (a known jump of the function, or an inverse interpolation of its
values) says the bisection will meet after the tree.  Its results are those of
one midpoint per step, to the bit; only the number of calls depends on the
guesses.  All routines are deterministic and hold no state.
"""

from __future__ import annotations

import bisect
import math
from typing import Callable, Optional, Sequence

import numpy as np

DEPTH = 5  # bisection steps per predicate call


def newton_root(fdf: Callable, lo, hi, rtol: float = 1e-12, max_iter: int = 100):
    """Root of f on [lo, hi] by Newton steps from lo kept inside a shrinking bracket.

    Elementwise: lo and hi are arrays (or broadcast to one) and fdf(x)
    returns the arrays (f(x), f'(x)); f(lo) and f(hi) must differ in sign.
    fdf gets both ends in one call, stacked on a leading axis: it must broadcast.
    Every iterate narrows the bracket to the sign change; a Newton step that
    would leave it is replaced by the bracket's midpoint, so the search
    converges like bisection at worst and quadratically near a simple root.
    An element stops at the first step within rtol of its point and keeps that
    step; the search ends once every element has stopped.  No element's root
    depends on the others, so a batch of problems gives each the root it gets
    alone, to the bit.
    """
    lo, hi = (np.array(v, dtype=float) for v in np.broadcast_arrays(lo, hi))
    (flo, fhi), (dflo, dfhi) = fdf(np.stack([lo, hi]))
    if np.any((flo != 0.0) & (fhi != 0.0) & ((flo > 0.0) == (fhi > 0.0))):
        raise ValueError(f"root not bracketed on [{lo!r}, {hi!r}]")
    at_hi = fhi == 0.0
    x, fx, dfx = np.where(at_hi, hi, lo), np.where(at_hi, fhi, flo), np.where(at_hi, dfhi, dflo)
    rising = flo < 0.0  # f increases through the root
    live = np.ones_like(rising)
    for _ in range(max_iter):
        above = (fx > 0.0) == rising  # the root lies below x
        lo, hi = np.where(above, lo, x), np.where(above, x, hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            nxt = x - fx / dfx
        nxt = np.where((nxt >= lo) & (nxt <= hi), nxt, 0.5 * (lo + hi))
        moving = np.abs(nxt - x) > rtol * np.abs(nxt)
        x = np.where(live, nxt, x)
        live &= moving
        if not live.any():
            break
        fx, dfx = fdf(x)
    return x


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


def _path(a, b, r, n) -> list:
    """The midpoints one-midpoint bisection visits after DEPTH steps, within n steps, if f < level
    begins at r; up to a midpoint that repeats an end."""
    path = []
    for k in range(n):
        m = 0.5 * (a + b)
        if m == a or m == b:
            break
        if k >= DEPTH:
            path.append(m)
        if m >= r:
            b = m
        else:
            a = m
    return path


def bisect_transition(f: Callable, level, x_over, x_under, rtol: float, jumps: Sequence[float] = ()) -> tuple:
    """Bracket where f drops below level: (x_over, x_under, f(x_over), f(x_under)), tightened.

    f(x_over) >= level > f(x_under) on an ascending bracket, 0 < x_over < x_under.
    The search descends on f < level to the bit as with one midpoint
    0.5 * (a + b) per step, until |b - a| <= rtol * max(|a|, |b|): a test that
    ends every search, as x_over >= 2^-1022 and rtol >= 2^-52 (else ValueError).
    Each call asks f about the 2**DEPTH - 1 dyadic midpoints of the bracket
    (the first call about its ends too), so that every call takes DEPTH steps
    at least, and about the midpoints after that tree which the descent meets
    if f drops at a guess r (_guess).  The descent takes those while its
    decisions are the ones r predicts, so the guess moves no result.
    jumps, sorted, are points where f may jump, each the first point past its
    jump.  Raises ValueError if f(x_over) < level.  If f(x_under) >= level, f does
    not drop, and the first call returns (x_under, x_under, f(x_under), f(x_under)).
    """
    if not (x_over >= 2.0**-1022 and rtol >= 2.0**-52):
        raise ValueError(f"x_over must be at least 2^-1022 and rtol at least 2^-52, got {x_over!r} and {rtol!r}")
    n, a, b, steps, fa, fb = 2**DEPTH, x_over, x_under, 0, None, None
    a_out = b_out = (None, None)  # the (x, f(x)) known nearest beyond a and b
    while True:
        pts = [a] * n + [b]
        for m, lo, hi in _TREE:
            pts[m] = 0.5 * (pts[lo] + pts[hi])
        asked = pts if fa is None else pts[1:n]
        r = _guess(level, a, b, fa, fb, (a_out, b_out), jumps)
        path = []
        if r is not None:  # as many steps as narrow the bracket to rtol |r|, and one for rounding
            ratio = abs(b - a) / (rtol * r)
            path = _path(a, b, r, math.ceil(math.log2(min(max(ratio, 1.0), 1e300))) + 1)
        j = len(asked)
        vals = np.asarray(f(np.fromiter(asked + path, float, j + len(path)))).tolist()
        v = vals[: n + 1] if fa is None else [fa, *vals[: n - 1], fb]
        if v[0] < level:
            raise ValueError(f"f(x_over) = {v[0]!r} must not be below the level {level!r}")
        if v[n] >= level:  # only on the first call: later ones know f(b) < level
            return b, b, v[n], v[n]
        # each midpoint is within an ulp of max(|a|, |b|) of the exact one, so the stop test
        # cannot end the search at a step k from (a, b) where |b - a| / 2**k is above tol
        tol = (rtol * (1.0 + 1e-15) + 1e-15) * max(abs(a), abs(b)) + 1e-300
        safe = steps + int(math.log2(min(max(abs(b - a) / tol, 1.0), 1e300)))
        lo, hi = 0, n
        while hi - lo > 1 and (steps < safe or abs(pts[hi] - pts[lo]) > rtol * max(abs(pts[lo]), abs(pts[hi]))):
            m = (lo + hi) // 2
            lo, hi = (lo, m) if v[m] < level else (m, hi)
            steps += 1
        a, b, fa, fb = pts[lo], pts[hi], v[lo], v[hi]
        a_out = (pts[lo - 1], v[lo - 1]) if lo > 0 else a_out
        b_out = (pts[hi + 1], v[hi + 1]) if hi < n else b_out
        if path and path[0] == 0.5 * (a + b):  # the descent reached the cell the path starts in
            for x, fx in zip(path, vals[j:]):
                if steps >= safe and not abs(b - a) > rtol * max(abs(a), abs(b)):
                    break
                steps += 1
                if fx < level:
                    b_out, b, fb = (b, fb), x, fx
                else:
                    a_out, a, fa = (a, fa), x, fx
                if (fx < level) != (x >= r):
                    break  # where the guess said otherwise, its path turns away from the descent
        if steps >= safe and not abs(b - a) > rtol * max(abs(a), abs(b)):
            return a, b, fa, fb
