"""Batched bisection and bracketed Newton helpers.

All routines are deterministic and hold no state, so they are safe to call
from any number of workers.
"""

from __future__ import annotations

from typing import Callable

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


def bisect_transition(
    pred: Callable[[np.ndarray], np.ndarray],
    x_false: float,
    x_true: float,
    rtol: float = 1e-9,
    max_iter: int = 200,
) -> tuple[float, float]:
    """Shrink the gap between a point where pred is False and one where it is True.

    pred maps an array of points to booleans.  Each call asks it about
    x_false and the 2**DEPTH - 1 dyadic midpoints 0.5 * (a + b) of the
    bracket, then takes up to DEPTH steps on the answers: the same points
    and decisions, to the bit, as asking about one midpoint per step.  Works
    for either ordering of the two endpoints.  Returns the tightened
    (x_false, x_true) pair once |x_true - x_false| <= rtol * scale or after
    max_iter steps; raises ValueError if pred(x_false) holds.
    """
    n = 2**DEPTH
    steps = 0
    while True:
        pts = [x_false] * n + [x_true]
        for k in range(1, DEPTH + 1):
            h = n >> k
            for m in range(h, n, 2 * h):
                pts[m] = 0.5 * (pts[m - h] + pts[m + h])
        hit = np.asarray(pred(np.array(pts[:n], dtype=float))).tolist()
        if hit[0]:
            raise ValueError("pred(x_false) must be False")
        f, t = 0, n
        while True:
            a, b = pts[f], pts[t]
            if steps >= max_iter or abs(b - a) <= rtol * max(abs(a), abs(b)):
                return a, b
            if t - f == 1:  # no answered midpoint left inside the bracket
                break
            m = (f + t) // 2
            f, t = (f, m) if hit[m] else (m, t)
            steps += 1
        x_false, x_true = a, b
