"""Small bracketing, bisection, and Newton helpers.

All routines are deterministic and hold no state, so they are safe to call
from any number of workers.
"""

from __future__ import annotations

from typing import Callable

import numpy as np


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
    pred: Callable[[float], bool],
    x_false: float,
    x_true: float,
    rtol: float = 1e-9,
    max_iter: int = 200,
) -> tuple[float, float]:
    """Shrink the gap between a point where pred is False and one where it is True.

    Works for either ordering of the two endpoints.  Returns the tightened
    (x_false, x_true) pair with |x_true - x_false| <= rtol * scale.
    """
    if pred(x_false):
        raise ValueError("pred(x_false) must be False")
    for _ in range(max_iter):
        if abs(x_true - x_false) <= rtol * max(abs(x_false), abs(x_true)):
            break
        mid = 0.5 * (x_false + x_true)
        if pred(mid):
            x_true = mid
        else:
            x_false = mid
    return x_false, x_true


def expand_until(
    pred: Callable[[float], bool],
    x0: float,
    factor: float = 2.0,
    max_expand: int = 200,
) -> float:
    """Smallest x0 * factor**k (k >= 0) satisfying pred; raises if none found."""
    x = x0
    for _ in range(max_expand):
        if pred(x):
            return x
        x *= factor
    raise RuntimeError("expansion failed to satisfy predicate")
