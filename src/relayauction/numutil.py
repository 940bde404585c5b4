"""Small bracketing, bisection, and golden-section helpers.

All routines are deterministic and hold no state, so they are safe to call
from any number of workers.
"""

from __future__ import annotations

import math
from typing import Callable

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def bisect_root(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    rtol: float = 1e-12,
    max_iter: int = 200,
) -> float:
    """Root of f on [lo, hi] by bisection.  f(lo) and f(hi) must differ in sign."""
    flo = f(lo)
    fhi = f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        raise ValueError(f"root not bracketed on [{lo!r}, {hi!r}]")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm > 0.0) == (flo > 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
        if abs(hi - lo) <= rtol * max(abs(lo), abs(hi)):
            break
    return 0.5 * (lo + hi)


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


def golden_max(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    rtol: float = 1e-10,
    max_iter: int = 300,
) -> tuple[float, float]:
    """Maximize a unimodal f on [lo, hi]; returns (argmax, max).

    The search stops when the bracket is narrower than rtol * max(1, |a|, |b|)
    for the current ends a, b.  For brackets within [-1, 1] the tolerance is
    therefore absolute (rtol itself), not relative to the argmax.
    """
    if hi < lo:
        lo, hi = hi, lo
    a, b = lo, hi
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(max_iter):
        if (b - a) <= rtol * max(1.0, abs(a), abs(b)):
            break
        if f1 < f2:
            a = x1
            x1, f1 = x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = f(x2)
        else:
            b = x2
            x2, f2 = x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = f(x1)
    xm = 0.5 * (a + b)
    fm = f(xm)
    # never return a point worse than the best probe seen last
    for xc, fc in ((x1, f1), (x2, f2)):
        if fc > fm:
            xm, fm = xc, fc
    return xm, fm


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
