"""The package's scalar rising Newton iteration.

The price search (dynamics) solves S = level on one smooth piece of the
aggregate share, where the excess is convex and falls: Newton from a point
where it is >= 0 rises monotonically onto the root, with no bracket or tolerance.
"""

from __future__ import annotations

from typing import Callable


def rising_newton(f: Callable, z: float) -> tuple[float, int]:
    """Newton's iterate on f from z, rising, and the calls of f; f(z) returns (f(z), f'(z)) as floats.

    Where f is convex and falls, and f(z) >= 0, each step -f / f' is positive
    and no iterate passes the root.  The iteration stops at the first step that
    is not positive or no longer moves the iterate, which only rounding brings
    about, and returns the iterate it stopped at (at most 64 steps).  A step
    may be longer than the last: near a pole, as of the SNR rule's demands at
    their SNR limit, the steps first grow, so that test would stop far from
    the root.
    """
    for calls in range(1, 65):
        value, slope = f(z)
        step = -value / slope
        if not (step > 0.0 and z + step != z):
            break
        z += step
    return z, calls
