"""The package's secular solver, a monotone root finder with no bracket or tolerance, for the SNR rule's pieces of
the aggregate share and the fair oracle's level (the power rule's pieces are solved in auction, beside their form).
"""

from __future__ import annotations

import math

import numpy as np


def falling_secular(shift, b, b1c, budget: float, x: float, floor: float = -math.inf, ulps: float = 0.0):
    """The first x, falling, at which the powers p_i fit the budget, those p_i there, and the calls (at most 64).

    p_i = b1c_i t_i / r_i at t_i = x - shift_i in (0, b_i), r_i = b_i - t_i the distance to its pole; 0 below, inf
    above.  Each step models the excess sum_i p_i - budget, convex and rising in x, in the step d down: the two
    nearest poles exact, p - a d / (r + d) with a = b1c b / r, and the rest as one such term at their farthest pole,
    fitted to their value and slope, which is below them (Bunch, Nielsen & Sorensen, 1978; R.-C. Li, 1994).  So each
    step falls to the model's root, at or above the excess's, by an ulp at least (one where a p_i is inf); with at
    most three users on the curve the model is the excess and one step reaches the root: with two a quadratic's
    root, else the limit of steps that keep the nearest pole exact and the others as their tangent, below them.
    It stops early, at an x it has not asked about (so the powers are not x's), once x <= floor or, if ulps > 0,
    after a quadratic step of two users or a step of at most ulps floats.
    """
    w = b1c * b
    for calls in range(1, 65):
        t = x - shift
        finite = t < b
        r = np.where((t > 0.0) & finite, b - t, math.inf)  # inf off the curve, where the slope w / r^2 is 0
        powers = np.where(finite, b1c * t / r, math.inf)  # -0.0 below the curve
        excess = np.add.reduce(powers).item() - budget
        if not excess > 0.0:
            break
        step, exact = 0.0, False
        if excess < math.inf:
            slope, k = w / (r * r), r.argsort()[:2]  # the two nearest poles; one with one user
            (r1, r2), (_, w2), (p1, p2), (c1, c2) = ((v[k].tolist() + [pad])[:2] for v, pad in
                                                     ((r, math.inf), (w, 0.0), (powers, 0.0), (b1c, 0.0)))
            powers[k] = slope[k] = 0.0
            f, rest = np.add.reduce(powers).item() - budget, np.add.reduce(slope).item()  # the rest's excess and slope
            q1, q2, e = 1.0 / r1, 1.0 / r2, p1 + p2 + f
            if rest:  # the rest as one term with their farthest pole; from 0 up onto the model's root by steps that
                s2, q3 = w2 * q2 * q2, 1.0 / np.maximum.reduce(r, where=r < math.inf, initial=r2).item()
                for _ in range(8):  # keep the nearest pole exact and take the others as their tangent at the step
                    u2, u3 = 1.0 + q2 * step, 1.0 + q3 * step
                    lin = s2 / (u2 * u2) + rest / (u3 * u3)
                    cut = (s2 / u2 + rest / u3 - lin) * step  # their term at the step less their tangent's at 0
                    bq, ed = p2 + f - c1 - cut - lin * r1, e - cut  # lin d^2 - bq d - ed r1 = 0, a1 - p1 = b1c1
                    root = math.sqrt(max(bq * bq + 4.0 * lin * ed * r1, 0.0))
                    nxt = (bq + root) / (2.0 * lin) if bq > 0.0 else 2.0 * ed * r1 / (root - bq)
                    if not nxt > step:
                        break
                    step = nxt
            else:  # the model is the excess: q1 q2 (a1 + a2 - e) d^2 + (q1 (a1 - e) + q2 (a2 - e)) d - e = 0
                qa, qb = q1 * q2 * (c1 + c2 - f), q1 * (c1 - p2 - f) + q2 * (c2 - p1 - f)
                root = math.sqrt(qb * qb + 4.0 * qa * e)
                step, exact = 2.0 * e / (qb + root) if qb >= 0.0 else (root - qb) / (2.0 * qa), True
        x, last = min(x - step, math.nextafter(x, -math.inf)), x
        if x <= floor or ulps and (exact or 0.0 < step <= ulps * math.ulp(last)):
            break
    return x, powers, calls
