"""Bracketed Newton root finding and the batched bisection."""

import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from relayauction.numutil import DEPTH, bisect_transition, newton_root

from conftest import reference_bisect


def test_newton_root_elementwise():
    c = np.array([2.0, 3.0, 1e-6, 1e6])
    roots = newton_root(lambda x: (x * x - c, 2.0 * x), np.zeros(4), np.maximum(c, 1.0))
    assert roots == pytest.approx(np.sqrt(c), rel=1e-14)


def test_newton_root_stays_in_bracket_where_newton_overshoots():
    # from lo = -10, a plain Newton step on arctan lands far outside [-10, 1]
    root = newton_root(lambda x: (np.arctan(x), 1.0 / (1.0 + x * x)), np.array([-10.0]), 1.0)
    assert abs(root[0]) <= 1e-15


def test_newton_root_at_bracket_ends():
    roots = newton_root(lambda x: (x - np.array([0.0, 1.0]), np.ones(2)), np.zeros(2), np.ones(2))
    assert np.array_equal(roots, [0.0, 1.0])


def test_newton_root_rejects_unbracketed():
    with pytest.raises(ValueError):
        newton_root(lambda x: (x * x + 1.0, 2.0 * x), np.array([-1.0]), 1.0)


@given(
    lo=st.floats(-1e3, 1e3),
    span=st.floats(1e-9, 1e3),
    frac=st.floats(0.0, 1.0),
    flip=st.booleans(),
    rtol=st.floats(1e-13, 1e-3),
    max_iter=st.integers(0, 60),
)
def test_bisect_transition_matches_one_midpoint_per_step(lo, span, frac, flip, rtol, max_iter):
    hi = lo + span
    threshold = lo + frac * span
    assume(lo < threshold <= hi)
    # the True side is above the threshold, or (flipped) at and below it
    if flip:
        x_false, x_true, holds = hi, lo, (lambda x: x <= threshold)
        assume(threshold < hi)
    else:
        x_false, x_true, holds = lo, hi, (lambda x: x >= threshold)
    calls = []

    def pred(xs):
        calls.append(len(xs))
        return holds(xs)

    want, steps = reference_bisect(holds, x_false, x_true, rtol, max_iter)
    assert bisect_transition(pred, x_false, x_true, rtol=rtol, max_iter=max_iter) == want
    assert len(calls) == max(1, math.ceil(steps / DEPTH))


def test_bisect_transition_rejects_true_start():
    with pytest.raises(ValueError, match="x_false"):
        bisect_transition(lambda xs: xs >= 0.0, 1.0, 2.0)
