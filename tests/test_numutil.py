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


def _cube(sign):
    """A strictly monotone f: non-increasing for sign -1, non-decreasing for +1."""
    return lambda x: sign * np.asarray(x, dtype=float) ** 3


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
    assume(lo < threshold < hi)
    # f drops below the level above the threshold, or (flipped) below it
    sign = 1.0 if flip else -1.0
    f, level = _cube(sign), sign * threshold**3
    x_over, x_under = (hi, lo) if flip else (lo, hi)
    calls = []

    def counted(xs):
        calls.append(len(xs))
        return f(xs)

    want, steps = reference_bisect(lambda x: f(x) < level, x_over, x_under, rtol, max_iter)
    (got,) = bisect_transition(counted, [(level, x_over, x_under, rtol)], max_iter=max_iter)
    assert got[:2] == want
    assert got[2:] == (f(got[0]), f(got[1]))
    assert len(calls) == max(1, math.ceil(steps / DEPTH))
    # the first call asks about both ends and the midpoints, later ones the midpoints
    assert calls == [2**DEPTH + 1] + [2**DEPTH - 1] * (len(calls) - 1)


@given(
    starts=st.lists(
        st.tuples(st.floats(-1e3, 1e3), st.floats(1e-9, 1e3), st.floats(0.0, 1.0)), min_size=2, max_size=2
    ),
    rtols=st.lists(st.floats(1e-13, 1e-3), min_size=2, max_size=2),
    max_iter=st.integers(0, 60),
)
def test_bisect_transition_levels_search_as_if_alone(starts, rtols, max_iter):
    # f non-increasing, as the aggregate share; the first level is the higher one
    f = _cube(-1.0)
    cross = sorted(lo + frac * span for lo, span, frac in starts)
    searches = []
    for (lo, span, _), t, rtol in zip(starts, cross, rtols):
        assume(lo < t < lo + span)
        searches.append((-(t**3), lo, lo + span, rtol))
    calls = []

    def counted(xs):
        calls.append(len(xs))
        return f(xs)

    alone = [bisect_transition(f, [search], max_iter=max_iter)[0] for search in searches]
    got = bisect_transition(counted, searches, max_iter=max_iter)
    assert got[0] == alone[0]
    if got[1] is None:
        # stopped: the first search's final bracket also brackets the second level
        assert alone[0][2] >= searches[1][0] > alone[0][3]
    else:
        assert got[1] == alone[1]
    for r in filter(None, got):
        assert r[2:] == (f(r[0]), f(r[1]))
    assert calls[0] == 2 * (2**DEPTH + 1)


def test_bisect_transition_stops_a_level_crossed_inside_an_earlier_bracket():
    # f jumps across both levels at 1: once the coarse first search ends,
    # its bracket holds the second crossing as well
    def f(xs):
        return np.where(xs < 1.0, 2.0, 0.0)

    first, second = bisect_transition(f, [(1.5, 0.0, 3.0, 1e-3), (0.5, 0.0, 3.0, 1e-12)])
    assert first[0] < 1.0 <= first[1] and first[2:] == (2.0, 0.0) and second is None
    assert bisect_transition(f, [(0.5, 0.0, 3.0, 1e-12)])[0][1] - 1.0 <= 3e-12


def test_bisect_transition_rejects_true_start():
    # f(x_over) < level: the start on the over side already lies past the drop
    with pytest.raises(ValueError, match="x_over"):
        bisect_transition(lambda xs: -xs, [(0.0, 1.0, 2.0, 1e-9)])
