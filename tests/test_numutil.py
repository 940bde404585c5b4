"""The batched bisection, and the bracketed Newton root finding of the tests' references (conftest)."""

import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from relayauction.numutil import DEPTH, bisect_transition

from conftest import newton_root, reference_bisect


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


def test_newton_root_asks_both_ends_in_one_call():
    asked = []

    def fdf(x):
        asked.append(x.shape)
        return x * x - 2.0, 2.0 * x

    roots = newton_root(fdf, np.array([0.0, 1.0]), np.array([2.0, 3.0]))
    np.testing.assert_allclose(roots, math.sqrt(2.0), rtol=1e-12)
    assert asked[0] == (2, 2) and asked[1:] == [(2,)] * (len(asked) - 1)


def test_newton_root_of_a_row_is_the_same_beside_rows_that_need_more_steps():
    def cube_roots(c, rtol=1e-4):
        """Cube roots of c and the calls they took."""
        calls = []

        def fdf(x):
            calls.append(x.shape)
            return x**3 - c, 3.0 * x * x

        return newton_root(fdf, np.zeros(c.size), np.maximum(c, 1.0), rtol=rtol).tolist(), len(calls)

    c = np.array([2.0, 1e6, 3.0, 1e-9])
    together, calls = cube_roots(c)
    alone = [cube_roots(c[k : k + 1]) for k in range(c.size)]
    assert together == [root for (root,), _ in alone]
    # the rows stop at different steps, and a row that took more steps than it needs
    # at this loose rtol would end elsewhere
    assert len({n for _, n in alone}) > 1 and max(n for _, n in alone) == calls
    assert all(cube_roots(c[k : k + 1], 1e-15)[0] != root for k, (root, _) in enumerate(alone))


def test_newton_root_rejects_unbracketed():
    with pytest.raises(ValueError):
        newton_root(lambda x: (x * x + 1.0, 2.0 * x), np.array([-1.0]), 1.0)


def _cube(x):
    """A strictly decreasing f."""
    return -np.asarray(x, dtype=float) ** 3


def _tree(a, b):
    """a, the dyadic midpoints of [a, b] to depth DEPTH in order, b."""
    pts = [a] * 2**DEPTH + [b]
    for depth in range(1, DEPTH + 1):
        h = 2**DEPTH >> depth
        for m in range(h, 2**DEPTH, 2 * h):
            pts[m] = 0.5 * (pts[m - h] + pts[m + h])
    return pts


def _open(a, b, rtol):
    """Whether one-midpoint bisection on the ascending bracket (a, b) takes another step."""
    return b - a > rtol * b


def _assert_asks_as_one_midpoint_per_step(asked, pred, x_over, x_under, rtol):
    """Each call asks the tree of the bracket that one-midpoint bisection has reached,
    then a bisection path down from one of the tree's cells, up to the first midpoint after
    which the path's own bracket meets the stop test, and moves the search on by DEPTH
    steps and by every leading price of the path that is its next midpoint."""

    def bracket(s):
        return reference_bisect(pred, x_over, x_under, rtol, s)[0]

    _, steps = reference_bisect(pred, x_over, x_under, rtol)
    s = 0
    for j, xs in enumerate(asked):
        pts = _tree(*bracket(s))
        tree = pts if j == 0 else pts[1:-1]  # the first call asks about both ends too
        assert xs[: len(tree)] == tree
        path = xs[len(tree) :]
        cells = list(zip(pts, pts[1:]))
        for x in path:
            cell = next((c for c in cells if x == 0.5 * (c[0] + c[1])), None)
            assert cell is not None, f"{x!r} is no midpoint of a half of the last cell"
            assert _open(*cell, rtol), f"{x!r} halves a bracket that meets the stop test"
            cells = [(cell[0], x), (x, cell[1])]
        # the path's bracket after its last price is one of that price's halves
        assert not path or not all(_open(*c, rtol) for c in cells), "the path ends before its stop test"
        s = min(s + DEPTH, steps)
        for x in path:
            if s == steps or x != 0.5 * sum(bracket(s)):
                break
            s += 1
    assert s == steps


@given(
    lo=st.floats(1e-3, 1e3),
    span=st.floats(1e-9, 1e3),
    frac=st.floats(0.0, 1.0),
    rtol=st.floats(1e-13, 1e-3),
)
def test_bisect_transition_matches_one_midpoint_per_step(lo, span, frac, rtol):
    hi = lo + span
    threshold = lo + frac * span
    assume(lo < threshold < hi)
    # f drops below the level above the threshold
    f, level = _cube, -(threshold**3)
    x_over, x_under = lo, hi
    asked = []

    def counted(xs):
        asked.append(xs.tolist())
        return f(xs)

    def pred(x):
        return f(x) < level

    want, steps = reference_bisect(pred, x_over, x_under, rtol)
    got = bisect_transition(counted, level, x_over, x_under, rtol)
    assert got[:2] == want
    assert got[2:] == (f(got[0]), f(got[1]))
    # every call takes the DEPTH steps of its tree at least, more where it asked ahead
    assert len(asked) <= max(1, math.ceil(steps / DEPTH))
    # the first call asks about both ends and the midpoints, later ones the midpoints,
    # each call then about the path its guess predicts
    _assert_asks_as_one_midpoint_per_step(asked, pred, x_over, x_under, rtol)


def test_bisect_transition_brackets_a_jump_to_rtol():
    # f jumps across the level at 1: the bracket closes on the jump to rtol
    def f(xs):
        return np.where(xs < 1.0, 2.0, 0.0)

    got = bisect_transition(f, 0.5, 0.5, 3.0, 1e-12)
    assert got[0] < 1.0 <= got[1] and got[2:] == (2.0, 0.0)
    assert got[1] - 1.0 <= 3e-12


def test_bisect_transition_rejects_true_start():
    # f(x_over) < level: the start on the over side already lies past the drop
    with pytest.raises(ValueError, match="x_over"):
        bisect_transition(lambda xs: -xs, 0.0, 1.0, 2.0, 1e-9)


@pytest.mark.parametrize(
    "x_over, rtol",
    [(0.0, 1e-9), (-1.0, 1e-9), (math.nan, 1e-9), (1e-310, 1e-9), (1.0, 1e-17), (1.0, 0.0), (2.0, 1e-9), (3.0, 1e-9)],
)
def test_bisect_transition_rejects_a_bracket_its_stop_test_cannot_end(x_over, rtol):
    # the relative stop test ends every search only on an ascending bracket from a positive
    # normal x_over (x_under is 2.0 here) and an rtol of at least one ulp of 1; the search
    # asks f nothing before it checks them
    calls = []
    with pytest.raises(ValueError, match="2\\^-1022"):
        bisect_transition(_counted(lambda xs: 2.0 - xs, calls), 0.5, x_over, 2.0, rtol)
    assert calls == []


@pytest.mark.parametrize("level", [0.5, 1.0])
def test_bisect_transition_rejects_a_bracket_where_f_does_not_drop(level):
    # f(x_under) = 1 >= level: f does not drop in the bracket, and the first call says so
    calls = []
    with pytest.raises(ValueError, match="x_under"):
        bisect_transition(_counted(lambda xs: 2.0 - xs, calls), level, 0.5, 1.0, 1e-13)
    assert calls == [2**DEPTH + 1]


def _counted(f, calls):
    def counted(xs):
        calls.append(len(xs))
        return f(xs)

    return counted


def _step(t):
    """1 below t, 0 from t on: t is the first point past the jump."""
    return lambda x: np.where(np.asarray(x) < t, 1.0, 0.0)


@given(
    lo=st.floats(1e-3, 1e3),
    span=st.floats(1e-9, 1e3),
    frac=st.floats(0.0, 1.0),
    shape=st.sampled_from(("cube", "step", "wave")),
    others=st.lists(st.floats(-2e3, 2e3), max_size=4),
    exact=st.booleans(),
    rtol=st.floats(1e-13, 1e-3),
)
def test_bisect_transition_asks_ahead_without_moving_a_result(lo, span, frac, shape, others, exact, rtol):
    # jumps right (the crossing), wrong, outside the bracket or none, on monotone
    # and non-monotone f: the same brackets as one midpoint per step, in no more calls
    hi = lo + span
    t = lo + frac * span
    assume(lo < t < hi)
    x_over, x_under = lo, hi
    if shape == "cube":
        f, level = _cube, -(t**3)
    elif shape == "step":
        f, level = _step(t), 0.5
    else:  # crosses zero about six times on the bracket
        f, level = (lambda x: np.sin((np.asarray(x) - t) * (20.0 / span))), 0.0
        assume(f(x_over) >= level > f(x_under))
    jumps = tuple(sorted(others + [t] * exact))
    asked = []

    def pred(x):
        return f(x) < level

    def recorded(xs):
        asked.append(xs.tolist())
        return f(xs)

    want, steps = reference_bisect(pred, x_over, x_under, rtol)
    got = bisect_transition(recorded, level, x_over, x_under, rtol, jumps)
    assert got[:2] == want
    assert got[2:] == (f(got[0]), f(got[1]))
    assert len(asked) <= max(1, math.ceil(steps / DEPTH))
    _assert_asks_as_one_midpoint_per_step(asked, pred, x_over, x_under, rtol)


@given(
    lo=st.floats(1e-3, 1e3),
    span=st.floats(1e-9, 1e3),
    frac=st.floats(0.0, 1.0),
    outside=st.lists(st.floats(-2e3, 2e3), max_size=3),
    later=st.lists(st.floats(-12.0, 0.0), max_size=3),
    rtol=st.floats(1e-13, 1e-3),
)
def test_bisect_transition_finishes_a_step_at_its_given_jump_in_two_calls(lo, span, frac, outside, later, rtol):
    hi = lo + span
    t = lo + frac * span
    assume(lo < t < hi)
    f = _step(t)
    x_over, x_under = lo, hi
    # jumps past t on the way to x_under, some close to it, come after t
    past = [t + 10.0**e * (x_under - t) for e in later]
    jumps = tuple(sorted([t, *past, *(x for x in outside if not lo <= x <= hi)]))
    calls = []
    want, _ = reference_bisect(lambda x: f(x) < 0.5, x_over, x_under, rtol)
    got = bisect_transition(_counted(f, calls), 0.5, x_over, x_under, rtol, jumps)
    assert got[:2] == want
    assert len(calls) <= 2


@pytest.mark.parametrize(
    "over, under", [(math.inf, -math.inf), (math.nan, -1.0), (1.0, -math.inf), (math.nan, -math.inf)]
)
def test_bisect_transition_asks_no_path_from_non_finite_values(over, under):
    # no guess from values that are not finite: every call asks the tree alone
    def f(x):
        return np.where(np.asarray(x) < 0.3, over, under)

    calls = []
    want, steps = reference_bisect(lambda x: f(x) < 0.5, 0.25, 1.0, 1e-12)
    got = bisect_transition(_counted(f, calls), 0.5, 0.25, 1.0, 1e-12)
    assert got[:2] == want
    assert calls == [2**DEPTH + 1] + [2**DEPTH - 1] * (math.ceil(steps / DEPTH) - 1)
