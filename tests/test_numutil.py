"""The secular solver of the price search and the fair oracle, and the bracketed Newton root finding of the tests'
references (conftest)."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from relayauction.numutil import falling_secular

from conftest import newton_root


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


class _Shifts(np.ndarray):
    """Shifts that record each x the solver asks about, the x it subtracts them from."""

    def __rsub__(self, x):
        self.asked.append(x)
        return np.subtract(x, self.view(np.ndarray))


def _secular_case(seed, n, frac, all_on):
    """n users whose powers need the budget at a level root in [1e-2, 1e2], with shifts >= 0 as the fair oracle's g
    and the SNR rule's 1 + g: user 0 on the curve there (0 < root - shift < b), the others too if all_on, else each
    with probability one half and the rest above it; and a start above root whose nearest pole is frac of its
    distance from root away."""
    rng = np.random.default_rng(seed)
    root, b, b1c = 10.0 ** rng.uniform(-2, 2), 10.0 ** rng.uniform(-3, 3, n), 10.0 ** rng.uniform(-3, 3, n)
    on = all_on | (rng.uniform(size=n) < 0.5)
    on[0] = True
    shift = np.where(on, root - rng.uniform(1e-9, 1.0, n) * np.minimum(b, root), root + rng.uniform(0.0, 1.0, n) * b)
    t = root - shift
    budget = float(np.add.reduce(np.where(t > 0.0, b1c * t / (b - t), 0.0)))
    pole = float((shift + b).min())
    shifts = shift.view(_Shifts)
    shifts.asked = []
    return shifts, b, b1c, budget, pole - frac * (pole - root)


def _mp_root(shift, b, b1c, budget, hi):
    """The 50-digit root below hi of sum_i b1c_i t_i / (b_i - t_i) over t_i = x - shift_i > 0, less the budget."""
    with mpmath.workdps(50):
        users = [(mpmath.mpf(s), mpmath.mpf(c), mpmath.mpf(p)) for s, c, p in zip(shift.tolist(), b.tolist(), b1c.tolist())]

        def excess(x):
            return sum(p * (x - s) / (c - x + s) for s, c, p in users if x > s) - mpmath.mpf(budget)

        lo, hi = min(s for s, _, _ in users), mpmath.mpf(hi)
        for _ in range(200):
            mid = (lo + hi) / 2
            lo, hi = (lo, mid) if excess(mid) > 0 else (mid, hi)
        return hi


@given(seed=st.integers(0, 2**32 - 1), frac=st.floats(1e-12, 1.0, exclude_max=True))
def test_secular_step_lands_on_the_root_of_two_users(seed, frac):
    # with both users on the curve down to the root the model is the sum, so its first step lands on
    # the 50-digit root, from starts as near a pole as 1e-12 of the way, to the rounding of that step:
    # 8 ulps of the start (measured: 3.46 on 3,000 draws).  A start whose t rounds to the limit b is
    # first moved down by an ulp.
    shift, b, b1c, budget, x0 = _secular_case(seed, 2, frac, all_on=True)
    x, _, calls = falling_secular(shift, b, b1c, budget, x0, ulps=1.0)
    assert shift.asked[0] == x0 and len(shift.asked) == calls <= 2 and x0 - shift.asked[-1] <= math.ulp(x0)
    root = _mp_root(shift, b, b1c, budget, x0)
    assert abs(mpmath.mpf(x) - root) <= 8 * math.ulp(x0)


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 8), frac=st.floats(1e-12, 1.0, exclude_max=True))
def test_secular_iterates_fall_monotonically_onto_the_root(seed, n, frac):
    # with more users on the curve, or some off it, the rest's term at their farthest pole keeps each
    # model below the sum: every iterate that does not fit stays at or above the 50-digit root, to 1 ulp
    # of the start (measured: 0.04), and the last, the first that fits, is below it by at most the
    # rounding of the step that reached it, 16 ulps of the start (measured: 9.4 on 3,000 draws, in 3.1
    # calls on average and 9 at most)
    shift, b, b1c, budget, x0 = _secular_case(seed, n, frac, all_on=False)
    x, powers, calls = falling_secular(shift, b, b1c, budget, x0)
    asked = shift.asked
    assert asked[0] == x0 and asked == sorted(set(asked), reverse=True) and len(asked) == calls <= 16
    assert x == asked[-1] and np.add.reduce(powers) <= budget
    root, ulp = _mp_root(shift, b, b1c, budget, x0), math.ulp(x0)
    assert all(mpmath.mpf(v) >= root - ulp for v in asked[:-1]) and mpmath.mpf(x) >= root - 16 * ulp
