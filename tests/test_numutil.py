"""The rising Newton iteration of the price search, and the bracketed Newton root finding of the tests'
references (conftest)."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from relayauction.numutil import rising_newton

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


def _recorded(f, asked):
    """f, recording the points it is asked about."""

    def recorded(z):
        asked.append(z)
        return f(z)

    return recorded


@given(
    a=st.floats(1e-3, 1e3),
    pole=st.floats(-10.0, 10.0),
    c=st.floats(1e-3, 1e3),
    frac=st.floats(1e-6, 1.0),
)
def test_rising_newton_rises_monotonically_onto_the_root(a, pole, c, frac):
    # a / (z - pole) - c is convex and falls on z > pole, as the SNR rule's demands do near their
    # SNR limit: from near the pole the steps first grow, then shrink onto the root
    root = pole + a / c
    z0 = pole + frac * (root - pole)
    asked = []
    z, calls = rising_newton(_recorded(lambda z: (a / (z - pole) - c, -a / (z - pole) ** 2), asked), z0)
    assert asked[0] == z0 and asked == sorted(asked) and z == asked[-1] and calls == len(asked) < 64
    # within 2 ulps of the larger of |root| and |root - pole| (measured: 1.67 on 20,000 draws)
    with mpmath.workdps(40):
        err = abs(mpmath.mpf(z) - (mpmath.mpf(pole) + mpmath.mpf(a) / mpmath.mpf(c)))
    assert err <= 2 * math.ulp(max(abs(root), abs(root - pole)))


def test_rising_newton_stops_where_rounding_keeps_f_above_zero():
    # f stays positive at the root's float, so only the step that no longer moves the iterate ends it
    root = 1.0 / 3.0
    asked = []
    z, calls = rising_newton(_recorded(lambda z: (max(root - z, 1e-300), -1.0), asked), 0.0)
    assert (z, calls, asked) == (root, 2, [0.0, root])


def test_rising_newton_stays_where_f_is_already_below_zero():
    asked = []
    assert rising_newton(_recorded(lambda z: (-z, -1.0), asked), 2.0) == (2.0, 1) and asked == [2.0]
