"""Bracketed Newton root finding."""

import numpy as np
import pytest

from relayauction.numutil import newton_root


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
