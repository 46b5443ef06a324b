import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergosim.quadrature import Antiderivative, panel_integral


def test_polynomial_exact():
    # 8-point Gauss-Legendre is exact up to degree 15 on every panel
    nodes = np.array([-1.0, -0.3, 0.4, 2.5, 3.0])
    for degree in range(16):
        coeffs = np.cos(np.arange(degree + 1.0))
        anti = np.polynomial.polynomial.polyint(coeffs)
        exact = np.polynomial.polynomial.polyval(3.0, anti) - np.polynomial.polynomial.polyval(-1.0, anti)
        val = panel_integral(lambda x: np.polynomial.polynomial.polyval(x, coeffs), nodes)
        assert abs(val - exact) <= 1e-13 * max(1.0, abs(exact)), degree


def test_gaussian_over_real_line():
    # the real line truncated to a grid on which the tails underflow
    val = panel_integral(lambda x: np.exp(-0.5 * x * x), np.linspace(-40.0, 40.0, 161))
    assert abs(val - math.sqrt(2 * math.pi)) < 1e-14


@given(st.floats(-3, 3), st.floats(0.1, 4))
@settings(max_examples=25, deadline=None)
def test_interval_additivity(a, w):
    g = lambda x: np.sin(x) + 0.3 * x * x
    whole = panel_integral(g, np.linspace(a, a + w, 9))
    split = panel_integral(g, np.linspace(a, a + 0.4 * w, 5)) + panel_integral(
        g, np.linspace(a + 0.4 * w, a + w, 5)
    )
    assert abs(whole - split) < 1e-13


class TestAntiderivative:
    def setup_method(self):
        self.tab = Antiderivative(
            lambda x: np.exp(-0.5 * x**2) / math.sqrt(2 * math.pi), -8.0, 8.0, 400
        )

    def test_matches_erf(self):
        zs = np.linspace(-3, 3, 31)
        got = self.tab.from_left(zs)
        want = 0.5 * (1 + np.vectorize(math.erf)(zs / math.sqrt(2)))
        assert np.max(np.abs(got - want)) < 1e-12

    def test_left_right_sum_to_total(self):
        zs = np.linspace(-7.5, 7.5, 101)
        s = self.tab.from_left(zs) + self.tab.from_right(zs)
        assert np.max(np.abs(s - self.tab.total)) < 1e-13

    def test_right_tail_no_cancellation(self):
        # at z = 7 the tail is ~1e-12; a left-difference would lose it
        tail = float(self.tab.from_right(np.array([7.0]))[0])
        want = 0.5 * (math.erfc(7.0 / math.sqrt(2)) - math.erfc(8.0 / math.sqrt(2)))
        assert abs(tail - want) / want < 1e-6

    def test_clipping_outside_range(self):
        assert float(self.tab.from_left(np.array([-100.0]))[0]) == 0.0
        assert abs(float(self.tab.from_left(np.array([100.0]))[0]) - self.tab.total) < 1e-15

    def test_monotone_for_positive_integrand(self):
        zs = np.linspace(-8, 8, 200)
        vals = self.tab.from_left(zs)
        assert np.all(np.diff(vals) >= 0)

    @given(st.floats(-20.0, 20.0))
    @settings(max_examples=200, deadline=None)
    def test_left_right_sum_to_total_anywhere(self, z):
        s = float(self.tab.from_left(z)) + float(self.tab.from_right(z))
        assert abs(s - self.tab.total) < 1e-13

    def test_exact_on_nodes(self):
        assert float(self.tab.from_left(self.tab.lo)) == 0.0
        assert float(self.tab.from_right(self.tab.hi)) == 0.0
        assert np.array_equal(self.tab.from_left(self.tab.nodes), self.tab._cum_left)
        assert np.array_equal(self.tab.from_right(self.tab.nodes), self.tab._cum_right)

    def test_queries_never_call_integrand(self):
        calls = []

        def g(x):
            calls.append(np.size(x))
            return np.exp(-0.5 * x**2)

        tab = Antiderivative(g, -8.0, 8.0, 50)
        calls.clear()
        zs = np.linspace(-9.0, 9.0, 37)
        tab.from_left(zs)
        tab.from_right(zs)
        tab.from_left(0.3)
        assert calls == []

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            Antiderivative(lambda x: x, 1.0, 1.0, 10)
