import math

import numpy as np
import pytest
from hypothesis import example, given, settings
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


def _pdf(x):
    return np.exp(-0.5 * x**2) / math.sqrt(2 * math.pi)


class TestAntiderivative:
    def setup_method(self):
        self.tab = Antiderivative(_pdf, -8.0, 8.0, 400)
        self.total = float(self.tab.from_left(self.tab.nodes[-1]))
        # the integral from z to 8, as a caller with a tiny right tail reads
        # it: the table of the reflected integrand, from -8 up to -z
        self.reflected = Antiderivative(lambda v: _pdf(-v), -8.0, 8.0, 400)

    def right_tail(self, z):
        return self.reflected.from_left(-np.asarray(z, dtype=float))

    def test_matches_erf(self):
        zs = np.linspace(-3, 3, 31)
        got = self.tab.from_left(zs)
        want = 0.5 * (1 + np.vectorize(math.erf)(zs / math.sqrt(2)))
        assert np.max(np.abs(got - want)) < 1e-12

    def test_left_right_sum_to_total(self):
        zs = np.linspace(-7.5, 7.5, 101)
        s = self.tab.from_left(zs) + self.right_tail(zs)
        assert np.max(np.abs(s - self.total)) < 1e-13

    def test_right_tail_no_cancellation(self):
        # at z = 7 the tail is ~1e-12; a left-difference would lose it
        tail = float(self.right_tail(np.array([7.0]))[0])
        want = 0.5 * (math.erfc(7.0 / math.sqrt(2)) - math.erfc(8.0 / math.sqrt(2)))
        assert abs(tail - want) / want < 1e-6

    def test_clipping_outside_range(self):
        assert float(self.tab.from_left(np.array([-100.0]))[0]) == 0.0
        assert abs(float(self.tab.from_left(np.array([100.0]))[0]) - self.total) < 1e-15

    def test_monotone_for_positive_integrand(self):
        zs = np.linspace(-8, 8, 200)
        vals = self.tab.from_left(zs)
        assert np.all(np.diff(vals) >= 0)

    @given(st.floats(-20.0, 20.0))
    @settings(max_examples=200, deadline=None)
    def test_left_right_sum_to_total_anywhere(self, z):
        s = float(self.tab.from_left(z)) + float(self.right_tail(z))
        assert abs(s - self.total) < 1e-13

    def test_exact_on_nodes(self):
        assert float(self.tab.from_left(self.tab.nodes[0])) == 0.0
        assert np.array_equal(self.tab.from_left(self.tab.nodes), self.tab._cum)

    def test_queries_never_call_integrand(self):
        calls = []

        def g(x):
            calls.append(np.size(x))
            return np.exp(-0.5 * x**2)

        tab = Antiderivative(g, -8.0, 8.0, 50)
        calls.clear()
        zs = np.linspace(-9.0, 9.0, 37)
        tab.from_left(zs)
        tab.from_left(0.3)
        assert calls == []

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            Antiderivative(lambda x: x, 1.0, 1.0, 10)


def _reference_query(tab, z):
    """The native query written out in numpy: ``searchsorted`` for the panel
    and Horner's rule on the panel's power-basis coefficients of ``L``."""
    zc = np.clip(np.asarray(z, dtype=float), tab.nodes[0], tab.nodes[-1])
    idx = np.clip(np.searchsorted(tab.nodes, zc, side="right") - 1, 0, len(tab.nodes) - 2)
    s = (zc - tab.nodes[idx]) / tab._half
    x, cum, c = s - 1.0, tab._cum[idx], tab._coef[idx]
    p = c[..., 7]
    for k in range(6, -1, -1):
        p = p * x + c[..., k]
    return cum + s * p


@given(lo=st.floats(-50.0, 50.0), width=st.floats(1e-3, 100.0),
       n_panels=st.sampled_from([1, 2, 4096, 6000]), seed=st.integers(0, 2**32 - 1))
@example(lo=0.0, width=1.0, n_panels=1, seed=0)  # -0.0 clipped to a +0.0 bound
@example(lo=-1.0, width=2.0, n_panels=2, seed=0)  # -0.0 on the middle node
@settings(max_examples=30, deadline=None)
def test_native_queries_match_numpy_reference_bitwise(lo, width, n_panels, seed):
    hi = lo + width
    tab = Antiderivative(lambda x: np.exp(-0.5 * x * x) * np.cos(3.0 * x) + 0.1 * x,
                         lo, hi, n_panels)
    nodes = tab.nodes
    rng = np.random.default_rng(seed)
    pts = np.concatenate([
        rng.uniform(lo - 0.25 * width, hi + 0.25 * width, 3000),
        nodes, np.nextafter(nodes, -np.inf), np.nextafter(nodes, np.inf),
        [-1e308, lo - width, hi + width, 1e308, -np.inf, np.inf, np.nan, -0.0, 0.0]])
    rng.shuffle(pts)
    inputs = [pts, pts[::3], pts[:0], pts[:7], pts[:600].reshape(20, 30),
              pts[:600].reshape(20, 30).T, np.float64(-0.0), np.nan, -np.inf, float(pts[0]),
              np.asarray(pts[1])]
    for z in inputs:
        got, want = tab.from_left(z), _reference_query(tab, z)
        assert type(got) is type(want)
        assert np.shape(got) == np.shape(want) == np.shape(z)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
