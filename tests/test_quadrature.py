import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ergosim import euler, quadrature
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
        assert np.array_equal(self.tab.from_left(self.tab.nodes), self.tab._side(0)[0])
        assert np.array_equal(self.tab.from_right(self.tab.nodes), self.tab._side(1)[0])

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


def _reference_query(tab, z, from_right):
    """The numpy query the native one replaces: ``searchsorted`` for the panel
    and the degree-7 Legendre recurrence written out in the association order
    of numpy's ``legval`` (as of numpy 2.4; other versions may associate it
    differently, so it is not called here)."""
    zc = np.clip(np.asarray(z, dtype=float), tab.lo, tab.hi)
    side = "left" if from_right else "right"
    idx = np.clip(np.searchsorted(tab.nodes, zc, side=side) - 1, 0, len(tab.nodes) - 2)
    cum, coef = tab._side(int(from_right))
    if from_right:
        s = (tab.nodes[idx + 1] - zc) / tab._half
        x, cum, c = 1.0 - s, cum[idx + 1], coef[idx]
    else:
        s = (zc - tab.nodes[idx]) / tab._half
        x, cum, c = s - 1.0, cum[idx], coef[idx]
    c0, c1 = c[..., 6], c[..., 7]
    for nd in range(7, 1, -1):
        c0, c1 = c[..., nd - 2] - c1 * ((nd - 1) / nd), c0 + c1 * x * ((2 * nd - 1) / nd)
    return cum + s * (c0 + c1 * x)


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
    inputs = [pts, pts[::3], pts[:600].reshape(20, 30), pts[:600].reshape(20, 30).T,
              np.float64(-0.0), np.nan, -np.inf, float(pts[0]), np.asarray(pts[1])]
    for z in inputs:
        for from_right, query in ((False, tab.from_left), (True, tab.from_right)):
            got, want = query(z), _reference_query(tab, z, from_right)
            assert type(got) is type(want)
            assert np.shape(got) == np.shape(want) == np.shape(z)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def _bumpy(x):
    return np.exp(-0.5 * x * x) * np.cos(3.0 * x) + 0.1 * x


def _eager_sides(g, lo, hi, n_panels):
    """Both ends' cumulative sums and coefficients, built at once from the
    integrand's values as a table built them before either end waited for
    its first query."""
    nodes = np.linspace(lo, hi, n_panels + 1)
    mid = 0.5 * (nodes[:-1] + nodes[1:])
    half = 0.5 * (nodes[1] - nodes[0])
    pts = mid[:, None] + half * quadrature._GL_NODES[None, :]
    vals = np.asarray(g(pts.ravel()), dtype=float).reshape(n_panels, 8)
    panels = half * vals @ quadrature._GL_WEIGHTS
    left = (np.concatenate(([0.0], np.cumsum(panels))),
            np.ascontiguousarray((half * (quadrature._LEFT_MAP @ vals.T)).T))
    right = (np.concatenate((np.cumsum(panels[::-1])[::-1], [0.0])),
             np.ascontiguousarray((half * (quadrature._RIGHT_MAP @ vals.T)).T))
    return left, right


@pytest.mark.parametrize("first", [0, 1])
def test_sides_built_on_first_use_equal_the_eager_ones(first):
    eager = _eager_sides(_bumpy, -2.0, 3.5, 300)
    tab = Antiderivative(_bumpy, -2.0, 3.5, 300)
    queries = (tab.from_left, tab.from_right)
    z = np.linspace(-2.5, 4.0, 1001)
    assert tab._sides == {}
    queries[first](z)
    assert list(tab._sides) == [first] and tab._vals is not None
    queries[1 - first](z)
    assert tab._vals is None  # dropped once both ends exist
    for side in (0, 1):
        for got, want in zip(tab._side(side), eager[side]):
            assert got.tobytes() == want.tobytes()


def test_left_only_table_keeps_the_left_bits():
    z = np.linspace(-2.5, 4.0, 1001)
    want = Antiderivative(_bumpy, -2.0, 3.5, 300).from_left(z)
    tab = Antiderivative(_bumpy, -2.0, 3.5, 300)
    tab.keep_left_only()
    assert tab._vals is None
    assert tab.from_left(z).tobytes() == want.tobytes()
    with pytest.raises(ValueError, match="keeps only its left end"):
        tab.from_right(z)


@pytest.mark.parametrize("lo, hi, n_panels", [(0.0, 3.0, 5), (-2.0, 3.0, 1000), (-1.0, 1.0, 1)])
def test_both_native_query_paths_give_the_same_bits(lo, hi, n_panels):
    # the AVX-512 path answers 8 points a vector and sends a block with a NaN
    # or a missed guess, and the last n % 8 points, through the portable loop
    if euler.NATIVE_PATH != "avx512":
        pytest.skip("this CPU lacks avx512f or avx512dq, so the library picked the "
                    "portable path and the AVX-512 path cannot run here")
    lib = euler._native()
    paths = [getattr(lib, f"antiderivative_eval_{p}") for p in euler._NATIVE_PATHS]
    tab = Antiderivative(_bumpy, lo, hi, n_panels)
    nodes = tab.nodes
    rng = np.random.default_rng(7)
    inside = np.sort(rng.uniform(lo, hi, 64))
    special = np.array([np.nan, -np.inf, np.inf, -0.0, 0.0, lo - 1.0, hi + 1.0, -1e308, 1e308])
    mixed = rng.permutation(np.concatenate([
        inside[:16], special, nodes[:20], np.nextafter(nodes[:20], -np.inf),
        np.nextafter(nodes[:20], np.inf)]))
    cases = ([inside[:n] for n in range(18)] + [mixed[:n] for n in range(18)]
             + [mixed, nodes, np.concatenate([inside, mixed, inside])])
    for from_right in (0, 1):
        cum, coef = tab._side(from_right)
        for z in cases:
            z = np.ascontiguousarray(z)
            outs = []
            for k, fn in enumerate(paths):
                out = np.full(z.size, float(k))  # a point left unwritten differs
                fn(nodes.ctypes.data, len(nodes), tab._half, cum.ctypes.data, coef.ctypes.data,
                   from_right, z.ctypes.data, z.size, out.ctypes.data)
                outs.append(out.tobytes())
            assert outs[0] == outs[1], (from_right, z)
            assert outs[0] == _reference_query(tab, z, from_right).tobytes(), (from_right, z)
