"""Composite Gauss-Legendre quadrature and tabulated antiderivatives.

Both primitives use the 8-point Gauss-Legendre rule on every panel of a
node grid; the grid, not an error estimate, sets the resolution.

* :func:`panel_integral` -- the composite rule over a given node grid,
  also split into :func:`panel_points` and :func:`panel_sum` for a caller
  that keeps the integrand's values at the rule points.
* :class:`Antiderivative` -- the integral from the left end of a uniform
  grid, tabulated at construction.  Each panel also stores the integral
  of the degree-7 interpolant of the integrand through its 8 rule points,
  so a query inside a panel evaluates a polynomial and never calls the
  integrand again.  A tail integral from ``z`` up to ``hi`` is the
  integral from ``-hi`` to ``-z`` of the reflected integrand, so a caller
  that needs a tiny right tail builds that table rather than taking the
  difference of two nearly equal numbers.  A query is one call into the
  native library of :mod:`ergosim.euler` (``antiderivative_eval`` in
  ``_philox_fill.c``, one path on every CPU); it has no numpy
  fallback, so a failed build raises
  :class:`~ergosim.euler.NativeBuildError` here too.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
from numpy.polynomial import legendre as leg


class QuadratureError(Exception):
    """Raised when an integrand overflows where its integral must be finite."""


_GL_NODES, _GL_WEIGHTS = leg.leggauss(8)

# Values at the 8 rule points -> Legendre coefficients of their degree-7
# interpolant on [-1, 1]; the rule is exact up to degree 15, so the
# discrete projection (k + 1/2) sum_j w_j P_k(x_j) g_j is the interpolant.
_TO_LEGENDRE = (np.arange(8) + 0.5)[:, None] * leg.legvander(_GL_NODES, 7).T * _GL_WEIGHTS


# Legendre -> power-basis coefficients: column k holds the monomial
# coefficients of P_k, dyadic rationals, so the map is exact
_TO_POWER = np.column_stack([np.pad(leg.leg2poly(e), (0, 7 - k))
                             for k, e in enumerate(np.eye(8))])

# int_{-1}^x p = (x + 1) L(x): the integral vanishes at -1, so the division
# is exact and L has degree 7; a query evaluates L in the power basis
_LEFT_MAP = _TO_POWER @ np.array([leg.legdiv(leg.legint(c, lbnd=-1.0), [1.0, 1.0])[0]
                                  for c in _TO_LEGENDRE.T]).T


def panel_points(nodes) -> np.ndarray:
    """The 8 rule points of every panel of ``nodes``, panel by panel: the
    points at which :func:`panel_integral` calls its integrand."""
    nodes = np.asarray(nodes, dtype=float)
    mid = 0.5 * (nodes[:-1] + nodes[1:])
    half = 0.5 * np.diff(nodes)
    return (mid[:, None] + half[:, None] * _GL_NODES).ravel()


def panel_sum(values, nodes) -> float:
    """The composite rule over ``nodes`` from the integrand's ``values`` at
    :func:`panel_points`."""
    half = 0.5 * np.diff(np.asarray(nodes, dtype=float))
    values = np.asarray(values, dtype=float).reshape(len(half), _GL_NODES.size)
    return float(np.sum((values @ _GL_WEIGHTS) * half))


def panel_integral(g: Callable[[np.ndarray], np.ndarray], nodes) -> float:
    """Composite 8-point Gauss-Legendre integral of vectorized ``g``.

    Integrates over each consecutive node pair and sums.  The rule is
    exact on polynomials up to degree 15 per panel, and every panel is
    sampled, so an integrand vanishing at a few probe points cannot hide
    its mass; the node grid must resolve the integrand.
    """
    return panel_sum(g(panel_points(nodes)), nodes)


class Antiderivative:
    """Tabulated integral from ``lo`` of a vectorized integrand on [lo, hi].

    ``g`` is evaluated once, at the 8 Gauss-Legendre points of every panel
    of a uniform grid, and the table is built from those values at
    construction: the cumulative sums at the nodes and, per panel, the
    integral of the panel's interpolant from its left node, stored as
    ``(x + 1) L(x)`` in the panel coordinate ``x`` in [-1, 1].  The
    factored form makes a query exactly on a node return exactly the
    cumulative sum.

    ``from_left`` is one call into the native library.  Per point it clips
    ``z`` to [lo, hi] (NaN stays NaN), finds the panel that
    ``np.searchsorted(nodes, z, side="right") - 1`` would give, and
    evaluates ``L`` by Horner's rule on its coefficients in the power basis
    of ``x``, stored panel-major, ``(n_panels, 8)``.
    A 0-d query returns a numpy float64; any other keeps the shape of ``z``.
    """

    def __init__(self, g: Callable[[np.ndarray], np.ndarray], lo: float, hi: float, n_panels: int):
        if not (hi > lo):
            raise ValueError(f"invalid table range [{lo}, {hi}]")
        self.nodes = np.linspace(lo, hi, n_panels + 1)
        mid = 0.5 * (self.nodes[:-1] + self.nodes[1:])
        self._half = half = 0.5 * (self.nodes[1] - self.nodes[0])
        pts = mid[:, None] + half * _GL_NODES[None, :]
        vals = np.asarray(g(pts.ravel()), dtype=float).reshape(n_panels, _GL_NODES.size)
        self._cum = np.concatenate(([0.0], np.cumsum(half * vals @ _GL_WEIGHTS)))
        self._coef = np.ascontiguousarray((half * (_LEFT_MAP @ vals.T)).T)

    def from_left(self, z) -> np.ndarray:
        """Integral from lo to z (vectorized)."""
        from . import euler  # not at import time: euler imports models, which imports us

        z = np.asarray(z, dtype=float)
        flat = z.ravel()  # C-contiguous, copied only if z is not
        out = np.empty(z.shape)
        euler._native().antiderivative_eval(
            self.nodes.ctypes.data, len(self.nodes), self._half, self._cum.ctypes.data,
            self._coef.ctypes.data, flat.ctypes.data, flat.size, out.ctypes.data)
        return out if out.ndim else out[()]
