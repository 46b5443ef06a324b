"""Composite Gauss-Legendre quadrature and tabulated antiderivatives.

Both primitives use the 8-point Gauss-Legendre rule on every panel of a
node grid; the grid, not an error estimate, sets the resolution.

* :func:`panel_integral` -- the composite rule over a given node grid.
* :class:`Antiderivative` -- a cumulative-integral table on a uniform
  grid, queried from either end.  Each panel also stores the integral of
  the degree-7 interpolant of the integrand through its 8 rule points,
  so a query inside a panel evaluates a polynomial and never calls the
  integrand again.  Right-tail queries are accumulated from the right so
  that tiny tail integrals are not computed as the difference of two
  nearly equal numbers.  A query is one loop in the native library of
  :mod:`ergosim.euler` (``antiderivative_eval`` in ``_philox_fill.c``);
  it has no numpy fallback, so a failed build raises
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


def _quotient_map(bound: float, divisor) -> np.ndarray:
    """Values -> Legendre coefficients of Q with int_bound^x p = divisor(x) Q(x).

    ``divisor`` is ``x + 1`` for ``bound = -1`` and ``x - 1`` for
    ``bound = 1``: the integral vanishes at ``bound``, so the division is
    exact and Q has degree 7.
    """
    cols = [leg.legdiv(leg.legint(c, lbnd=bound), divisor)[0] for c in _TO_LEGENDRE.T]
    return np.array(cols).T


# int_{-1}^x p = (x + 1) L(x)  and  int_x^1 p = (1 - x) R(x)
_LEFT_MAP = _quotient_map(-1.0, [1.0, 1.0])
_RIGHT_MAP = _quotient_map(1.0, [-1.0, 1.0])


def panel_integral(g: Callable[[np.ndarray], np.ndarray], nodes) -> float:
    """Composite 8-point Gauss-Legendre integral of vectorized ``g``.

    Integrates over each consecutive node pair and sums.  The rule is
    exact on polynomials up to degree 15 per panel, and every panel is
    sampled, so an integrand vanishing at a few probe points cannot hide
    its mass; the node grid must resolve the integrand.
    """
    nodes = np.asarray(nodes, dtype=float)
    mid = 0.5 * (nodes[:-1] + nodes[1:])
    half = 0.5 * np.diff(nodes)
    pts = mid[:, None] + half[:, None] * _GL_NODES
    vals = np.asarray(g(pts.ravel()), dtype=float).reshape(pts.shape)
    return float(np.sum((vals @ _GL_WEIGHTS) * half))


class Antiderivative:
    """Tabulated antiderivative of a vectorized integrand on [lo, hi].

    ``g`` is evaluated once, at the 8 Gauss-Legendre points of every panel
    of a uniform grid.  A query inside a panel adds to the cumulative sum
    the integral of that panel's interpolant, stored as ``(x + 1) L(x)``
    from the left node and ``(1 - x) R(x)`` from the right node in the
    panel coordinate ``x`` in [-1, 1].  The factored forms make a query
    exactly on a node return exactly the cumulative sum.

    ``from_left`` and ``from_right`` are one call each into the native
    library.  Per point it clips ``z`` to [lo, hi] (NaN stays NaN), finds the
    panel that ``np.searchsorted`` would give, and evaluates the panel's
    Legendre series in the association order of numpy's ``legval``, so the
    values are those of that numpy expression to the bit.  The coefficients
    are stored panel-major, ``(n_panels, 8)``.  A 0-d query returns a numpy
    float64; any other keeps the shape of ``z``.
    """

    def __init__(self, g: Callable[[np.ndarray], np.ndarray], lo: float, hi: float, n_panels: int):
        if not (hi > lo):
            raise ValueError(f"invalid table range [{lo}, {hi}]")
        self.nodes = np.linspace(lo, hi, n_panels + 1)
        mid = 0.5 * (self.nodes[:-1] + self.nodes[1:])
        self._half = half = 0.5 * (self.nodes[1] - self.nodes[0])
        pts = mid[:, None] + half * _GL_NODES[None, :]
        vals = np.asarray(g(pts.ravel()), dtype=float).reshape(n_panels, _GL_NODES.size)
        panels = half * vals @ _GL_WEIGHTS
        self._cum_left = np.concatenate(([0.0], np.cumsum(panels)))
        self._cum_right = np.concatenate((np.cumsum(panels[::-1])[::-1], [0.0]))
        # (n_panels, 8) Legendre coefficients of L and R, times the half-width
        self._left = np.ascontiguousarray((half * (_LEFT_MAP @ vals.T)).T)
        self._right = np.ascontiguousarray((half * (_RIGHT_MAP @ vals.T)).T)

    @property
    def lo(self) -> float:
        return float(self.nodes[0])

    @property
    def hi(self) -> float:
        return float(self.nodes[-1])

    @property
    def total(self) -> float:
        return float(self._cum_left[-1])

    def from_left(self, z) -> np.ndarray:
        """Integral from lo to z (vectorized)."""
        return self._query(z, self._cum_left, self._left, 0)

    def from_right(self, z) -> np.ndarray:
        """Integral from z to hi (vectorized), accumulated from the right."""
        return self._query(z, self._cum_right, self._right, 1)

    def _query(self, z, cum: np.ndarray, coef: np.ndarray, from_right: int):
        from . import euler  # not at import time: euler imports models, which imports us

        z = np.asarray(z, dtype=float)
        flat = z.ravel()  # C-contiguous, copied only if z is not
        out = np.empty(z.shape)
        euler._native().antiderivative_eval(
            self.nodes.ctypes.data, len(self.nodes), self._half, cum.ctypes.data,
            coef.ctypes.data, from_right, flat.ctypes.data, flat.size, out.ctypes.data)
        return out if out.ndim else out[()]
