"""Composite Gauss-Legendre quadrature and tabulated antiderivatives.

Both primitives use the 8-point Gauss-Legendre rule on every panel of a
node grid; the grid, not an error estimate, sets the resolution.

* :func:`panel_integral` -- the composite rule over a given node grid,
  also split into :func:`panel_points` and :func:`panel_sum` for a caller
  that keeps the integrand's values at the rule points.
* :class:`Antiderivative` -- a cumulative-integral table on a uniform
  grid, queried from either end.  Each panel also stores the integral of
  the degree-7 interpolant of the integrand through its 8 rule points,
  so a query inside a panel evaluates a polynomial and never calls the
  integrand again.  Right-tail queries are accumulated from the right so
  that tiny tail integrals are not computed as the difference of two
  nearly equal numbers.  Each end's table is built when that end is first
  queried.  A query is one call into the native library of
  :mod:`ergosim.euler` (``antiderivative_eval`` in ``_philox_fill.c``,
  whose portable and AVX-512 paths give the same bits); it has no numpy
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
    """Tabulated antiderivative of a vectorized integrand on [lo, hi].

    ``g`` is evaluated once, at the 8 Gauss-Legendre points of every panel
    of a uniform grid.  A query inside a panel adds to the cumulative sum
    the integral of that panel's interpolant, stored as ``(x + 1) L(x)``
    from the left node and ``(1 - x) R(x)`` from the right node in the
    panel coordinate ``x`` in [-1, 1].  The factored forms make a query
    exactly on a node return exactly the cumulative sum.  Each end's
    cumulative sums and coefficients are built when that end is first
    queried, and ``g``'s values are dropped once both ends are built (or
    by :meth:`keep_left_only`, for a table never queried from the right).

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
        self._vals = np.asarray(g(pts.ravel()), dtype=float).reshape(n_panels, _GL_NODES.size)
        self._sides = {}  # from_right -> (cumulative sums, coefficients)

    @property
    def lo(self) -> float:
        return float(self.nodes[0])

    @property
    def hi(self) -> float:
        return float(self.nodes[-1])

    @property
    def total(self) -> float:
        return float(self._side(0)[0][-1])

    def from_left(self, z) -> np.ndarray:
        """Integral from lo to z (vectorized)."""
        return self._query(z, 0)

    def from_right(self, z) -> np.ndarray:
        """Integral from z to hi (vectorized), accumulated from the right."""
        return self._query(z, 1)

    def keep_left_only(self) -> None:
        """Build the left end and drop what only a right query needs, the
        integrand's values; ``from_right`` then raises ``ValueError``."""
        self._side(0)
        self._sides.pop(1, None)
        self._vals = None

    def _side(self, from_right: int) -> tuple:
        """The cumulative sums and the ``(n_panels, 8)`` Legendre coefficients
        of L (from the left) or R (from the right), times the half-width."""
        side = self._sides.get(from_right)
        if side is None:
            if self._vals is None:
                raise ValueError("this table keeps only its left end")
            panels = self._half * self._vals @ _GL_WEIGHTS
            if from_right:
                cum = np.concatenate((np.cumsum(panels[::-1])[::-1], [0.0]))
                coef = self._half * (_RIGHT_MAP @ self._vals.T)
            else:
                cum = np.concatenate(([0.0], np.cumsum(panels)))
                coef = self._half * (_LEFT_MAP @ self._vals.T)
            side = self._sides[from_right] = (cum, np.ascontiguousarray(coef.T))
            if len(self._sides) == 2:
                self._vals = None
        return side

    def _query(self, z, from_right: int):
        from . import euler  # not at import time: euler imports models, which imports us

        cum, coef = self._side(from_right)
        z = np.asarray(z, dtype=float)
        flat = z.ravel()  # C-contiguous, copied only if z is not
        out = np.empty(z.shape)
        euler._native().antiderivative_eval(
            self.nodes.ctypes.data, len(self.nodes), self._half, cum.ctypes.data,
            coef.ctypes.data, from_right, flat.ctypes.data, flat.size, out.ctypes.data)
        return out if out.ndim else out[()]
