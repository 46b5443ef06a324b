"""Closed-form solution of the 1D Poisson equation Lu = -f and exponent audits.

The generator of a 1D diffusion with drift b and squared diffusion a
admits the explicit antiderivative representation

    u'(x) = -(2 / (a pi))(x) * int_{-inf}^x f pi dy
          = +(2 / (a pi))(x) * int_x^{inf} f pi dy       (f centralized)

with u obtained by one further integration.  The left-tail form is
numerically stable below the density's anchor (its mode) and the
right-tail form above it, which is exactly how the two are used here: a
fixed switch such as 0.0 divides rounding noise by an underflowed a*pi
once the mode lies several stationary SDs away from it.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .models import UNDERFLOW_FLOOR, FunctionalSpec, InvariantDensity1D, SdeModel
from .quadrature import Antiderivative


class PoissonError(Exception):
    pass


FIT_FLOOR = 1e-12


@dataclass
class TailFit:
    exponent: float
    logarithmic: bool = False
    bounded: bool = False

    def effective(self) -> float:
        """Exponent value entering inequality audits (bounded/log count as 0)."""
        if self.bounded or self.logarithmic:
            return 0.0
        return self.exponent


@dataclass
class PoissonSolution:
    """u, u', u'' on a grid plus measured tail growth exponents."""

    grid: np.ndarray
    u: np.ndarray
    u_prime: np.ndarray
    u_double_prime: np.ndarray
    time_parameter: float
    fitted_exponents: dict = field(default_factory=dict)
    u_fn: Callable = None
    u_prime_fn: Callable = None
    u_double_prime_fn: Callable = None
    table_range: tuple = (0.0, 0.0)
    half_line: bool = False

    def to_csv(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["x", "u_1", "u_prime_1", "u_dprime_1"])
            for row in zip(self.grid, self.u, self.u_prime, self.u_double_prime):
                w.writerow([f"{v:.17g}" for v in row])


def solve_poisson_1d(
    model: SdeModel,
    pi: InvariantDensity1D,
    f: FunctionalSpec,
    t: float,
    grid,
    n_panels: int = 6000,
) -> PoissonSolution:
    """Solve Lu = -f(t, .) on a 1D model via the antiderivative representation.

    The cumulative integral of f*pi is tabulated once on a refinement of
    the density's working range and reused for every grid point; u is
    normalized to vanish at the density anchor.  Grid points where a*pi
    underflows are dropped with a warning.
    """
    if model.dim_state != 1:
        raise PoissonError("solve_poisson_1d requires dim_state == 1")
    if not f.centralized:
        raise PoissonError("f must be centralized before solving the Poisson equation")
    grid = np.sort(np.asarray(grid, dtype=float))

    w_of_z, z_of_w, dz_dw = pi._w_of_z, pi._z_of_w, pi._dz_dw
    wn = pi._w_nodes
    w_lo, w_hi = float(wn[0]), float(wn[-1])

    def f_pi_w(w):
        z = z_of_w(w)
        return np.asarray(f.value(t, z), dtype=float) * pi.density(z) * dz_dw(w)

    table = Antiderivative(f_pi_w, w_lo, w_hi, n_panels)

    def a_pi(z):
        return model.a(z) * pi.density(z)

    def u_prime(z):
        z = np.atleast_1d(np.asarray(z, dtype=float))
        w = w_of_z(z)
        denom = a_pi(z)
        left = -2.0 * table.from_left(w)
        right = 2.0 * table.from_right(w)
        num = np.where(z <= pi.anchor, left, right)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = num / denom
        return out

    # u anchored at the density anchor: u(anchor) = 0.  The u table only
    # spans the sub-range where a*pi has not underflowed; beyond it u' is
    # 0/0 numerically, and those grid points are dropped anyway.
    def u_prime_w(w):
        v = u_prime(z_of_w(w)) * dz_dw(w)
        return np.where(np.isfinite(v), v, 0.0)

    valid = a_pi(z_of_w(wn)) >= UNDERFLOW_FLOOR
    if np.sum(valid) < 3:
        raise PoissonError("a*pi underflows on nearly all of the working range")
    wu_lo = float(wn[np.argmax(valid)])
    wu_hi = float(wn[len(valid) - 1 - np.argmax(valid[::-1])])
    u_table = Antiderivative(u_prime_w, wu_lo, wu_hi, n_panels)
    w_anchor = float(w_of_z(pi.anchor))
    u_offset = float(u_table.from_left(np.array([w_anchor]))[0])

    def u_val(z):
        z = np.atleast_1d(np.asarray(z, dtype=float))
        return u_table.from_left(w_of_z(z)) - u_offset

    def u_dprime(z):
        z = np.atleast_1d(np.asarray(z, dtype=float))
        return -2.0 * (np.asarray(f.value(t, z), dtype=float) + model.drift(z) * u_prime(z)) / model.a(z)

    keep = a_pi(grid) >= UNDERFLOW_FLOOR
    if not np.all(keep):
        warnings.warn(
            f"dropping {np.sum(~keep)} grid points where a*pi underflows", stacklevel=2
        )
    grid_kept = grid[keep]
    if grid_kept.size < 3:
        raise PoissonError("fewer than 3 grid points survive the underflow filter")

    sol = PoissonSolution(
        grid=grid_kept,
        u=u_val(grid_kept),
        u_prime=u_prime(grid_kept),
        u_double_prime=u_dprime(grid_kept),
        time_parameter=t,
        u_fn=u_val,
        u_prime_fn=u_prime,
        u_double_prime_fn=u_dprime,
        table_range=(float(z_of_w(w_lo)), float(z_of_w(w_hi))),
        half_line=model.is_half_line,
    )
    try:
        sol.fitted_exponents = fit_tail_exponents(sol)
    except PoissonError:
        sol.fitted_exponents = {}
    return sol


def _fit_one(x: np.ndarray, vals: np.ndarray) -> TailFit:
    env = np.maximum(np.abs(vals), FIT_FLOOR)
    if np.all(env <= FIT_FLOOR):
        return TailFit(-math.inf, bounded=True)
    lx = np.log(np.abs(x))
    ly = np.log(env)
    slope, icpt = np.polyfit(lx, ly, 1)
    power_res = float(np.sum((ly - (slope * lx + icpt)) ** 2))
    # alternative: envelope ~ c*log|x| + d, the p0 - alpha = -1 boundary case
    A = np.vstack([lx, np.ones_like(lx)]).T
    coef, res_log, *_ = np.linalg.lstsq(A, env, rcond=None)
    log_res_rel = float(res_log[0]) / float(np.sum(env**2)) if res_log.size else math.inf
    power_res_rel = power_res / float(np.sum(ly**2)) if np.any(ly) else 0.0
    if coef[0] > 0 and log_res_rel < power_res_rel and slope < 0.5:
        return TailFit(0.0, logarithmic=True)
    return TailFit(float(slope))


def fit_tail_exponents(sol: PoissonSolution, tail_fraction: float = 0.25) -> dict:
    """Log-log tail slopes of |u|, |u'|, |u''| over the outer grid fraction.

    Returns a dict with keys ``p1``, ``p2``, ``p3`` mapping to
    :class:`TailFit` records; for full-line supports the slope is
    maximized over the two tails, for half-line supports the right tail
    is used.
    """
    if not (0.0 < tail_fraction <= 0.5):
        raise ValueError("tail_fraction must lie in (0, 0.5]")
    x = sol.grid
    hi_cut = np.quantile(np.abs(x), 1.0 - tail_fraction)
    sides = [np.abs(x) >= hi_cut] if sol.half_line else [
        (x >= hi_cut), (x <= -hi_cut)
    ]
    for mask in sides:
        if np.sum(mask) < 20:
            raise PoissonError("need at least 20 tail points per side for exponent fits")
    out = {}
    for key, vals in (("p1", sol.u), ("p2", sol.u_prime), ("p3", sol.u_double_prime)):
        fits = [_fit_one(x[m], vals[m]) for m in sides]
        best = max(fits, key=lambda fz: fz.effective() if not fz.bounded else -math.inf)
        if all(fz.bounded for fz in fits):
            best = fits[0]
        out[key] = best
    return out


# ---------------------------------------------------------------------------
# exponent bookkeeping for the moderate-deviation assumptions
# ---------------------------------------------------------------------------


@dataclass
class ExponentSet:
    """Growth exponents of u and its derivatives entering the MDP audit.

    ``p3 = None`` marks the second-derivative bound as waived (constant
    diffusion coefficient); time-modulus exponents default to 0, the
    homogeneous-functional case.
    """

    p1: float = 0.0
    p2: float = 0.0
    p3: Optional[float] = None
    q0: float = 0.0
    q1: float = 0.0
    q2: float = 0.0


@dataclass
class ExponentAudit:
    alpha: float
    exponents: ExponentSet
    verdict_mdp: bool
    verdict_detail: dict


_TOL = 1e-9  # absorb float fuzz from fitted slopes


def audit_mdp_exponents(alpha: float, measured: ExponentSet) -> ExponentAudit:
    """Evaluate the exponent inequalities gating the moderate deviation theorem.

    The four groups checked: (i) p1 <= (1+alpha)/2; (ii) p2 < alpha for
    alpha <= 1, p2 <= (1+alpha)/2 for alpha > 1; (iii) max(q0/2, q2) <=
    alpha and q1 <= 2*alpha (alpha <= 1) or alpha (alpha > 1);
    (iv) p3 <= alpha, waived when p3 is None.
    """
    e = measured
    detail = {}
    detail["(i) p1 <= (1+alpha)/2"] = e.p1 <= (1.0 + alpha) / 2.0 + _TOL
    if alpha <= 1.0:
        detail["(ii) p2 < alpha"] = e.p2 < alpha - _TOL or abs(e.p2 - 0.0) < _TOL and alpha > 0
    else:
        detail["(ii) p2 <= (1+alpha)/2"] = e.p2 <= (1.0 + alpha) / 2.0 + _TOL
    detail["(iii) max(q0/2, q2) <= alpha"] = max(e.q0 / 2.0, e.q2) <= alpha + _TOL
    q1_bound = 2.0 * alpha if alpha <= 1.0 else alpha
    detail["(iii) q1 bound"] = e.q1 <= q1_bound + _TOL
    if e.p3 is None:
        detail["(iv) p3 <= alpha [waived: constant diffusion]"] = True
    else:
        detail["(iv) p3 <= alpha"] = e.p3 <= alpha + _TOL
    return ExponentAudit(alpha, e, all(detail.values()), detail)


def multidim_exponent_bounds(
    p0: float, q0: float, alpha: float, alpha_bar: float
) -> ExponentSet:
    """Sufficient (not tight) exponent bounds for d > 1 models.

    p1 = (p0-alpha+1)^+, p2 = max(p1+2*abar, p0), q1 = (q0-alpha+1)^+,
    q2 = max(q1+2*abar, q0), p3 = max(p0+2*abar, p1+4*abar).
    """
    p1 = max(p0 - alpha + 1.0, 0.0)
    q1 = max(q0 - alpha + 1.0, 0.0)
    return ExponentSet(
        p1=p1,
        p2=max(p1 + 2.0 * alpha_bar, p0),
        p3=max(p0 + 2.0 * alpha_bar, p1 + 4.0 * alpha_bar),
        q0=q0,
        q1=q1,
        q2=max(q1 + 2.0 * alpha_bar, q0),
    )


def exponents_from_solution(sol: PoissonSolution, constant_diffusion: bool) -> ExponentSet:
    """Package fitted tail exponents for the audit (homogeneous functionals)."""
    fits = sol.fitted_exponents or fit_tail_exponents(sol)
    return ExponentSet(
        p1=fits["p1"].effective(),
        p2=fits["p2"].effective(),
        p3=None if constant_diffusion else fits["p3"].effective(),
    )
