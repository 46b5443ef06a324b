"""Limiting covariance M_f, the deviation rate function, and optimal controls.

Two independent routes to the scalar covariance are provided:

* the gradient form  M_f = int u' a u' dpi, evaluated by quadrature from
  a Poisson solution, and
* the autocorrelation form  M_f = 2 int_0^infty E[f(X_0) f(X_s)] ds with
  X_0 ~ pi, estimated by Monte Carlo over stationary unit-speed paths.

Their agreement is the main cross-validation of the whole pipeline,
since the second route never touches the Poisson equation.

The autocorrelation route draws its start uniforms from one Philox
stream keyed by ``master_seed`` and steps path ``i`` on the normals of
``euler.replicate_stream(master_seed, i)``, as :func:`euler.simulate_batch`
steps row ``i``.  It runs on the observe mode of the Euler kernel that
``simulate_batch`` would pick, through the same private runner
``euler._run_rows``: the paths start from their own states, and each
step's products ``f(X_0) f(X_s)`` are summed in path order within chunks
of 256 paths and then over the chunks in order, and the path integrals
are the kernel's trapezoid, so the figures are the same on either kernel
and at every thread count.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import euler
from .models import FunctionalSpec, InvariantDensity1D, PolynomialFunctional, SdeModel
from .poisson1d import PoissonSolution


class VarianceError(Exception):
    pass


class SingularCovarianceError(VarianceError):
    """M_f is numerically singular; the rate function is undefined."""


@dataclass
class CovarianceCurve:
    """M_f(t) on a time grid, with method provenance and uncertainty."""

    t_grid: np.ndarray
    values: np.ndarray  # shape (len(t_grid),) scalar case
    method: str
    std_error: Optional[np.ndarray] = None
    detail: dict = field(default_factory=dict)

    def at(self, t: float) -> float:
        return float(np.interp(t, self.t_grid, self.values))

    def to_json(self, path: str) -> None:
        payload = {
            "method": self.method,
            "t_grid": self.t_grid.tolist(),
            "values": self.values.tolist(),
            "std_error": None if self.std_error is None else self.std_error.tolist(),
            "detail": self.detail,
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)


TAIL_MASS_LIMIT = 0.01
# pi-mass quantile delimiting the far-tail region used by the decay screen
TAIL_QUANTILE = 1e-6
# the route's blow-up bound: |y| <= _FINITE fails exactly where y is not finite
_FINITE = sys.float_info.max


def mf_gradient_form(
    model: SdeModel,
    pi: InvariantDensity1D,
    solution: PoissonSolution,
) -> CovarianceCurve:
    """M_f = int u' a u' dpi for a 1-D model, by quadrature.

    ``u'`` is that of ``solution``, so ``M_f`` is computed at
    ``solution.time_parameter``, the one point of the returned curve.  The
    integral runs over the density working range; an estimated
    truncated-tail contribution above 1 percent of the bulk is an error
    (the functional grows too fast for this route).
    """
    t = float(solution.time_parameter)
    pi._ensure_cdf()
    wn = pi._w_nodes
    left_tail = pi._cdf <= TAIL_QUANTILE
    right_tail = pi._cdf >= 1.0 - TAIL_QUANTILE
    u_prime = solution.u_prime_fn

    def integrand(z):
        with np.errstate(over="ignore", invalid="ignore"):
            up = u_prime(z)
            v = up * model.a(z) * up * pi.density(z)
        # 0/0 where pi has underflowed; the true contribution is 0
        return np.where(np.isfinite(v), v, 0.0)

    # decay screen on a trapezoid proxy in the working coordinate: the
    # integrand share in the regions carrying negligible pi mass must
    # itself be negligible, else the growth of f defeats truncation
    proxy_vals = integrand(pi.z_nodes) * pi._dz_dw(wn)
    proxy = float(np.trapezoid(proxy_vals, wn))
    tail = 0.0
    for mask in (left_tail, right_tail):
        if np.count_nonzero(mask) >= 2:
            tail += abs(float(np.trapezoid(proxy_vals[mask], wn[mask])))
    if proxy <= 0.0 or not math.isfinite(proxy):
        raise VarianceError(f"gradient-form integral failed at t={t}: got {proxy}")
    if tail > TAIL_MASS_LIMIT * proxy:
        raise VarianceError(
            "gradient-form integrand has not decayed at the working-range "
            f"edges (tail share {tail / proxy:.3g} of the bulk)"
        )
    bulk = pi.expectation(lambda z: u_prime(z) ** 2 * model.a(z))
    if bulk <= 0.0 or not math.isfinite(bulk):
        raise VarianceError(f"gradient-form integral failed at t={t}: got {bulk}")
    return CovarianceCurve(t_grid=np.array([t]), values=np.array([bulk]), method="gradient_form")


def mf_autocorrelation_form(
    model: SdeModel,
    pi: InvariantDensity1D,
    f: FunctionalSpec,
    t: float = 0.0,
    horizon: float = 10.0,
    n_paths: int = 100_000,
    dt: float = 0.005,
    master_seed: int = 0,
    tail_extrapolate: bool = True,
    threads: Optional[int] = None,
) -> CovarianceCurve:
    """Monte Carlo estimate 2 int_0^S E[f(X_0) f(X_s)] ds from stationary start.

    Unit-speed Euler paths are started from pi by inverse-CDF sampling;
    each path contributes A_i = f(X_0) int_0^S f(X_s) ds (trapezoid) and
    the estimate is 2 mean(A) with a jackknife standard error.  An
    exponential fit to the empirical autocorrelation over the last
    quarter of the horizon supplies a truncation-bias correction; if that
    fitted tail still exceeds 1 percent of the estimate the horizon is
    reported as too short.  The fit is made only when the autocorrelation
    at the start of that window is more than 3 Monte Carlo standard
    errors above zero; otherwise the correction is 0 and
    ``detail["tail_resolved"]`` is False.

    Path ``i`` steps on ``euler.replicate_stream(master_seed, i)``, after
    the start uniforms drawn from ``master_seed``'s own stream.  The step is
    ``(y + b*dt) + (s*sqrt(dt))*xi`` in that order; each step's products
    f(X_0) f(X_s) are summed in path order within chunks of 256 paths and
    then over the chunks in order; and the integral of f along a path is
    the Euler kernel's trapezoid sum, taken in two legs, up to the first
    step of the tail window and then the rest.  Each leg is one call of
    the Euler kernels' runner in its observe mode: the native
    ``euler_rows`` on ``threads`` threads (default: the CPUs this process
    may run on) where ``simulate_batch`` runs it, else the numpy kernel in
    the caller's thread.  A path goes on from leg to leg in the coordinate
    the kernel steps (Gompertz's log space), and f is observed at ``t`` on
    every step.  The figures do not depend on ``threads``.  Raises
    :class:`~ergosim.euler.NativeBuildError` if the native library cannot
    be built; there is no pure-Python fallback.

    Raises :class:`VarianceError` unless ``n_paths`` is an integer of at
    least 2 (the standard error needs two paths), ``master_seed`` is an
    integer of at least 0, ``dt`` is finite and positive, ``horizon`` is
    finite and at least ``dt``, and ``threads`` is None or an integer of
    at least 1; naming the step and the number of paths, at the first step
    after which a path's state is not finite; and, naming the first such
    step, when the paths stay finite but a sum of products f(X_0) f(X_s)
    or a path's integral of f is not (checked once, after the last step).
    """
    if not f.centralized:
        raise VarianceError("f must be centralized for the autocorrelation form")
    n_paths = euler._integer("n_paths", n_paths, 2, VarianceError)  # the SE needs two paths
    master_seed = euler._integer("master_seed", master_seed, 0, VarianceError)
    if not (math.isfinite(dt) and dt > 0.0):
        raise VarianceError(f"dt must be finite and > 0, got {dt}")
    if not (math.isfinite(horizon) and horizon >= dt):
        raise VarianceError(f"horizon must be finite and at least dt = {dt}, got {horizon}")
    threads = (euler._usable_cpus() if threads is None
               else euler._integer("threads", threads, 1, VarianceError))
    euler._native()  # a failed build raises here, before any sampling
    n_steps = int(round(horizon / dt))
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=master_seed)))
    x = np.asarray(pi.sample(rng.random(n_paths)), dtype=float)
    # path i's normals: the stream of simulate_batch's row i
    # (the legs carry them from one to the next, so they are held as states)
    state = euler._start_streams(np.empty((n_paths, euler._STATE_WORDS), np.uint64),
                                 euler._stream_keys(master_seed, 0, n_paths))

    smap = model.state_map
    if smap is not None:
        # simulate in the transformed coordinate, observe through the map
        y = np.log(x) if smap is np.exp else None
        if y is None:
            raise VarianceError("stationary start unsupported for this state_map")
    else:
        y = x
    if not isinstance(f.value, PolynomialFunctional):
        # the legs observe f at each step's time; the route's f is f(t, .)
        value = f.value
        f = dataclasses.replace(f, value=lambda _s, z: value(t, z))

    def observe(y_arr):
        return np.asarray(f.value(t, smap(y_arr) if smap is not None else y_arr), dtype=float)

    f0 = observe(y)
    s_grid = dt * np.arange(n_steps + 1)
    tail_idx = s_grid >= 0.75 * horizon  # window of the tail fit
    i_tail = int(np.argmax(tail_idx))
    corr_sum = np.zeros(n_steps + 1)
    corr_sum[0] = float(np.sum(f0 * f0))
    # the integral of f along each path, in two legs: steps 1 to i_tail,
    # whose last state gives the products at the tail window's start, then
    # the rest; a leg of no steps is skipped
    xi = prod_tail = None
    for first, last in ((0, i_tail), (i_tail, n_steps)):
        if last > first:
            res = euler._run_rows(model, f, dt, dt, last - first, _FINITE, state, threads,
                                  start=y, weight=f0, corr=corr_sum[first + 1:last + 1])
            if res.failed.any():
                step = int(res.fail_step[res.failed].min())
                raise VarianceError(
                    f"{int(np.sum(res.fail_step == step))} of {n_paths} autocorrelation paths "
                    f"are not finite after step {first + step} of {n_steps}: dt is too "
                    "coarse for this drift")
            y = res.terminal
            xi = res.xi_continuous if xi is None else xi + res.xi_continuous
            if last == i_tail:
                prod_tail = f0 * observe(y)
    # Monte Carlo SE of the autocorrelation at the window start; NaN when the
    # window starts at s = 0 (a single step shorter than 3/4 of the horizon)
    se_tail = (math.nan if prod_tail is None
               else float(np.std(prod_tail, ddof=1)) / math.sqrt(n_paths))
    if not (np.isfinite(corr_sum).all() and np.isfinite(xi).all()):
        raise _non_finite_f(corr_sum, n_steps)
    A = f0 * xi
    m_hat = 2.0 * float(np.mean(A))
    se = 2.0 * float(np.std(A, ddof=1)) / math.sqrt(n_paths)

    detail = {"horizon": horizon, "n_paths": n_paths, "dt": dt}
    if tail_extrapolate:
        g = corr_sum / n_paths
        gt = g[tail_idx]
        pos = gt > 0
        # fit only a tail the data resolve: at the window start the
        # autocorrelation must exceed 3 of its Monte Carlo standard errors,
        # else the positive values are noise and the fitted decay is ~0
        resolved = bool(g[i_tail] > 3.0 * se_tail)
        detail["tail_resolved"] = resolved
        if resolved and np.sum(pos) >= 10:
            slope, icpt = np.polyfit(s_grid[tail_idx][pos], np.log(gt[pos]), 1)
            if slope < 0:
                # integral of c e^{slope s} from S to infinity
                c_end = math.exp(icpt + slope * horizon)
                tail = 2.0 * c_end / (-slope)
                detail["tail_correction"] = tail
                detail["fitted_decay_rate"] = -slope
                m_hat += tail
                if abs(tail) > TAIL_MASS_LIMIT * abs(m_hat):
                    detail["warning"] = "horizon too short: tail correction above 1% of estimate"
        else:
            detail["tail_correction"] = 0.0
    return CovarianceCurve(
        t_grid=np.array([t]),
        values=np.array([m_hat]),
        method="autocorrelation_form",
        std_error=np.array([se]),
        detail=detail,
    )


def _non_finite_f(corr_sum: np.ndarray, n_steps: int) -> VarianceError:
    # a non-finite f(X_0) makes corr_sum[0] non-finite; a running integral
    # that overflowed on finite products shows only at the end
    bad = np.flatnonzero(~np.isfinite(corr_sum))
    step = int(bad[0]) if bad.size else n_steps
    return VarianceError(
        f"the autocorrelation sums of f are not finite at step {step} of {n_steps}: "
        "f overflows on these paths")


# ---------------------------------------------------------------------------
# deviation rate function and optimal control
# ---------------------------------------------------------------------------


@dataclass
class RatePath:
    """A piecewise-linear path xi on [0, T] with its action value."""

    t_knots: np.ndarray
    xi_knots: np.ndarray
    rate: float


def rate_function(mf: CovarianceCurve, t_knots, xi_knots) -> RatePath:
    """Action I(xi) = (1/2) int xi'(s)^2 / M_f(s) ds for piecewise-linear xi.

    Constant M_f segments integrate in closed form; a linearly
    interpolated M_f(s) yields the exact log-form segment integral.
    Paths must start at xi(0) = 0.
    """
    t_knots = np.asarray(t_knots, dtype=float)
    xi_knots = np.asarray(xi_knots, dtype=float)
    if t_knots.ndim != 1 or t_knots.size < 2 or np.any(np.diff(t_knots) <= 0):
        raise VarianceError("t_knots must be strictly increasing with at least 2 points")
    if xi_knots.shape != t_knots.shape:
        raise VarianceError("xi_knots must match t_knots in shape")
    if xi_knots[0] != 0.0:
        raise VarianceError("paths must start at 0")
    m_at = np.interp(t_knots, mf.t_grid, mf.values)
    if np.any(m_at <= 1e-14):
        raise SingularCovarianceError("M_f vanishes on the path support")
    total = 0.0
    for i in range(len(t_knots) - 1):
        dt = t_knots[i + 1] - t_knots[i]
        v = (xi_knots[i + 1] - xi_knots[i]) / dt
        m0, m1 = m_at[i], m_at[i + 1]
        if abs(m1 - m0) <= 1e-14 * max(m0, m1):
            seg = v * v / m0 * dt
        else:
            # int dt / (m0 + (m1-m0) s/dt) = dt ln(m1/m0) / (m1-m0)
            seg = v * v * dt * math.log(m1 / m0) / (m1 - m0)
        total += 0.5 * seg
    return RatePath(t_knots=t_knots, xi_knots=xi_knots, rate=total)


@dataclass
class OptimalControl:
    """The feedback control realizing a target path at minimal noise cost."""

    psi: Callable  # psi(x, s)
    l2_cost: float
    rate: float


def optimal_control(
    model: SdeModel,
    pi: InvariantDensity1D,
    solution: PoissonSolution,
    mf: CovarianceCurve,
    path: RatePath,
) -> OptimalControl:
    """Construct psi(x, s) = sigma(x) u'(x) xi'(s) / M_f(s) for a target path.

    The expected quadratic cost E_pi int |psi|^2 ds equals twice the
    action of the path; this identity is returned alongside the control
    and is exact up to quadrature error, which makes it a sharp internal
    consistency check.
    """
    m_at = np.interp(path.t_knots, mf.t_grid, mf.values)
    if np.any(m_at <= 1e-14):
        raise SingularCovarianceError("M_f vanishes on the path support")
    t_knots, xi_knots = path.t_knots, path.xi_knots
    slopes = np.diff(xi_knots) / np.diff(t_knots)

    def xi_dot(s):
        i = np.clip(np.searchsorted(t_knots, s, side="right") - 1, 0, len(slopes) - 1)
        return slopes[i]

    def m_of(s):
        return np.interp(s, mf.t_grid, mf.values)

    def psi(x, s):
        return model.diffusion(x) * solution.u_prime_fn(x) * xi_dot(s) / m_of(s)

    # E_pi |psi(., s)|^2 = Q xi'(s)^2 / M(s)^2 with Q = int u'^2 a dpi = M_f
    # when M is the gradient form; keeping Q separate makes the identity
    # hold for any consistent mf input.
    q = pi.expectation(lambda z: solution.u_prime_fn(z) ** 2 * model.a(z))
    cost = 0.0
    for i in range(len(slopes)):
        dt = t_knots[i + 1] - t_knots[i]
        m0, m1 = m_at[i], m_at[i + 1]
        if abs(m1 - m0) <= 1e-14 * max(m0, m1):
            seg = dt / (m0 * m0)
        else:
            # int dt / m(s)^2 for linear m: dt (1/m0 - 1/m1) / (m1 - m0)
            seg = dt * (1.0 / m0 - 1.0 / m1) / (m1 - m0)
        cost += q * slopes[i] ** 2 * seg
    return OptimalControl(psi=psi, l2_cost=cost, rate=path.rate)
