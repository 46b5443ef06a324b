"""Diffusion model definitions, structural-condition audits, and 1D invariant densities."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .quadrature import Antiderivative, QuadratureError, panel_integral, panel_points, panel_sum


class ModelError(Exception):
    pass


class ModelEvaluationError(ModelError):
    """A drift/diffusion callable returned a non-finite value."""


class FellerConditionError(ModelError):
    pass


class NotPositiveRecurrentError(ModelError):
    pass


@dataclass(frozen=True)
class SdeModel:
    """A 1-D diffusion dX = b(X)dt + sigma(X)dW with declared regularity metadata.

    The state and the noise are scalar.  ``drift`` and ``diffusion`` must
    be numpy-vectorized over the state.  The recurrence, Hoelder and
    drift-growth constants are declared; the ellipticity bounds are not,
    since :func:`validate_conditions` measures them on its probe grid.
    ``support`` is the full line or a half-line ``(lo, inf)`` (CIR,
    Gompertz); a half-line model's ``probe_range`` must lie inside it.
    ``sim_drift``/``sim_diffusion``/``state_map`` describe an alternative
    coordinate system in which the process is actually simulated (the
    geometric mean-reversion model is stepped in log space and mapped back
    through ``state_map``, which the Euler kernel takes only as ``np.exp``).
    """

    drift: Callable
    diffusion: Callable
    recurrence_alpha: float
    recurrence_gamma: float
    recurrence_radius: float
    holder_nu: float
    drift_growth_alpha_bar: float
    initial_state: float
    name: str = "custom"
    support: tuple = (-math.inf, math.inf)
    probe_range: tuple = (-5.0, 5.0)
    sim_drift: Optional[Callable] = None
    sim_diffusion: Optional[Callable] = None
    state_map: Optional[Callable] = None
    sim_initial_state: Optional[float] = None

    def __post_init__(self):
        if self.recurrence_gamma <= 0:
            raise ModelError("recurrence_gamma must be > 0")
        if not (0.0 < self.holder_nu <= 1.0):
            # nu = 0 admits no valid step schedule; rejected here.
            raise ModelError("holder_nu must lie in (0, 1]")
        object.__setattr__(self, "initial_state", float(self.initial_state))
        if self.sim_initial_state is not None:
            object.__setattr__(self, "sim_initial_state", float(self.sim_initial_state))

    @property
    def is_half_line(self) -> bool:
        return math.isfinite(self.support[0])

    def a(self, x):
        """Squared diffusion a = sigma^2."""
        s = self.diffusion(x)
        return s * s

    def default_probe_grid(self, n: int = 41) -> np.ndarray:
        lo, hi = self.probe_range
        if self.is_half_line:
            return np.geomspace(lo, hi, n)
        return np.linspace(lo, hi, n)


@dataclass
class ConditionCheck:
    name: str
    passed: bool
    margin: float
    worst_probe: Optional[float]
    fitted_constant: Optional[float] = None
    detail: str = ""


@dataclass
class ConditionReport:
    checks: list

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def __getitem__(self, name: str) -> ConditionCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def summary_lines(self) -> list:
        out = []
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            out.append(f"{status}  {c.name:24s} margin={c.margin:+.4g}  {c.detail}")
        return out


def _coefficients(model: SdeModel, points: np.ndarray) -> tuple:
    """b and sigma at each of ``points``, calling the coefficients one point
    at a time (vectorised numpy ``log``/``pow`` can differ from the scalar
    calls in the last bits); raises at the first non-finite value."""
    b = np.empty(len(points))
    s = np.empty(len(points))
    for i, x in enumerate(points):
        b[i] = model.drift(x)
        s[i] = model.diffusion(x)
        for name, v in (("drift", b[i]), ("diffusion", s[i])):
            if not math.isfinite(v):
                raise ModelEvaluationError(f"{name} returned non-finite value at probe {x}")
    return b, s


def validate_conditions(model: SdeModel, probe_grid: Sequence) -> ConditionReport:
    """Numerically audit the structural conditions of a 1-D model on a probe grid.

    Checks, in order: the recurrence drift inequality, uniform
    ellipticity of sigma^2, Hoelder continuity of the coefficients
    (fitted constant), and the drift growth bound (fitted constant).
    Fitted-constant checks fail only when the worst probe ratio exceeds
    10x the median ratio, i.e. when no single constant plausibly fits.
    ``probe_grid`` is a 1-D sequence of states.
    """
    probes = np.asarray(probe_grid, dtype=float)
    if probes.size == 0:
        raise ModelError("probe grid must be nonempty")
    checks = []
    b_vals, s_vals = _coefficients(model, probes)

    # recurrence: x b(x) <= -gamma |x|^(1+alpha) beyond radius B
    norms = np.abs(probes)
    inner = probes * b_vals
    outer = norms > model.recurrence_radius
    if np.any(outer):
        margin = -model.recurrence_gamma * norms[outer] ** (1.0 + model.recurrence_alpha) - inner[outer]
        worst = int(np.argmin(margin))
        m = float(np.min(margin))
        checks.append(
            ConditionCheck(
                "recurrence_drift",
                m >= -1e-12,
                m,
                float(probes[outer][worst]),
                detail=f"gamma={model.recurrence_gamma}, alpha={model.recurrence_alpha}",
            )
        )
    else:
        checks.append(
            ConditionCheck(
                "recurrence_drift", True, math.inf, None, detail="no probes beyond radius"
            )
        )

    # ellipticity: smallest/largest a = sigma^2 over probes
    a_vals = s_vals * s_vals
    lam1 = float(a_vals.min())
    lam2 = float(a_vals.max())
    checks.append(
        ConditionCheck(
            "uniform_ellipticity",
            lam1 > 1e-12,
            lam1,
            float(probes[int(np.argmin(a_vals))]),
            detail=f"observed [{lam1:.4g}, {lam2:.4g}]",
        )
    )

    # Hoelder continuity of b and sigma: the ratio |g(x)-g(y)| / |x-y|^nu
    # on a pair must stay bounded as the pair is refined; a ratio that
    # grows under subdivision means the declared exponent nu is too high.
    checks.append(_holder_check(model, probes))

    # drift growth: |b| <= B (1 + |x|^alpha_bar)
    gr = np.abs(b_vals) / (1.0 + norms**model.drift_growth_alpha_bar)
    checks.append(
        _fitted_check("drift_growth", gr, probes, f"alpha_bar={model.drift_growth_alpha_bar}")
    )
    return ConditionReport(checks)


_HOLDER_GROWTH_LIMIT = 1.8  # ratio inflation allowed under 4x pair refinement


def _holder_check(model: SdeModel, probes: np.ndarray) -> ConditionCheck:
    nu = model.holder_nu
    pairs = []
    max_ratio = 0.0
    for x0, x1 in zip(probes[:-1], probes[1:]):
        if np.isclose(x0, x1):
            continue
        pts = np.array([x0 + t * (x1 - x0) for t in (0.0, 0.25, 0.5, 0.75, 1.0)])
        full = abs(float(pts[-1] - pts[0]))
        quarter = full / 4.0
        for vals in _coefficients(model, pts):
            # size of the difference, not difference of sizes: sign
            # changes in b must count as variation
            coarse = abs(float(vals[-1] - vals[0])) / full**nu
            fine = float(np.max(np.abs(np.diff(vals)))) / quarter**nu
            max_ratio = max(max_ratio, coarse, fine)
            pairs.append((coarse, fine, x0))
    # a pair whose endpoint difference nearly cancels (critical point
    # inside) says nothing about the exponent; only compare where the
    # coarse ratio itself is substantial
    worst_factor = 0.0
    worst_probe = None
    for coarse, fine, x0 in pairs:
        if coarse >= 0.1 * max_ratio and coarse > 0:
            factor = fine / coarse
            if factor > worst_factor:
                worst_factor = factor
                worst_probe = float(x0)
    passed = worst_factor <= _HOLDER_GROWTH_LIMIT
    return ConditionCheck(
        "coefficient_smoothness",
        passed,
        _HOLDER_GROWTH_LIMIT - worst_factor,
        worst_probe,
        fitted_constant=max_ratio,
        detail=f"nu={nu}, refinement growth {worst_factor:.3f}",
    )


def _fitted_check(name, ratios, probes, detail) -> ConditionCheck:
    ratios = np.asarray(ratios, dtype=float)
    if ratios.size == 0 or np.all(ratios <= 1e-14):
        return ConditionCheck(name, True, math.inf, None, fitted_constant=0.0, detail=detail)
    med = float(np.median(ratios))
    mx = float(np.max(ratios))
    worst = float(probes[int(np.argmax(ratios))])
    passed = med > 0 and mx <= 10.0 * med
    margin = 10.0 * med - mx
    return ConditionCheck(name, passed, margin, worst, fitted_constant=mx, detail=detail)


# ---------------------------------------------------------------------------
# invariant density (1D)
# ---------------------------------------------------------------------------

_LOG_CUTOFF = 760.0  # exp() fully underflows below max - cutoff
_LOG_CUTOFF_HALF_LINE_EDGE = 60.0  # boundary tails decay slowly in log-space
_DENSITY_PANELS = 4096  # panels of the exponent table on the working range
# a density (or a*pi) at or below this has underflowed: what it multiplies is
# rounding noise there, so such points are dropped or counted as 0
UNDERFLOW_FLOOR = 1e-300


@dataclass
class InvariantDensity1D:
    """Numerical invariant density pi on an interval or half-line support.

    The density is represented through a tabulated antiderivative of
    2 b/a in a working coordinate (log-space for half-line supports) and
    normalized by the composite Gauss-Legendre rule over the same node
    table.  ``cdf`` is the trapezoid CDF on those nodes, which
    :meth:`sample` inverts and the gradient-form decay screen reads.

    pi is evaluated once at the node table ``z_nodes`` and once at the
    rule points of its panels, where :meth:`expectation` integrates; both
    point sets and their values are stored read-only, and :meth:`density`
    returns the stored values when it is handed one of the two point
    arrays itself (an identity check, so a copy is evaluated afresh, to the
    same bits).
    """

    support: tuple
    anchor: float
    normalizer: float
    _log_un: Callable = field(repr=False)
    _w_of_z: Callable = field(repr=False)
    _z_of_w: Callable = field(repr=False)
    _dz_dw: Callable = field(repr=False)
    _w_nodes: np.ndarray = field(repr=False)
    _log_shift: float = 0.0
    cdf: np.ndarray = field(init=False, repr=False)
    z_nodes: np.ndarray = field(init=False, repr=False)
    _panel_z: np.ndarray = field(init=False, repr=False)  # the rule points of the panels, in z
    _stored: tuple = field(init=False, repr=False, default=())  # (points, pi) pairs

    def __post_init__(self):
        self.z_nodes = self._z_of_w(self._w_nodes)
        self._panel_z = self._z_of_w(panel_points(self._w_nodes))
        stored = []
        for z in (self.z_nodes, self._panel_z):
            pi = self.density(z)
            z.flags.writeable = pi.flags.writeable = False
            stored.append((z, pi))
        self._stored = tuple(stored)
        pdf_w = self.density(self.z_nodes) * self._dz_dw(self._w_nodes)
        c = np.concatenate(([0.0], np.cumsum(0.5 * (pdf_w[1:] + pdf_w[:-1]) * np.diff(self._w_nodes))))
        self.cdf = c / c[-1]

    def density(self, z):
        z = np.asarray(z, dtype=float)
        for points, pi in self._stored:
            if z is points:
                return pi
        lo, hi = self.support
        inside = (z > lo) & (z < hi)
        out = np.zeros_like(z)
        if np.any(inside):
            out[inside] = self.normalizer * np.exp(self._log_un(z[inside]) - self._log_shift)
        return out if out.ndim else float(out)

    def expectation(self, g: Callable) -> float:
        # fixed panel rule in the working coordinate, at the stored rule points
        z = self._panel_z
        dens = self.density(z)
        # dz/dw is computed per call, not held beside z and pi (256 KB a density)
        dz_dw = self._dz_dw(panel_points(self._w_nodes))
        with np.errstate(over="ignore", invalid="ignore"):
            v = np.asarray(g(z), dtype=float) * dens * dz_dw
        bad = ~np.isfinite(v)
        if np.any(bad & (dens > UNDERFLOW_FLOOR)):
            raise QuadratureError("integrand overflows where the density is positive")
        # the remaining non-finite points are noise against an underflowed tail
        return panel_sum(np.where(bad, 0.0, v), self._w_nodes)

    def sample(self, u):
        """Inverse-CDF transform of uniforms in (0,1) to pi-distributed states."""
        u = np.asarray(u, dtype=float)
        w = np.interp(u, self.cdf, self._w_nodes)
        return self._z_of_w(w)


def invariant_density_1d(model: SdeModel) -> InvariantDensity1D:
    """Compute the 1D invariant density pi ~ (1/a) exp(2 int b/a) numerically.

    The density lives on ``model.support``.  The cumulative exponent is
    tabulated on a working range grown outward until the unnormalized
    log-density has dropped far enough below its maximum for the tails to
    underflow; failure to decay raises :class:`NotPositiveRecurrentError`.
    """
    half_line = model.is_half_line
    if half_line:
        edge = model.support[0]
        w_of_z = lambda z: np.log(np.asarray(z, dtype=float) - edge)
        z_of_w = lambda w: edge + np.exp(np.asarray(w, dtype=float))
        dz_dw = lambda w: np.exp(np.asarray(w, dtype=float))
    else:
        w_of_z = lambda z: np.asarray(z, dtype=float)
        z_of_w = lambda w: np.asarray(w, dtype=float)
        dz_dw = lambda w: np.ones_like(np.asarray(w, dtype=float))

    def exponent_integrand(w):
        z = z_of_w(w)
        return 2.0 * model.drift(z) / model.a(z) * dz_dw(w)

    p_lo, p_hi = model.probe_range
    w_lo, w_hi = float(w_of_z(p_lo)), float(w_of_z(p_hi))
    for attempt in range(80):
        table = Antiderivative(exponent_integrand, w_lo, w_hi, _DENSITY_PANELS)
        wn = table.nodes

        def log_un_w(w):
            z = z_of_w(w)
            return table.from_left(w) - np.log(model.a(z))

        vals = log_un_w(wn)
        m = float(np.max(vals))
        lo_cut = _LOG_CUTOFF_HALF_LINE_EDGE if half_line else _LOG_CUTOFF
        lo_ok = vals[0] <= m - lo_cut
        hi_ok = vals[-1] <= m - _LOG_CUTOFF
        # growing tails mean a divergent (non-normalizable) density
        if vals[2] < vals[0] - 1.0 or vals[-3] < vals[-1] - 1.0:
            raise NotPositiveRecurrentError("model not positive recurrent on support")
        if lo_ok and hi_ok:
            break
        span = w_hi - w_lo
        if not lo_ok:
            w_lo -= 0.5 * span
        if not hi_ok:
            w_hi += 0.5 * span
    else:
        raise NotPositiveRecurrentError("model not positive recurrent on support")

    i_max = int(np.argmax(vals))
    anchor = float(z_of_w(wn[i_max]))
    shift = m

    def log_un_z(z):
        return log_un_w(w_of_z(z))

    mass = panel_integral(lambda w: np.exp(log_un_w(w) - shift) * dz_dw(w), wn)
    if not (mass > 0.0) or not math.isfinite(mass):
        raise NotPositiveRecurrentError("model not positive recurrent on support")
    return InvariantDensity1D(
        support=model.support,
        anchor=anchor,
        normalizer=1.0 / mass,
        _log_un=log_un_z,
        _w_of_z=w_of_z,
        _z_of_w=z_of_w,
        _dz_dw=dz_dw,
        _w_nodes=wn,
        _log_shift=shift,
    )


# ---------------------------------------------------------------------------
# test functionals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FunctionalSpec:
    """A test functional f(t, x).

    ``value`` must be numpy-vectorized over the state argument; the
    analytic chain takes any such callable, and the Euler kernel a
    :class:`PolynomialFunctional`.
    ``time_homogeneous`` lets :func:`centralize` subtract one pi-mean
    rather than one per time; ``centralized`` marks a functional whose
    pi-mean has been subtracted, as the Poisson solver and the
    autocorrelation route require.
    """

    value: Callable
    time_homogeneous: bool = True
    centralized: bool = False
    name: str = "f"

    def __call__(self, t, x):
        return self.value(t, x)

    @classmethod
    def from_polynomial(cls, coeffs: Sequence[float], name: str = "poly") -> "FunctionalSpec":
        return cls(value=PolynomialFunctional(coeffs), name=name)


def _horner(coeffs: tuple, x):
    """sum coeffs[i] x^i in polyval's order, ``c[-1] + x*0`` and then
    ``c[i] + y*x``, so the values are polyval's to the bit without its
    validation."""
    x = np.asarray(x, dtype=float)
    y = x * 0.0
    y += coeffs[-1]
    for ci in coeffs[-2::-1]:
        y *= x
        y += ci
    return y


def _coefficient_tuple(coeffs) -> tuple:
    out = tuple(float(c) for c in coeffs)
    if not out:
        raise ValueError("a polynomial needs at least one coefficient")
    return out


@dataclass(frozen=True)
class Polynomial:
    """The coefficient x -> sum coeffs[i] x^i (the config's custom model)."""

    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _coefficient_tuple(self.coeffs))

    def __call__(self, x):
        return _horner(self.coeffs, x)


@dataclass(frozen=True)
class PolynomialFunctional:
    """The time-homogeneous functional f(t, x) = sum coeffs[i] x^i - c0.

    :func:`centralize` sets ``c0`` to the pi-mean.
    """

    coeffs: tuple
    c0: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _coefficient_tuple(self.coeffs))
        object.__setattr__(self, "c0", float(self.c0))

    def __call__(self, t, x):
        y = _horner(self.coeffs, x)
        y -= self.c0  # exact for c0 = 0, NaN payloads included
        return y


class CentralizationError(ModelError):
    pass


def centralize(f: FunctionalSpec, pi: InvariantDensity1D) -> FunctionalSpec:
    """Return f minus its pi-mean, so the estimator's limit is zero.

    Time-inhomogeneous functionals are re-centered per time slice, with
    the quadrature result cached by t.  Idempotent to within quadrature
    tolerance.
    """
    cache: dict = {}

    def mean_at(t: float) -> float:
        key = float(t)
        if key not in cache:
            try:
                cache[key] = pi.expectation(lambda z: f.value(key, z))
            except QuadratureError as exc:
                raise CentralizationError("f not pi-integrable") from exc
        return cache[key]

    if f.time_homogeneous:
        c0 = mean_at(0.0)
        if isinstance(f.value, PolynomialFunctional) and f.value.c0 == 0.0:
            # poly - 0 - c0 is poly - c0 to the bit
            value = replace(f.value, c0=c0)
        else:
            value = lambda t, x: f.value(t, x) - c0
    else:
        value = lambda t, x: f.value(t, x) - mean_at(t)

    return replace(f, value=value, centralized=True, name=f.name + "_centered")


# ---------------------------------------------------------------------------
# builtin families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConstantDiffusion:
    """The diffusion sigma(x) = sigma."""

    sigma: float

    def __call__(self, x):
        return np.full_like(np.asarray(x, dtype=float), self.sigma)


# The builtin coefficients as data: small frozen classes whose calls are
# the numpy expressions of each family, so models pickle and the Euler
# kernel can read them (all but Gompertz's own drift and diffusion, which
# it steps in log space as an OU drift and a constant diffusion).


@dataclass(frozen=True)
class OuDrift:
    """b(x) = (-kappa) * (x - mu)."""

    kappa: float
    mu: float

    def __call__(self, x):
        return -self.kappa * (np.asarray(x, dtype=float) - self.mu)


@dataclass(frozen=True)
class CirDrift:
    """b(x) = kappa * (mu - x)."""

    kappa: float
    mu: float

    def __call__(self, x):
        return self.kappa * (self.mu - np.asarray(x, dtype=float))


@dataclass(frozen=True)
class CirDiffusion:
    """sigma(x) = sigma * sqrt(max(x, 0)): Euler iterates may graze the boundary."""

    sigma: float

    def __call__(self, x):
        return self.sigma * np.sqrt(np.maximum(np.asarray(x, dtype=float), 0.0))


@dataclass(frozen=True)
class GompertzDrift:
    """b(x) = kappa * (mu - log x) * x."""

    kappa: float
    mu: float

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return self.kappa * (self.mu - np.log(x)) * x


@dataclass(frozen=True)
class LinearDiffusion:
    """sigma(x) = sigma * x."""

    sigma: float

    def __call__(self, x):
        return self.sigma * np.asarray(x, dtype=float)


@dataclass(frozen=True)
class PowerDrift:
    """b(x) = -sign(x) |x|^alpha."""

    alpha: float

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return -np.sign(x) * np.abs(x) ** self.alpha


OU = "ou"
CIR = "cir"
GOMPERTZ = "gompertz"
POWER_DRIFT = "power_drift"


def builtin_model(name: str, params: dict) -> SdeModel:
    """Construct one of the builtin model families with known metadata.

    Families: ``ou`` (kappa, mu, sigma), ``cir`` (kappa, mu, sigma;
    requires kappa*mu >= sigma^2/2), ``gompertz`` (kappa, mu, sigma;
    simulated through the log transform), ``power_drift`` (alpha, sigma).
    """
    name = name.lower()
    if name == OU:
        kappa, mu, sigma = params["kappa"], params["mu"], params["sigma"]
        if kappa <= 0 or sigma <= 0:
            raise ModelError("OU requires kappa > 0 and sigma > 0")
        radius = 2.0 * abs(mu)
        scale = max(1.0, radius)
        return SdeModel(
            drift=OuDrift(kappa, mu),
            diffusion=ConstantDiffusion(sigma),
            recurrence_alpha=1.0,
            recurrence_gamma=kappa if mu == 0 else kappa / 2.0,
            recurrence_radius=radius,
            holder_nu=1.0,
            drift_growth_alpha_bar=1.0,
            initial_state=params.get("x0", mu),
            name="ou",
            probe_range=(-5.0 * scale, 5.0 * scale),
        )
    if name == CIR:
        kappa, mu, sigma = params["kappa"], params["mu"], params["sigma"]
        if kappa * mu < sigma**2 / 2.0:
            raise FellerConditionError(
                f"Feller condition violated: kappa*mu = {kappa * mu} < sigma^2/2 = {sigma**2 / 2}"
            )
        scale = max(1.0, 2.0 * mu)
        lo, hi = 0.03 * scale, 5.0 * scale
        return SdeModel(
            drift=CirDrift(kappa, mu),
            diffusion=CirDiffusion(sigma),
            recurrence_alpha=1.0,
            recurrence_gamma=kappa / 2.0,
            recurrence_radius=2.0 * mu,
            holder_nu=0.5,
            drift_growth_alpha_bar=1.0,
            initial_state=params.get("x0", mu),
            name="cir",
            support=(0.0, math.inf),
            probe_range=(lo, hi),
        )
    if name == GOMPERTZ:
        kappa, mu, sigma = params["kappa"], params["mu"], params["sigma"]
        if kappa <= 0 or sigma <= 0:
            raise ModelError("Gompertz requires kappa > 0 and sigma > 0")
        log_mean = mu - sigma**2 / (2.0 * kappa)
        radius = math.exp(mu + 1.0)
        x0 = params.get("x0", math.exp(log_mean))
        return SdeModel(
            drift=GompertzDrift(kappa, mu),
            diffusion=LinearDiffusion(sigma),
            recurrence_alpha=1.0,
            recurrence_gamma=kappa,
            recurrence_radius=radius,
            holder_nu=1.0,  # of the log-space OU actually simulated
            drift_growth_alpha_bar=1.0,
            initial_state=x0,
            name="gompertz",
            support=(0.0, math.inf),
            probe_range=(0.2, max(2.0 * radius, 12.0)),
            sim_drift=OuDrift(kappa, log_mean),
            sim_diffusion=ConstantDiffusion(sigma),
            state_map=np.exp,
            sim_initial_state=math.log(x0),
        )
    if name == POWER_DRIFT:
        alpha = params["alpha"]
        sigma = params.get("sigma", math.sqrt(2.0))
        if alpha <= 0:
            raise ModelError("power_drift requires alpha > 0")
        return SdeModel(
            drift=PowerDrift(alpha),
            diffusion=ConstantDiffusion(sigma),
            recurrence_alpha=alpha,
            recurrence_gamma=1.0,
            recurrence_radius=0.0,
            holder_nu=min(alpha, 1.0),
            drift_growth_alpha_bar=min(alpha, 1.0),
            initial_state=params.get("x0", 0.0),
            name="power_drift",
            probe_range=(-5.0, 5.0),
        )
    raise ModelError(f"unknown model family: {name!r}")
