"""Diffusion model definitions, structural-condition audits, and 1D invariant densities."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .quadrature import Antiderivative, QuadratureError, panel_integral


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
    """A diffusion dX = b(X)dt + sigma(X)dW with declared regularity metadata.

    ``drift`` and ``diffusion`` must be numpy-vectorized over the state for
    1D models.  ``sim_drift``/``sim_diffusion``/``state_map`` describe an
    alternative coordinate system in which the process is actually
    simulated (the geometric mean-reversion model is stepped in log space
    and mapped back through ``state_map``).
    """

    dim_state: int
    dim_noise: int
    drift: Callable
    diffusion: Callable
    recurrence_alpha: float
    recurrence_gamma: float
    recurrence_radius: float
    ellipticity_bounds: tuple
    holder_nu: float
    drift_growth_alpha_bar: float
    initial_state: np.ndarray
    name: str = "custom"
    support: tuple = (-math.inf, math.inf)
    probe_range: tuple = (-5.0, 5.0)
    sim_drift: Optional[Callable] = None
    sim_diffusion: Optional[Callable] = None
    state_map: Optional[Callable] = None
    sim_initial_state: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.dim_state < 1 or self.dim_noise < 1:
            raise ModelError("dimensions must be positive")
        if self.recurrence_gamma <= 0:
            raise ModelError("recurrence_gamma must be > 0")
        if not (0.0 < self.holder_nu <= 1.0):
            # nu = 0 admits no valid step schedule; rejected here.
            raise ModelError("holder_nu must lie in (0, 1]")
        l1, l2 = self.ellipticity_bounds
        if not (0.0 < l1 <= l2):
            raise ModelError("ellipticity bounds must satisfy 0 < lambda1 <= lambda2")
        object.__setattr__(
            self, "initial_state", np.atleast_1d(np.asarray(self.initial_state, dtype=float))
        )

    @property
    def is_half_line(self) -> bool:
        return math.isfinite(self.support[0])

    def a(self, x):
        """Squared diffusion a = sigma sigma^T (scalar form for 1D models)."""
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
    worst_probe: Optional[np.ndarray]
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


def _check_finite(name: str, value: np.ndarray, probe) -> None:
    if not np.all(np.isfinite(value)):
        raise ModelEvaluationError(f"{name} returned non-finite value at probe {probe}")


def validate_conditions(model: SdeModel, probe_grid: Sequence) -> ConditionReport:
    """Numerically audit the structural conditions on a finite probe grid.

    Checks, in order: the recurrence drift inequality, uniform
    ellipticity of sigma sigma^T, Hoelder continuity of the coefficients
    (fitted constant), and the drift growth bound (fitted constant).
    Fitted-constant checks fail only when the worst probe ratio exceeds
    10x the median ratio, i.e. when no single constant plausibly fits.
    """
    probes = np.asarray(probe_grid, dtype=float)
    if probes.size == 0:
        raise ModelError("probe grid must be nonempty")
    if probes.ndim == 1 and model.dim_state == 1:
        probes = probes[:, None]
    checks = []

    b_vals = np.empty_like(probes)
    a_mats = np.empty((len(probes), model.dim_state, model.dim_state))
    for i, x in enumerate(probes):
        xi = x[0] if model.dim_state == 1 else x
        b = np.atleast_1d(np.asarray(model.drift(xi), dtype=float))
        s = np.atleast_2d(np.asarray(model.diffusion(xi), dtype=float))
        _check_finite("drift", b, xi)
        _check_finite("diffusion", s, xi)
        b_vals[i] = b
        a_mats[i] = s @ s.T

    # recurrence: <x, b(x)> <= -gamma ||x||^(1+alpha) beyond radius B
    norms = np.linalg.norm(probes, axis=1)
    inner = np.einsum("ij,ij->i", probes, b_vals)
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
                probes[outer][worst],
                detail=f"gamma={model.recurrence_gamma}, alpha={model.recurrence_alpha}",
            )
        )
    else:
        checks.append(
            ConditionCheck(
                "recurrence_drift", True, math.inf, None, detail="no probes beyond radius"
            )
        )

    # ellipticity: smallest/largest eigenvalue of a over probes
    eigs = np.linalg.eigvalsh(a_mats)
    lam1 = float(eigs.min())
    lam2 = float(eigs.max())
    worst = probes[int(np.argmin(eigs[:, 0]))]
    checks.append(
        ConditionCheck(
            "uniform_ellipticity",
            lam1 > 1e-12,
            lam1,
            worst,
            detail=f"observed [{lam1:.4g}, {lam2:.4g}], declared {model.ellipticity_bounds}",
        )
    )

    # Hoelder continuity of b and sigma: the ratio |g(x)-g(y)| / |x-y|^nu
    # on a pair must stay bounded as the pair is refined; a ratio that
    # grows under subdivision means the declared exponent nu is too high.
    checks.append(_holder_check(model, probes))

    # drift growth: ||b|| <= B (1 + ||x||^alpha_bar)
    gr = np.linalg.norm(b_vals, axis=1) / (1.0 + norms**model.drift_growth_alpha_bar)
    checks.append(
        _fitted_check("drift_growth", gr, probes, f"alpha_bar={model.drift_growth_alpha_bar}")
    )
    return ConditionReport(checks)


_HOLDER_GROWTH_LIMIT = 1.8  # ratio inflation allowed under 4x pair refinement


def _holder_check(model: SdeModel, probes: np.ndarray) -> ConditionCheck:
    nu = model.holder_nu
    scalar = model.dim_state == 1

    def coeff_vals(x_flat):
        bs, ss = [], []
        for x in x_flat:
            xi = x[0] if scalar else x
            bs.append(np.atleast_1d(np.asarray(model.drift(xi), dtype=float)))
            ss.append(np.atleast_2d(np.asarray(model.diffusion(xi), dtype=float)))
        return np.asarray(bs), np.asarray(ss)

    pairs = []
    max_ratio = 0.0
    for i in range(len(probes) - 1):
        x0, x1 = probes[i], probes[i + 1]
        if np.allclose(x0, x1):
            continue
        pts = np.array([x0 + t * (x1 - x0) for t in (0.0, 0.25, 0.5, 0.75, 1.0)])
        b, s = coeff_vals(pts)
        full = float(np.linalg.norm(pts[-1] - pts[0]))
        quarter = full / 4.0
        for vals, axes in ((b, 1), (s, (1, 2))):
            # norm of the difference, not difference of norms: sign
            # changes in b must count as variation
            coarse = float(np.linalg.norm(vals[-1] - vals[0])) / full**nu
            fine = float(np.max(np.linalg.norm(np.diff(vals, axis=0), axis=axes))) / quarter**nu
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
                worst_probe = x0
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
    worst = probes[int(np.argmax(ratios[: len(probes)]))] if len(probes) else None
    passed = med > 0 and mx <= 10.0 * med
    margin = 10.0 * med - mx
    return ConditionCheck(name, passed, margin, worst, fitted_constant=mx, detail=detail)


# ---------------------------------------------------------------------------
# invariant density (1D)
# ---------------------------------------------------------------------------

_LOG_CUTOFF = 760.0  # exp() fully underflows below max - cutoff
_LOG_CUTOFF_HALF_LINE_EDGE = 60.0  # boundary tails decay slowly in log-space
# a density (or a*pi) at or below this has underflowed: what it multiplies is
# rounding noise there, so such points are dropped or counted as 0
UNDERFLOW_FLOOR = 1e-300


@dataclass
class InvariantDensity1D:
    """Numerical invariant density pi on an interval or half-line support.

    The density is represented through a tabulated antiderivative of
    2 b/a in a working coordinate (log-space for half-line supports) and
    normalized by the composite Gauss-Legendre rule over the same node
    table.
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
    _cdf: np.ndarray = field(default=None, repr=False)

    def density(self, z):
        z = np.asarray(z, dtype=float)
        lo, hi = self.support
        inside = (z > lo) & (z < hi)
        out = np.zeros_like(z)
        if np.any(inside):
            out[inside] = self.normalizer * np.exp(self._log_un(z[inside]) - self._log_shift)
        return out if out.ndim else float(out)

    def __call__(self, z):
        return self.density(z)

    @property
    def z_nodes(self) -> np.ndarray:
        return self._z_of_w(self._w_nodes)

    def expectation(self, g: Callable) -> float:
        # fixed panel rule in the working coordinate
        def gw(w):
            z = self._z_of_w(w)
            dens = self.density(z)
            with np.errstate(over="ignore", invalid="ignore"):
                v = np.asarray(g(z), dtype=float) * dens * self._dz_dw(w)
            bad = ~np.isfinite(v)
            if np.any(bad & (dens > UNDERFLOW_FLOOR)):
                raise QuadratureError("integrand overflows where the density is positive")
            # the remaining non-finite points are noise against an underflowed tail
            return np.where(bad, 0.0, v)

        return panel_integral(gw, self._w_nodes)

    def _ensure_cdf(self):
        if self._cdf is None:
            zn = self.z_nodes
            pdf_w = self.density(zn) * self._dz_dw(self._w_nodes)
            c = np.concatenate(([0.0], np.cumsum(0.5 * (pdf_w[1:] + pdf_w[:-1]) * np.diff(self._w_nodes))))
            self._cdf = c / c[-1]

    def sample(self, u):
        """Inverse-CDF transform of uniforms in (0,1) to pi-distributed states."""
        self._ensure_cdf()
        u = np.asarray(u, dtype=float)
        w = np.interp(u, self._cdf, self._w_nodes)
        return self._z_of_w(w)


def invariant_density_1d(
    model: SdeModel,
    support: Optional[tuple] = None,
    n_panels: int = 4096,
) -> InvariantDensity1D:
    """Compute the 1D invariant density pi ~ (1/a) exp(2 int b/a) numerically.

    The cumulative exponent is tabulated on a working range grown outward
    until the unnormalized log-density has dropped far enough below its
    maximum for the tails to underflow; failure to decay raises
    :class:`NotPositiveRecurrentError`.
    """
    if model.dim_state != 1:
        raise ModelError("invariant_density_1d requires dim_state == 1")
    support = support or model.support
    lo_s, hi_s = support
    half_line = math.isfinite(lo_s)
    if half_line:
        edge = lo_s
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
        table = Antiderivative(exponent_integrand, w_lo, w_hi, n_panels)
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
        support=support,
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
    """A test functional f(t, x) with growth metadata.

    ``value`` must be numpy-vectorized over the state argument.
    """

    value: Callable
    growth_p0: float
    modulus_q0: float = 0.0
    time_homogeneous: bool = True
    centralized: bool = False
    n_components: int = 1
    name: str = "f"

    def __call__(self, t, x):
        return self.value(t, x)

    @classmethod
    def from_polynomial(cls, coeffs: Sequence[float], name: str = "poly") -> "FunctionalSpec":
        c = np.asarray(coeffs, dtype=float)
        if c.size == 0:
            raise ValueError("a polynomial functional needs at least one coefficient")
        deg = max((i for i, v in enumerate(c) if v != 0.0), default=0)
        lead, rest = c[-1], c[-2::-1].tolist()

        def value(t, x):
            # Horner in polyval's order, c[-1] + x*0 then c[i] + y*x, so
            # the values are polyval's to the bit without its validation
            x = np.asarray(x, dtype=float)
            y = x * 0.0
            y += lead
            for ci in rest:
                y *= x
                y += ci
            return y

        return cls(value=value, growth_p0=float(deg), name=name)


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
        value = lambda t, x: f.value(t, x) - c0
    else:
        value = lambda t, x: f.value(t, x) - mean_at(t)

    return replace(f, value=value, centralized=True, name=f.name + "_centered")


# ---------------------------------------------------------------------------
# builtin families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConstantDiffusion:
    """The diffusion sigma(x) = sigma; the Euler kernel folds it into the noise."""

    sigma: float

    def __call__(self, x):
        return self.sigma * np.ones_like(np.asarray(x, dtype=float))


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
            dim_state=1,
            dim_noise=1,
            drift=lambda x: -kappa * (np.asarray(x, dtype=float) - mu),
            diffusion=ConstantDiffusion(sigma),
            recurrence_alpha=1.0,
            recurrence_gamma=kappa if mu == 0 else kappa / 2.0,
            recurrence_radius=radius,
            ellipticity_bounds=(sigma**2, sigma**2),
            holder_nu=1.0,
            drift_growth_alpha_bar=1.0,
            initial_state=np.array([params.get("x0", mu)]),
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
            dim_state=1,
            dim_noise=1,
            # sqrt clamped at 0: Euler iterates may graze the boundary
            drift=lambda x: kappa * (mu - np.asarray(x, dtype=float)),
            diffusion=lambda x: sigma * np.sqrt(np.maximum(np.asarray(x, dtype=float), 0.0)),
            recurrence_alpha=1.0,
            recurrence_gamma=kappa / 2.0,
            recurrence_radius=2.0 * mu,
            ellipticity_bounds=(sigma**2 * lo, sigma**2 * hi),
            holder_nu=0.5,
            drift_growth_alpha_bar=1.0,
            initial_state=np.array([params.get("x0", mu)]),
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
            dim_state=1,
            dim_noise=1,
            drift=lambda x: kappa * (mu - np.log(np.asarray(x, dtype=float))) * np.asarray(x, dtype=float),
            diffusion=lambda x: sigma * np.asarray(x, dtype=float),
            recurrence_alpha=1.0,
            recurrence_gamma=kappa,
            recurrence_radius=radius,
            ellipticity_bounds=(sigma**2 * 0.04, sigma**2 * (2.0 * radius) ** 2),
            holder_nu=1.0,  # of the log-space OU actually simulated
            drift_growth_alpha_bar=1.0,
            initial_state=np.array([x0]),
            name="gompertz",
            support=(0.0, math.inf),
            probe_range=(0.2, max(2.0 * radius, 12.0)),
            sim_drift=lambda y: -kappa * (np.asarray(y, dtype=float) - log_mean),
            sim_diffusion=ConstantDiffusion(sigma),
            state_map=np.exp,
            sim_initial_state=np.array([math.log(x0)]),
        )
    if name == POWER_DRIFT:
        alpha = params["alpha"]
        sigma = params.get("sigma", math.sqrt(2.0))
        if alpha <= 0:
            raise ModelError("power_drift requires alpha > 0")
        return SdeModel(
            dim_state=1,
            dim_noise=1,
            drift=lambda x: -np.sign(np.asarray(x, dtype=float))
            * np.abs(np.asarray(x, dtype=float)) ** alpha,
            diffusion=ConstantDiffusion(sigma),
            recurrence_alpha=alpha,
            recurrence_gamma=1.0,
            recurrence_radius=0.0,
            ellipticity_bounds=(sigma**2, sigma**2),
            holder_nu=min(alpha, 1.0),
            drift_growth_alpha_bar=min(alpha, 1.0),
            initial_state=np.array([params.get("x0", 0.0)]),
            name="power_drift",
            probe_range=(-5.0, 5.0),
        )
    raise ModelError(f"unknown model family: {name!r}")
