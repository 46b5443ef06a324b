import dataclasses
import math

import numpy as np
import pytest

from ergosim import euler, variance
from ergosim.models import (FunctionalSpec, Polynomial, PolynomialFunctional, builtin_model,
                            centralize, invariant_density_1d)
from ergosim.poisson1d import solve_poisson_1d
from ergosim.variance import (SingularCovarianceError, VarianceError,
                              CovarianceCurve, mf_autocorrelation_form,
                              mf_gradient_form, optimal_control, rate_function)

SQRT2 = math.sqrt(2.0)


@pytest.fixture(scope="module")
def ou_pipeline():
    m = builtin_model("ou", dict(kappa=1.0, mu=0.0, sigma=SQRT2))
    pi = invariant_density_1d(m)
    f = centralize(FunctionalSpec.from_polynomial([0.0, 1.0]), pi)
    sol = solve_poisson_1d(m, pi, f, 0.0, m.default_probe_grid(81))
    return m, pi, f, sol


@pytest.fixture(scope="module")
def cir_pipeline():
    m = builtin_model("cir", dict(kappa=1.0, mu=1.0, sigma=1.0))
    pi = invariant_density_1d(m)
    f = centralize(FunctionalSpec.from_polynomial([0.0, 1.0]), pi)
    sol = solve_poisson_1d(m, pi, f, 0.0, m.default_probe_grid(81))
    return m, pi, f, sol


def test_gradient_form_ou(ou_pipeline):
    m, pi, f, sol = ou_pipeline
    # u' = 1, a = 2: integral of 2 against pi
    mf = mf_gradient_form(m, pi, sol)
    assert abs(mf.values[0] - 2.0) < 1e-8


@pytest.mark.filterwarnings("ignore:dropping .* grid points where a\\*pi underflows")
@pytest.mark.parametrize("mu", [2.0, 5.0, 10.0, -10.0])
@pytest.mark.parametrize("kappa,sigma", [(1.0, 1.0), (0.1, 0.3), (10.0, 3.0)])
def test_gradient_form_ou_off_centre(mu, kappa, sigma):
    # a mean several stationary SDs from 0: the Poisson solve switches tail
    # forms at the density's anchor, and the expectation counts the 0/0
    # noise of u' where the density has underflowed as 0
    m = builtin_model("ou", dict(kappa=kappa, mu=mu, sigma=sigma))
    pi = invariant_density_1d(m)
    f = centralize(FunctionalSpec.from_polynomial([0.0, 1.0]), pi)
    sol = solve_poisson_1d(m, pi, f, 0.0, m.default_probe_grid(81))
    mf = mf_gradient_form(m, pi, sol).values[0]
    assert abs(mf / (sigma**2 / kappa**2) - 1.0) < 1e-8


def test_gradient_form_cir(cir_pipeline):
    m, pi, f, sol = cir_pipeline
    # u' = 1, a = x, Gamma(2,2) mean 1: M_f = 1
    mf = mf_gradient_form(m, pi, sol)
    assert abs(mf.values[0] - 1.0) < 1e-8


def test_gradient_form_scaling(ou_pipeline):
    # replacing f by c*f scales M_f by c^2 (u scales linearly)
    m, pi, f, sol = ou_pipeline
    c = 3.0
    fc = centralize(FunctionalSpec.from_polynomial([0.0, c]), pi)
    solc = solve_poisson_1d(m, pi, fc, 0.0, m.default_probe_grid(81))
    m1 = mf_gradient_form(m, pi, sol).values[0]
    m2 = mf_gradient_form(m, pi, solc).values[0]
    assert abs(m2 - c * c * m1) < 1e-6


def test_autocorrelation_ou(ou_pipeline):
    m, pi, f, _ = ou_pipeline
    mf = mf_autocorrelation_form(m, pi, f, n_paths=30_000, horizon=10.0, master_seed=1)
    assert abs(mf.values[0] - 2.0) < max(0.05 * 2.0, 3.0 * mf.std_error[0])


def test_autocorrelation_zero_functional(ou_pipeline):
    m, pi, _, _ = ou_pipeline
    f0 = FunctionalSpec(value=lambda t, x: np.zeros_like(np.asarray(x, float)),
                        growth_p0=0.0, centralized=True)
    mf = mf_autocorrelation_form(m, pi, f0, n_paths=500, horizon=2.0, master_seed=1)
    assert mf.values[0] == 0.0
    assert mf.std_error[0] == 0.0


def test_autocorrelation_requires_centralized(ou_pipeline):
    m, pi, _, _ = ou_pipeline
    with pytest.raises(VarianceError, match="centralized"):
        mf_autocorrelation_form(m, pi, FunctionalSpec.from_polynomial([1.0, 1.0]))


@pytest.mark.parametrize("kw, name", [
    (dict(n_paths=0), "n_paths"),
    (dict(n_paths=1), "n_paths"),
    (dict(horizon=-1.0), "horizon"),
    (dict(horizon=0.0), "horizon"),
    (dict(horizon=0.004), "horizon"),  # below dt = 0.005: zero steps
    (dict(horizon=math.nan), "horizon"),
    (dict(horizon=math.inf), "horizon"),
    (dict(dt=0.0), "dt"),
    (dict(dt=-0.005), "dt"),
    (dict(dt=math.nan), "dt"),
    (dict(threads=0), "threads"),
    (dict(threads=-2), "threads"),
    (dict(threads=2.0), "threads"),
    (dict(threads="2"), "threads"),
])
def test_autocorrelation_rejects_bad_arguments(ou_pipeline, kw, name):
    m, pi, f, _ = ou_pipeline
    with pytest.raises(VarianceError, match=f"^{name} must be"):
        mf_autocorrelation_form(m, pi, f, **{"n_paths": 100, **kw})


def test_autocorrelation_accepts_smallest_arguments(ou_pipeline):
    m, pi, f, _ = ou_pipeline
    mf = mf_autocorrelation_form(m, pi, f, n_paths=2, horizon=0.005)
    assert np.isfinite(mf.values[0]) and np.isfinite(mf.std_error[0])


@pytest.mark.parametrize("family, seed", [("cir", 13), ("ou", 38)])
def test_autocorrelation_skips_unresolved_tail(ou_pipeline, cir_pipeline, family, seed):
    # at these seeds the noise in the last quarter of the horizon used to be
    # fitted as a slow exponential tail and push the estimate off by 0.24-2.1
    m, pi, f, sol = ou_pipeline if family == "ou" else cir_pipeline
    grad = mf_gradient_form(m, pi, sol).values[0]
    auto = mf_autocorrelation_form(m, pi, f, n_paths=20_000, horizon=10.0, dt=0.005,
                                   master_seed=seed)
    assert auto.detail["tail_resolved"] is False
    assert auto.detail["tail_correction"] == 0.0
    assert abs(auto.values[0] - grad) <= max(0.05 * grad, 3.0 * auto.std_error[0])


@pytest.mark.parametrize("family", ["ou", "cir"])
def test_autocorrelation_short_horizon_still_corrected(ou_pipeline, cir_pipeline, family):
    # at horizon 2 the correlation e^{-s} is still well above the noise
    m, pi, f, _ = ou_pipeline if family == "ou" else cir_pipeline
    auto = mf_autocorrelation_form(m, pi, f, n_paths=20_000, horizon=2.0, dt=0.005,
                                   master_seed=0)
    assert auto.detail["tail_resolved"] is True
    assert auto.detail["tail_correction"] > 0.0
    assert 0.8 < auto.detail["fitted_decay_rate"] < 1.25


def _autocorrelation_per_step(model, pi, f, t=0.0, horizon=10.0, n_paths=100_000,
                              dt=0.005, master_seed=0, tail_extrapolate=True):
    """The autocorrelation route as a plain per-step loop: one
    ``standard_normal(n_paths)`` call and one full Euler update per step.
    Returns ``M_f``, its standard error, the detail, the sums of products
    of each step and the stream's row state after the last step."""
    n_steps = int(round(horizon / dt))
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=master_seed)))
    x = np.asarray(pi.sample(rng.random(n_paths)), dtype=float)
    drift = model.sim_drift or model.drift
    diff = model.sim_diffusion or model.diffusion
    smap = model.state_map
    y = np.log(x) if smap is not None else x

    def observe(y_arr):
        return np.asarray(f.value(t, smap(y_arr) if smap is not None else y_arr), dtype=float)

    f0 = observe(y)
    acc = 0.5 * f0
    s_grid = dt * np.arange(n_steps + 1)
    tail_idx = s_grid >= 0.75 * horizon
    i_tail = int(np.argmax(tail_idx))
    corr_sum = np.zeros(n_steps + 1)
    corr_sum[0] = float(np.sum(f0 * f0))
    se_tail = math.nan
    sq_dt = math.sqrt(dt)
    for k in range(1, n_steps + 1):
        xi = rng.standard_normal(n_paths)
        y = y + drift(y) * dt + diff(y) * sq_dt * xi
        fs = observe(y)
        acc += fs if k < n_steps else 0.5 * fs
        corr_sum[k] = float(np.sum(f0 * fs))
        if k == i_tail:
            se_tail = float(np.std(f0 * fs, ddof=1)) / math.sqrt(n_paths)
    A = f0 * acc * dt
    m_hat = 2.0 * float(np.mean(A))
    se = 2.0 * float(np.std(A, ddof=1)) / math.sqrt(n_paths)
    detail = {"horizon": horizon, "n_paths": n_paths, "dt": dt}
    if tail_extrapolate:
        g = corr_sum / n_paths
        gt = g[tail_idx]
        pos = gt > 0
        resolved = bool(g[i_tail] > 3.0 * se_tail)
        detail["tail_resolved"] = resolved
        if resolved and np.sum(pos) >= 10:
            slope, icpt = np.polyfit(s_grid[tail_idx][pos], np.log(gt[pos]), 1)
            if slope < 0:
                c_end = math.exp(icpt + slope * horizon)
                tail = 2.0 * c_end / (-slope)
                detail["tail_correction"] = tail
                detail["fitted_decay_rate"] = -slope
                m_hat += tail
                if abs(tail) > 0.01 * abs(m_hat):
                    detail["warning"] = "horizon too short: tail correction above 1% of estimate"
        else:
            detail["tail_correction"] = 0.0
    return m_hat, se, detail, corr_sum, euler._philox_row(rng.bit_generator)


def _custom_model():
    # polynomial coefficients, as the config's custom family builds them
    ou = builtin_model("ou", dict(kappa=1.0, mu=0.0, sigma=SQRT2))
    return dataclasses.replace(ou, drift=Polynomial([0.2, -1.0, 0.0, -0.5]),
                               diffusion=Polynomial([1.0, 0.0, 0.1]), name="custom")


@pytest.mark.parametrize("family, kw", [
    # 300 steps in blocks of 131: the last block is short
    ("ou", dict(n_paths=2000, horizon=3.0, dt=0.01)),
    ("cir", dict(n_paths=2000, horizon=3.0, dt=0.01)),
    ("gompertz", dict(n_paths=2000, horizon=3.0, dt=0.01)),
    # more paths than one block of products holds: one step per block
    ("ou", dict(n_paths=2**17 + 5, horizon=0.05, dt=0.01)),
    ("cir", dict(n_paths=2000, horizon=2.0, dt=0.01, tail_extrapolate=False)),
    # f returns its own input array: the step must not write into it
    ("ou_identity", dict(n_paths=2000, horizon=3.0, dt=0.01)),
    ("custom", dict(n_paths=2000, horizon=3.0, dt=0.01)),
    ("power_drift", dict(n_paths=2000, horizon=3.0, dt=0.01)),
    # the fewest paths: one partial vector, and all 300 steps in one block
    ("ou", dict(n_paths=2, horizon=3.0, dt=0.01)),
    ("gompertz", dict(n_paths=2, horizon=3.0, dt=0.01)),
    # one step, shorter than 3/4 of the horizon: the tail window starts at
    # s = 0, its standard error is NaN and the tail is left unresolved
    ("ou", dict(n_paths=2000, horizon=0.007, dt=0.005)),
    ("gompertz", dict(n_paths=2000, horizon=0.007, dt=0.005)),
])
def test_autocorrelation_matches_per_step_loop(monkeypatch, ou_pipeline, cir_pipeline,
                                               family, kw):
    if family in ("gompertz", "power_drift", "custom"):
        m = (_custom_model() if family == "custom" else builtin_model(
            family, dict(kappa=1.0, mu=0.5, sigma=0.5) if family == "gompertz"
            else dict(alpha=1.5)))
        pi = invariant_density_1d(m)
        f = centralize(FunctionalSpec.from_polynomial([0.0, 1.0]), pi)
    elif family == "ou_identity":
        m, pi, _, _ = ou_pipeline
        f = FunctionalSpec(value=lambda t, x: x, growth_p0=1.0, centralized=True)
    else:
        m, pi, f, _ = ou_pipeline if family == "ou" else cir_pipeline
    # the numpy loop draws each step's normals from the native fill; the
    # native call fills its own
    fills = []
    fill = euler._philox_normals
    monkeypatch.setattr(euler, "_philox_normals", lambda state, out: (fills.append(out.shape),
                                                                       fill(state, out)))
    got = mf_autocorrelation_form(m, pi, f, master_seed=3, **kw)
    n_steps = int(round(kw["horizon"] / kw["dt"]))
    native = family in ("ou", "cir", "custom")  # OU, CIR, Polynomial and a polynomial f
    assert fills == ([] if native else [(1, kw["n_paths"])] * n_steps)
    m_hat, se, detail, _, _ = _autocorrelation_per_step(m, pi, f, master_seed=3, **kw)
    assert got.values.tobytes() == np.array([m_hat]).tobytes()
    assert got.std_error.tobytes() == np.array([se]).tobytes()
    assert repr(got.detail) == repr(detail)


@pytest.mark.parametrize("family", ["ou", "cir", "custom"])
@pytest.mark.parametrize("n_paths", [2, 7, 8, 9, 128, 129, 4097, 20_000])
def test_autocorrelation_same_bits_at_every_thread_count(monkeypatch, ou_pipeline, cir_pipeline,
                                                         family, n_paths):
    # 1,000 steps in calls of 750 and 250: from 129 paths up a call splits
    # its paths and its normals across 2 or 3 threads, and each step's sum,
    # the estimate and the stream state after the route are the per-step
    # loop's at every thread count
    if family == "custom":
        m = _custom_model()
        pi = invariant_density_1d(m)
        f = centralize(FunctionalSpec.from_polynomial([0.0, 1.0]), pi)
    else:
        m, pi, f, _ = ou_pipeline if family == "ou" else cir_pipeline
    kw = dict(n_paths=n_paths, horizon=10.0, dt=0.01, master_seed=5)
    m_hat, se, detail, corr_sum, row = _autocorrelation_per_step(m, pi, f, **kw)
    seen = []
    route = variance._native_route

    def recorded(lib, spec, state, y, f0, acc, corr, *args):
        out = route(lib, spec, state, y, f0, acc, corr, *args)
        seen.append((corr.copy(), state[0].copy()))
        return out
    monkeypatch.setattr(variance, "_native_route", recorded)
    for threads in (1, 2, 3):
        got = mf_autocorrelation_form(m, pi, f, threads=threads, **kw)
        assert got.values.tobytes() == np.array([m_hat]).tobytes(), threads
        assert got.std_error.tobytes() == np.array([se]).tobytes(), threads
        assert repr(got.detail) == repr(detail), threads
        assert seen[-1][0].tobytes() == corr_sum.tobytes(), threads
        assert seen[-1][1].tobytes() == row.tobytes(), threads


def test_autocorrelation_more_threads_than_cpus(ou_pipeline):
    # helpers that outnumber the CPUs and miss their turns still leave the
    # one-thread bits, call after call
    m, pi, f, _ = ou_pipeline
    kw = dict(n_paths=4097, horizon=10.0, dt=0.01, master_seed=9)
    want = mf_autocorrelation_form(m, pi, f, threads=1, **kw)
    for threads in (5, 8, 5, 8):
        got = mf_autocorrelation_form(m, pi, f, threads=threads, **kw)
        assert got.values.tobytes() == want.values.tobytes(), threads
        assert got.std_error.tobytes() == want.std_error.tobytes(), threads
        assert repr(got.detail) == repr(want.detail), threads


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_autocorrelation_fails_alike_at_every_thread_count(ou_pipeline):
    # paths that run off to inf in a split call (5,000 paths, 15 steps
    # before the tail window) and an f whose square overflows: the same
    # message at 1, 2 and 3 threads
    m, pi, f, _ = ou_pipeline
    cubic = dataclasses.replace(m, drift=Polynomial([0.0, 0.0, 0.0, -4.0]))
    huge = FunctionalSpec(value=PolynomialFunctional([0.0] * 300 + [1.0]), growth_p0=300.0,
                          centralized=True)
    cases = [(cubic, f, dict(horizon=2.0, dt=0.1), r"^\d+ of 5000 autocorrelation paths are "
              r"not finite after step \d+ of 20:"),
             (m, huge, dict(horizon=0.5, dt=0.01), r"^the autocorrelation sums of f are not "
              r"finite at step 0 of 50: f overflows")]
    for model, func, kw, pattern in cases:
        messages = set()
        for threads in (1, 2, 3):
            with pytest.raises(VarianceError, match=pattern) as exc:
                mf_autocorrelation_form(model, pi, func, n_paths=5000, master_seed=0,
                                        threads=threads, **kw)
            messages.add(str(exc.value))
        assert len(messages) == 1, messages


def test_autocorrelation_raises_on_non_finite_paths(ou_pipeline):
    # a cubic drift that overshoots from |x| > sqrt(0.5 / dt) ~ 2.2 and
    # runs off to inf: the native call (a Polynomial drift) and the numpy
    # loop (the same drift as a callable) stop at the same step
    m, pi, f, _ = ou_pipeline
    cubic = Polynomial([0.0, 0.0, 0.0, -4.0])
    messages = []
    for drift in (cubic, lambda x: cubic(x)):
        bad = dataclasses.replace(m, drift=drift)
        with pytest.raises(VarianceError, match=r"^\d+ of 1000 autocorrelation paths "
                           r"are not finite after step \d+ of 20:") as exc:
            mf_autocorrelation_form(bad, pi, f, n_paths=1000, horizon=2.0, dt=0.1,
                                    master_seed=0)
        messages.append(str(exc.value))
    assert messages[0] == messages[1]


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_autocorrelation_raises_on_overflowing_f(ou_pipeline):
    # the paths stay finite but f(X_0)^2 = X_0^600 overflows wherever
    # |X_0| > 3.3: the native call (a polynomial f) and the numpy loop (the
    # same f as a callable) raise the same error instead of returning inf
    m, pi, _, _ = ou_pipeline
    poly = PolynomialFunctional([0.0] * 300 + [1.0])
    messages = []
    for value, native in ((poly, True), (lambda t, x: poly(t, x), False)):
        f = FunctionalSpec(value=value, growth_p0=300.0, centralized=True)
        assert euler._runs_native(m, f) is native
        with pytest.raises(VarianceError, match=r"^the autocorrelation sums of f are not "
                           r"finite at step 0 of 50: f overflows") as exc:
            mf_autocorrelation_form(m, pi, f, n_paths=2000, horizon=0.5, dt=0.01)
        messages.append(str(exc.value))
    assert messages[0] == messages[1]


def test_cross_route_agreement_quadratic(ou_pipeline):
    # f = x^2 - 1: autocorrelation route must agree with the gradient route
    m, pi, _, _ = ou_pipeline
    f2 = centralize(FunctionalSpec.from_polynomial([0.0, 0.0, 1.0]), pi)
    sol2 = solve_poisson_1d(m, pi, f2, 0.0, m.default_probe_grid(81))
    grad = mf_gradient_form(m, pi, sol2).values[0]
    auto = mf_autocorrelation_form(m, pi, f2, n_paths=30_000, horizon=10.0,
                                   master_seed=2)
    assert abs(auto.values[0] - grad) < max(0.05 * grad, 3.0 * auto.std_error[0])


def test_gradient_tail_guard(ou_pipeline):
    # growth too fast for the working range: integrand alive at the edges
    m, pi, _, _ = ou_pipeline
    fast = FunctionalSpec(
        value=lambda t, x: np.exp(0.26 * np.asarray(x, float) ** 2) - 6.7114,
        growth_p0=2.0, centralized=True,
    )
    sol = solve_poisson_1d(m, pi, fast, 0.0, np.linspace(-4, 4, 41))
    with pytest.raises(VarianceError):
        mf_gradient_form(m, pi, sol)


# ------------------------------------------------------------- rate paths


def constant_curve(value):
    return CovarianceCurve(t_grid=np.array([0.0, 1.0]),
                           values=np.array([value, value]), method="test")


def test_rate_closed_form():
    path = rate_function(constant_curve(2.0), [0.0, 1.0], [0.0, 1.5])
    assert abs(path.rate - 1.5**2 / 4.0) < 1e-14


def test_rate_piecewise():
    # slopes +-1 on half-length segments, M = 2:
    # I = (1/2)(1/2 * 0.5 + 1/2 * 0.5) = 1/4
    path = rate_function(constant_curve(2.0), [0.0, 0.5, 1.0], [0.0, 0.5, 0.0])
    assert abs(path.rate - 0.25) < 1e-14


def test_rate_nonnegative_zero_iff_flat():
    assert rate_function(constant_curve(1.0), [0.0, 1.0], [0.0, 0.0]).rate == 0.0
    assert rate_function(constant_curve(1.0), [0.0, 0.3, 1.0], [0.0, 0.1, 0.0]).rate > 0


def test_rate_scaling_in_path():
    # quadratic form: doubling the path quadruples the action
    base = rate_function(constant_curve(2.0), [0.0, 1.0], [0.0, 1.0]).rate
    quad = rate_function(constant_curve(2.0), [0.0, 1.0], [0.0, 2.0]).rate
    assert abs(quad - 4.0 * base) < 1e-12


def test_rate_varying_covariance_log_form():
    # M(s) = 1 + s on [0,1], slope 1: I = (1/2) ln 2
    curve = CovarianceCurve(t_grid=np.array([0.0, 1.0]),
                            values=np.array([1.0, 2.0]), method="test")
    path = rate_function(curve, [0.0, 1.0], [0.0, 1.0])
    assert abs(path.rate - 0.5 * math.log(2.0)) < 1e-12


def test_rate_path_validation():
    with pytest.raises(VarianceError, match="start at 0"):
        rate_function(constant_curve(1.0), [0.0, 1.0], [0.5, 1.0])
    with pytest.raises(VarianceError, match="strictly increasing"):
        rate_function(constant_curve(1.0), [0.0, 0.0], [0.0, 1.0])


def test_singular_covariance_rejected():
    with pytest.raises(SingularCovarianceError):
        rate_function(constant_curve(0.0), [0.0, 1.0], [0.0, 1.0])


# -------------------------------------------------------- optimal control


def test_control_cost_identity_ou(ou_pipeline):
    m, pi, f, sol = ou_pipeline
    mf = mf_gradient_form(m, pi, sol)
    path = rate_function(mf, [0.0, 0.4, 1.0], [0.0, 0.8, 1.5])
    ctrl = optimal_control(m, pi, sol, mf, path)
    assert abs(ctrl.l2_cost - 2.0 * path.rate) / (2.0 * path.rate) < 1e-3


def test_control_cost_identity_cir(cir_pipeline):
    m, pi, f, sol = cir_pipeline
    mf = mf_gradient_form(m, pi, sol)
    path = rate_function(mf, [0.0, 1.0], [0.0, 1.0])
    ctrl = optimal_control(m, pi, sol, mf, path)
    assert abs(ctrl.l2_cost - 2.0 * path.rate) / (2.0 * path.rate) < 1e-3


def test_control_feedback_shape(ou_pipeline):
    m, pi, f, sol = ou_pipeline
    mf = mf_gradient_form(m, pi, sol)
    path = rate_function(mf, [0.0, 1.0], [0.0, 1.0])
    ctrl = optimal_control(m, pi, sol, mf, path)
    # psi = sigma u' xi_dot / M = sqrt(2)*1*1/2 everywhere for OU f=x
    val = ctrl.psi(np.array([0.3]), 0.5)
    assert abs(float(val[0]) - SQRT2 / 2.0) < 1e-8


def test_curve_json_roundtrip(tmp_path, ou_pipeline):
    import json
    m, pi, f, sol = ou_pipeline
    mf = mf_gradient_form(m, pi, sol)
    p = tmp_path / "mf.json"
    mf.to_json(str(p))
    data = json.loads(p.read_text())
    assert data["method"] == "gradient_form"
    assert abs(data["values"][0] - 2.0) < 1e-8
