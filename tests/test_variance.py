import dataclasses
import math

import numpy as np
import pytest

from ergosim import euler
from ergosim.models import (FunctionalSpec, InvariantDensity1D, Polynomial, PolynomialFunctional,
                            PowerDrift, builtin_model, centralize, invariant_density_1d)
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
    f0 = FunctionalSpec(value=PolynomialFunctional([0.0]), centralized=True)
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
    (dict(n_paths=2000.0), "n_paths"),
    (dict(master_seed=1.5), "master_seed"),
    (dict(master_seed=-1), "master_seed"),
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


def _libm(fn):
    """``fn`` of :mod:`math` element by element: libm's results, as the
    Euler kernel's ``exp`` and ``pow``."""
    return np.vectorize(fn, otypes=[float])


def _autocorrelation_per_path(model, pi, f, t=0.0, horizon=10.0, n_paths=100_000,
                              dt=0.005, master_seed=0):
    """The autocorrelation route as a plain per-path reference: path ``i``
    steps on ``replicate_stream(master_seed, i)``, one step at a time, the
    paths in chunks of ``euler._SUM_ROWS``.  Each step's products are summed
    by ``np.cumsum`` within a chunk and the chunk sums by ``np.cumsum`` in
    chunk order, and each path's trapezoid integral of f is taken in two
    legs, up to the first step of the tail window and then the rest.
    A power drift takes libm's ``pow``, and Gompertz is stepped in log
    space and observed at libm's ``exp``, as the kernel does; the products
    at the tail window's start, which set only its standard error, take
    numpy's ``exp``, as the route does.  Returns ``M_f``, its standard
    error, the detail and the sums of products of each step."""
    n_steps = int(round(horizon / dt))
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=master_seed)))
    x = np.asarray(pi.sample(rng.random(n_paths)), dtype=float)
    drift = model.sim_drift or model.drift
    diff = model.sim_diffusion or model.diffusion
    if isinstance(drift, PowerDrift):
        drift = lambda y, alpha=drift.alpha: -np.sign(y) * _libm(math.pow)(np.abs(y), alpha)
    smap = model.state_map
    y0 = np.log(x) if smap is not None else x

    def observe(y_arr, exp=_libm(math.exp)):
        return np.asarray(f.value(t, exp(y_arr) if smap is not None else y_arr), dtype=float)

    f0 = f.value(t, x)
    s_grid = dt * np.arange(n_steps + 1)
    tail_idx = s_grid >= 0.75 * horizon
    i_tail = int(np.argmax(tail_idx))
    sq_dt = math.sqrt(dt)
    rows = euler._SUM_ROWS
    chunk_sums = np.empty((-(-n_paths // rows), n_steps))
    xi, prod_tail = np.empty(n_paths), np.empty(n_paths)
    for c, a in enumerate(range(0, n_paths, rows)):
        b = min(a + rows, n_paths)
        noise = np.array([euler.replicate_stream(master_seed, i).standard_normal(n_steps)
                          for i in range(a, b)])
        y, w = y0[a:b], f0[a:b]
        f_prev, legs = w, [np.zeros(b - a), np.zeros(b - a)]
        for k in range(1, n_steps + 1):
            y = y + drift(y) * dt + diff(y) * sq_dt * noise[:, k - 1]
            fs = observe(y)
            legs[k > i_tail] = legs[k > i_tail] + 0.5 * (f_prev + fs) * dt
            chunk_sums[c, k - 1] = np.cumsum(w * fs)[-1]
            if k == i_tail:
                prod_tail[a:b] = w * f.value(t, np.exp(y) if smap is not None else y)
            f_prev = fs
        xi[a:b] = legs[0] + legs[1]  # 0.0 + x is x: a leg never sums to -0.0
    corr_sum = np.zeros(n_steps + 1)
    corr_sum[0] = float(np.sum(f0 * f0))
    corr_sum[1:] = np.cumsum(chunk_sums, axis=0)[-1]
    se_tail = math.nan if i_tail == 0 else float(np.std(prod_tail, ddof=1)) / math.sqrt(n_paths)
    A = f0 * xi
    m_hat = 2.0 * float(np.mean(A))
    se = 2.0 * float(np.std(A, ddof=1)) / math.sqrt(n_paths)
    detail = {"horizon": horizon, "n_paths": n_paths, "dt": dt}
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
    return m_hat, se, detail, corr_sum


def _native_paths():
    """The native paths this CPU runs: both on an AVX-512 CPU."""
    return euler._NATIVE_PATHS if euler.NATIVE_PATH == "avx512" else ("portable",)


def _custom_model():
    # polynomial coefficients, as the config's custom family builds them
    ou = builtin_model("ou", dict(kappa=1.0, mu=0.0, sigma=SQRT2))
    return dataclasses.replace(ou, drift=Polynomial([0.2, -1.0, 0.0, -0.5]),
                               diffusion=Polynomial([1.0, 0.0, 0.1]), name="custom")


@pytest.mark.parametrize("family, kw", [
    # 300 steps in legs of 225 and 75
    ("ou", dict(n_paths=2000, horizon=3.0, dt=0.01)),
    ("cir", dict(n_paths=2000, horizon=3.0, dt=0.01)),
    ("gompertz", dict(n_paths=2000, horizon=3.0, dt=0.01)),
    # 513 chunks of partial sums, the last of 5 paths, over 5 steps
    ("ou", dict(n_paths=2**17 + 5, horizon=0.05, dt=0.01)),
    ("cir", dict(n_paths=2000, horizon=2.0, dt=0.01)),
    # f = x, no constant subtracted
    ("ou_identity", dict(n_paths=2000, horizon=3.0, dt=0.01)),
    ("custom", dict(n_paths=2000, horizon=3.0, dt=0.01)),
    ("power_drift", dict(n_paths=2000, horizon=3.0, dt=0.01)),
    # the fewest paths: one partial group of rows
    ("ou", dict(n_paths=2, horizon=3.0, dt=0.01)),
    ("gompertz", dict(n_paths=2, horizon=3.0, dt=0.01)),
    # one step, shorter than 3/4 of the horizon: the tail window starts at
    # s = 0, its standard error is NaN and the tail is left unresolved
    ("ou", dict(n_paths=2000, horizon=0.007, dt=0.005)),
    ("gompertz", dict(n_paths=2000, horizon=0.007, dt=0.005)),
    # the fewest paths, and libm's pow in the drift
    ("power_drift", dict(n_paths=2, horizon=3.0, dt=0.01)),
    # 34 chunks of partial sums, the last of 44 paths
    ("gompertz", dict(n_paths=2 * 4096 + 300, horizon=3.0, dt=0.01)),
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
        f = FunctionalSpec(value=PolynomialFunctional([0.0, 1.0]), centralized=True)
    else:
        m, pi, f, _ = ou_pipeline if family == "ou" else cir_pipeline
    sums = []
    run_rows = euler._run_rows

    def recorded(*args, **kwargs):
        out = run_rows(*args, **kwargs)
        sums.append(kwargs["corr"].copy())  # the leg's sums
        return out
    monkeypatch.setattr(euler, "_run_rows", recorded)
    got = mf_autocorrelation_form(m, pi, f, master_seed=3, **kw)
    m_hat, se, detail, corr_sum = _autocorrelation_per_path(m, pi, f, master_seed=3, **kw)
    assert got.values.tobytes() == np.array([m_hat]).tobytes()
    assert got.std_error.tobytes() == np.array([se]).tobytes()
    assert repr(got.detail) == repr(detail)
    assert np.concatenate(sums).tobytes() == corr_sum[1:].tobytes()


@pytest.mark.parametrize("family", ["ou", "cir", "custom"])
@pytest.mark.parametrize("n_paths", [2, 7, 8, 9, 128, 129, 4097, 20_000])
def test_autocorrelation_same_bits_at_every_thread_count(monkeypatch, ou_pipeline, cir_pipeline,
                                                         family, n_paths):
    # 1,000 steps in legs of 750 and 250, on 1, 2, 3 and 5 threads and on
    # each native path: each step's sum and the estimate are the per-path
    # reference's
    if family == "custom":
        m = _custom_model()
        pi = invariant_density_1d(m)
        f = centralize(FunctionalSpec.from_polynomial([0.0, 1.0]), pi)
    else:
        m, pi, f, _ = ou_pipeline if family == "ou" else cir_pipeline
    kw = dict(n_paths=n_paths, horizon=10.0, dt=0.01, master_seed=5)
    m_hat, se, detail, corr_sum = _autocorrelation_per_path(m, pi, f, **kw)
    sums = []
    run_rows = euler._run_rows

    def recorded(*args, **kwargs):
        out = run_rows(*args, **kwargs)
        sums.append(kwargs["corr"].copy())  # the leg's sums
        return out
    monkeypatch.setattr(euler, "_run_rows", recorded)
    lib = euler._native()
    for path in _native_paths():
        monkeypatch.setattr(lib, "euler_rows", getattr(lib, f"euler_rows_{path}"))
        for threads in (1, 2, 3, 5):
            sums.clear()
            got = mf_autocorrelation_form(m, pi, f, threads=threads, **kw)
            assert got.values.tobytes() == np.array([m_hat]).tobytes(), (path, threads)
            assert got.std_error.tobytes() == np.array([se]).tobytes(), (path, threads)
            assert repr(got.detail) == repr(detail), (path, threads)
            assert np.concatenate(sums).tobytes() == corr_sum[1:].tobytes(), (path, threads)


def test_autocorrelation_more_threads_than_cpus(ou_pipeline):
    # helpers that outnumber the CPUs still leave the one-thread bits, call
    # after call
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
def test_autocorrelation_fails_alike_at_every_thread_count(monkeypatch, ou_pipeline):
    # paths that run off to inf (5,000 paths, 15 steps before the tail
    # window) and an f whose square overflows: the same message at 1, 2, 3
    # and 5 threads and on each native path
    m, pi, f, _ = ou_pipeline
    cubic = dataclasses.replace(m, drift=Polynomial([0.0, 0.0, 0.0, -4.0]))
    huge = FunctionalSpec(value=PolynomialFunctional([0.0] * 300 + [1.0]), centralized=True)
    cases = [(cubic, f, dict(horizon=2.0, dt=0.1), r"^\d+ of 5000 autocorrelation paths are "
              r"not finite after step \d+ of 20:"),
             (m, huge, dict(horizon=0.5, dt=0.01), r"^the autocorrelation sums of f are not "
              r"finite at step 0 of 50: f overflows")]
    lib = euler._native()
    for model, func, kw, pattern in cases:
        messages = set()
        for path in _native_paths():
            monkeypatch.setattr(lib, "euler_rows", getattr(lib, f"euler_rows_{path}"))
            for threads in (1, 2, 3, 5):
                with pytest.raises(VarianceError, match=pattern) as exc:
                    mf_autocorrelation_form(model, pi, func, n_paths=5000, master_seed=0,
                                            threads=threads, **kw)
                messages.add(str(exc.value))
        assert len(messages) == 1, messages


def test_autocorrelation_raises_on_non_finite_paths(ou_pipeline):
    # a cubic drift that overshoots from |x| > sqrt(0.5 / dt) ~ 2.2 and
    # runs off to inf
    m, pi, f, _ = ou_pipeline
    bad = dataclasses.replace(m, drift=Polynomial([0.0, 0.0, 0.0, -4.0]))
    with pytest.raises(VarianceError, match=r"^\d+ of 1000 autocorrelation paths "
                       r"are not finite after step \d+ of 20:"):
        mf_autocorrelation_form(bad, pi, f, n_paths=1000, horizon=2.0, dt=0.1, master_seed=0)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_autocorrelation_raises_on_overflowing_f(ou_pipeline):
    # the paths stay finite but f(X_0)^2 = X_0^600 overflows wherever
    # |X_0| > 3.3: an error instead of returning inf
    m, pi, _, _ = ou_pipeline
    f = FunctionalSpec(value=PolynomialFunctional([0.0] * 300 + [1.0]), centralized=True)
    with pytest.raises(VarianceError, match=r"^the autocorrelation sums of f are not "
                       r"finite at step 0 of 50: f overflows"):
        mf_autocorrelation_form(m, pi, f, n_paths=2000, horizon=0.5, dt=0.01)


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
        centralized=True,
    )
    sol = solve_poisson_1d(m, pi, fast, 0.0, np.linspace(-4, 4, 41))
    with pytest.raises(VarianceError):
        mf_gradient_form(m, pi, sol)


# ------------------------------------------------------------- rate paths


def constant_curve(value):
    return CovarianceCurve(t_grid=np.array([0.0, 1.0]),
                           values=np.array([value, value]))


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
                            values=np.array([1.0, 2.0]))
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


def _analytic_chain(name, params):
    """pi's CDF, c0, u, u', u'', M_f and the control cost of f(x) = x."""
    m = builtin_model(name, params)
    pi = invariant_density_1d(m)
    f = centralize(FunctionalSpec.from_polynomial([0.0, 1.0]), pi)
    sol = solve_poisson_1d(m, pi, f, 0.0, m.default_probe_grid(81))
    mf = mf_gradient_form(m, pi, sol)
    path = rate_function(mf, [0.0, 0.4, 1.0], [0.0, 0.8, 1.5])
    cost = optimal_control(m, pi, sol, mf, path).l2_cost
    return dict(cdf=pi.cdf, c0=f.value.c0, u=sol.u, u_prime=sol.u_prime,
                u_double_prime=sol.u_double_prime, mf=mf.values, cost=cost)


@pytest.mark.parametrize("name, params", [
    ("ou", dict(kappa=1.0, mu=0.0, sigma=SQRT2)),
    ("cir", dict(kappa=1.0, mu=1.0, sigma=1.0)),
    ("gompertz", dict(kappa=1.0, mu=1.0, sigma=1.0)),
    ("power_drift", dict(alpha=1.5)),
])
def test_chain_has_the_bits_of_pi_evaluated_afresh(monkeypatch, name, params):
    stored = _analytic_chain(name, params)
    density = InvariantDensity1D.density
    # a copy is never one of the stored point arrays, so every call evaluates pi
    monkeypatch.setattr(InvariantDensity1D, "density",
                        lambda self, z: density(self, np.array(z, dtype=float)))
    fresh = _analytic_chain(name, params)
    for key, value in stored.items():
        assert np.asarray(value).tobytes() == np.asarray(fresh[key]).tobytes(), key
