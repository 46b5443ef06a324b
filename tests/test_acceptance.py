"""End-to-end acceptance suite.

One test per shipped guarantee, each printing a single pass/fail line
with its measured figure and runtime.  These run the full pipelines at
the stated scales, so the module takes minutes, not seconds.
"""

import json
import math
import time

import numpy as np
import pytest
from numpy.polynomial.hermite_e import hermeval

from ergosim import euler
from ergosim.cli import main as cli_main
from ergosim.euler import SchedulePolicy
from ergosim.harness import (ExperimentSpec, mdp_closed_form_rate,
                             run_clt_normality, run_lln_rate, run_mdp_tail)
from ergosim.models import (FunctionalSpec, builtin_model, centralize,
                            invariant_density_1d)
from ergosim.poisson1d import (audit_mdp_exponents, exponents_from_solution,
                               solve_poisson_1d)
from ergosim.variance import (mf_autocorrelation_form, mf_gradient_form,
                              CovarianceCurve, optimal_control, rate_function)

SQRT2 = math.sqrt(2.0)


@pytest.fixture(scope="module", autouse=True)
def native_library():
    # the density's table queries and the simulators run in the native
    # library: its one-time compile on a cold cache is no criterion's runtime
    euler._native()


@pytest.fixture
def criterion(capsys):
    def _check(n, ok, msg):
        with capsys.disabled():
            print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {msg}", flush=True)
        assert ok, f"criterion {n}: {msg}"
    return _check


def ou_model():
    return builtin_model("ou", dict(kappa=1.0, mu=0.0, sigma=SQRT2))


def cir_model():
    return builtin_model("cir", dict(kappa=1.0, mu=1.0, sigma=1.0))


def hermite_functional(k):
    c = np.zeros(k + 1)
    c[k] = 1.0
    return FunctionalSpec(
        value=lambda t, x, c=c: hermeval(np.asarray(x, dtype=float), c),
        growth_p0=float(k), centralized=True, name=f"He{k}",
    )


def test_criterion_1_invariant_density_oracles(criterion):
    cases = [
        (ou_model(),
         lambda z: np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)),
        (cir_model(),
         lambda z: 4.0 * z * np.exp(-2.0 * z)),
        (builtin_model("gompertz", dict(kappa=1.0, mu=1.0, sigma=1.0)),
         lambda z: np.exp(-((np.log(z) - 0.5) ** 2)) / (z * math.sqrt(math.pi))),
    ]
    worst, slowest = 0.0, 0.0
    for m, exact in cases:
        t0 = time.perf_counter()
        pi = invariant_density_1d(m)
        grid = m.default_probe_grid()
        err = float(np.max(np.abs(pi.density(grid) - exact(grid))))
        dt = time.perf_counter() - t0
        worst, slowest = max(worst, err), max(slowest, dt)
    ok = worst < 1e-6 and slowest < 1.0
    criterion(1, ok, f"density sup error {worst:.3g} (< 1e-6), "
                     f"slowest build {slowest:.2f}s (< 1s)")


def test_criterion_2_poisson_oracles(criterion):
    t0 = time.perf_counter()
    m = ou_model()
    pi = invariant_density_1d(m)
    f = centralize(FunctionalSpec.from_polynomial([0.0, 1.0]), pi)
    sol = solve_poisson_1d(m, pi, f, 0.0, np.linspace(-4, 4, 81))
    up_err = float(np.max(np.abs(sol.u_prime - 1.0)))
    resid_max = 0.0
    for k in (1, 2, 3, 4):
        fk = hermite_functional(k)
        sk = solve_poisson_1d(m, pi, fk, 0.0, np.linspace(-4, 4, 81))
        resid = 0.5 * m.a(sk.grid) * sk.u_double_prime \
            + m.drift(sk.grid) * sk.u_prime + fk.value(0.0, sk.grid)
        resid_max = max(resid_max, float(np.max(np.abs(resid))))
    dt = time.perf_counter() - t0
    ok = up_err < 1e-6 and resid_max < 1e-5 and dt < 5.0
    criterion(2, ok, f"u' error {up_err:.3g} (< 1e-6), Hermite residual "
                     f"{resid_max:.3g} (< 1e-5), {dt:.2f}s (< 5s)")


def test_criterion_3_mf_cross_oracle(criterion):
    t0 = time.perf_counter()
    lines = []
    ok = True
    for m, target in ((ou_model(), 2.0), (cir_model(), 1.0)):
        pi = invariant_density_1d(m)
        f = centralize(FunctionalSpec.from_polynomial([0.0, 1.0]), pi)
        sol = solve_poisson_1d(m, pi, f, 0.0, m.default_probe_grid(81))
        grad = mf_gradient_form(m, pi, sol).values[0]
        auto = mf_autocorrelation_form(m, pi, f, n_paths=100_000, horizon=10.0,
                                       master_seed=0)
        a, se = auto.values[0], auto.std_error[0]
        tol = max(0.05 * abs(grad), 3.0 * se)
        ok = ok and abs(grad - target) < 1e-6 and abs(a - grad) <= tol
        lines.append(f"{m.name}: grad {grad:.4f} auto {a:.4f}+-{se:.4f} "
                     f"target {target}")
    dt = time.perf_counter() - t0
    ok = ok and dt < 120.0
    criterion(3, ok, "; ".join(lines) + f"; {dt:.1f}s (< 120s)")


def test_criterion_4_lln_rate(criterion):
    t0 = time.perf_counter()
    m = ou_model()
    pi = invariant_density_1d(m)
    f = centralize(FunctionalSpec.from_polynomial([0.0, 1.0]), pi)
    spec = ExperimentSpec(
        kind="LLN_RATE", model=m, functional=f,
        policy=SchedulePolicy(theta_step=1.5),
        epsilon_list=(0.08, 0.04, 0.02, 0.01),
        horizon=1.0, replicates=2000, master_seed=0, threads=1,
    )
    rep = run_lln_rate(spec)
    dt = time.perf_counter() - t0
    slope = rep.slopes["lln"]
    ok = rep.verdicts["lln_slope"] and dt < 300.0
    criterion(4, ok, f"fitted slope {slope:.3f} (in [0.4, 0.6]), {dt:.1f}s (< 300s)")


def test_criterion_5_clt_normality(criterion):
    t0 = time.perf_counter()
    m = ou_model()
    pi = invariant_density_1d(m)
    f = centralize(FunctionalSpec.from_polynomial([0.0, 1.0]), pi)
    spec = ExperimentSpec(
        kind="CLT_NORMALITY", model=m, functional=f,
        policy=SchedulePolicy(theta_step=2.5),
        epsilon_list=(0.005,), horizon=1.0, replicates=4000,
        master_seed=1, threads=1,
    )
    rep = run_clt_normality(spec, mf_target=2.0)
    dt = time.perf_counter() - t0
    row = rep.rows[-1]
    ok = rep.passed and dt < 600.0
    criterion(5, ok, f"scaled var {row['scaled_var']:.3f} "
                     f"(riemann {row['riemann_scaled_var']:.3f}, target 2.0 +-10%), "
                     f"KS {row['ks']:.4f} (thr {row['ks_threshold']:.4f}), "
                     f"{dt:.1f}s (< 600s)")


def test_criterion_6_mdp_trend(criterion):
    # calibration-grade trend check: beta log p_hat must move monotonically
    # toward -0.5625 with final relative gap below 35%
    t0 = time.perf_counter()
    m = ou_model()
    pi = invariant_density_1d(m)
    f = centralize(FunctionalSpec.from_polynomial([0.0, 1.0]), pi)
    level = 1.5
    spec = ExperimentSpec(
        kind="MDP_TAIL", model=m, functional=f,
        policy=SchedulePolicy(theta_step=2.5, gamma_mdp=0.35),
        epsilon_list=(0.08, 0.04, 0.02), horizon=1.0, replicates=100_000,
        mdp_levels=(level,), master_seed=0, threads=1,
    )
    target = mdp_closed_form_rate(level, 1.0, 2.0)
    rep = run_mdp_tail(spec, {level: target})
    dt = time.perf_counter() - t0
    gap = rep.slopes.get(f"mdp_final_gap_{level:g}")
    ok = rep.verdicts[f"mdp_level_{level:g}"] and dt < 1800.0
    criterion(6, ok, f"target -I = {-target}, final relative gap "
                     f"{gap:.3f} (< 0.35), {dt:.1f}s (< 1800s)")


def test_criterion_7_rate_and_control_identities(criterion):
    t0 = time.perf_counter()
    curve = CovarianceCurve(t_grid=np.array([0.0, 1.0]),
                            values=np.array([2.0, 2.0]), method="oracle")
    path = rate_function(curve, [0.0, 1.0], [0.0, 1.5])
    closed_gap = abs(path.rate - mdp_closed_form_rate(1.5, 1.0, 2.0))
    worst_rel = 0.0
    for m in (ou_model(), cir_model()):
        pi = invariant_density_1d(m)
        f = centralize(FunctionalSpec.from_polynomial([0.0, 1.0]), pi)
        sol = solve_poisson_1d(m, pi, f, 0.0, m.default_probe_grid(81))
        mf = mf_gradient_form(m, pi, sol)
        p = rate_function(mf, [0.0, 0.4, 1.0], [0.0, 0.8, 1.5])
        ctrl = optimal_control(m, pi, sol, mf, p)
        worst_rel = max(worst_rel, abs(ctrl.l2_cost - 2.0 * p.rate) / (2.0 * p.rate))
    dt = time.perf_counter() - t0
    ok = closed_gap < 1e-14 and worst_rel < 1e-3 and dt < 10.0
    criterion(7, ok, f"closed-form gap {closed_gap:.2g} (machine precision), "
                     f"control-cost rel err {worst_rel:.2g} (< 1e-3), "
                     f"{dt:.1f}s (< 10s)")


CFG = """
[model]
family = ou
kappa = 1.0
mu = 0.0
sigma = 1.4142135623730951
[functional]
coeffs = [0.0, 1.0]
[schedule]
regime = CLT
theta = 2.5
[experiment]
kind = CLT_NORMALITY
epsilon_list = [0.05]
replicates = 300
horizon = 1.0
[run]
seed = 11
"""


def test_criterion_8_thread_count_determinism(criterion, tmp_path):
    cfg = tmp_path / "det.cfg"
    cfg.write_text(CFG)

    def run(outdir, threads):
        rc = cli_main(["--config", str(cfg), "--quiet", "--threads", str(threads),
                       "--out", str(tmp_path / outdir), "experiment"])
        assert rc in (0, 1)  # verdicts are irrelevant here, only bytes
        run_dir = next((tmp_path / outdir).iterdir())
        body = (run_dir / "report.json").read_text()
        return "\n".join(l for l in body.splitlines() if '"timestamp"' not in l)

    a = run("t1", 1)
    b = run("t4", 4)
    criterion(8, a == b, "report.json bit-identical across thread counts "
                         "(timestamp line excluded)")


def test_criterion_9_exponent_audit_boundary(criterion):
    m = ou_model()
    pi = invariant_density_1d(m)
    grid = np.linspace(-12, 12, 241)
    sol1 = solve_poisson_1d(m, pi, hermite_functional(1), 0.0, grid)
    e1 = exponents_from_solution(sol1, constant_diffusion=True)
    ok_true = audit_mdp_exponents(1.0, e1).verdict_mdp

    f15 = centralize(FunctionalSpec(
        value=lambda t, x: np.abs(np.asarray(x, float)) ** 1.5,
        growth_p0=1.5), pi)
    sol15 = solve_poisson_1d(m, pi, f15, 0.0, grid)
    e15 = exponents_from_solution(sol15, constant_diffusion=True)
    ok_false = not audit_mdp_exponents(1.0, e15).verdict_mdp
    criterion(9, ok_true and ok_false,
              f"p0=1 fitted p1={e1.p1:.2f} verdict true; "
              f"p0=1.5 fitted p1={e15.p1:.2f} verdict false")
