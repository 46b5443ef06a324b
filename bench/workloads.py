"""The benchmark's workloads: inputs made from a seed, the timed steps, their checks.

Each workload splits into the analytic prefix every run pays before its
first Euler step (``setup``: density, centralize, Poisson, gradient-form
M_f for each model) and the rest of the chain up to the verdicts
(``verdict``).  Checks are made after the timed region, on the outputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import time
from dataclasses import dataclass

import numpy as np

from ergosim import cli, euler, harness, models, poisson1d, variance

SQRT2 = math.sqrt(2.0)
FAMILIES = {
    "ou": dict(kappa=1.0, mu=0.0, sigma=SQRT2),
    "cir": dict(kappa=1.0, mu=1.0, sigma=1.0),
    "gompertz": dict(kappa=1.0, mu=1.0, sigma=1.0),
    "power_drift": dict(alpha=1.5),
}
DENSITY_ORACLES = {
    "ou": lambda z: np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi),
    "cir": lambda z: 4.0 * z * np.exp(-2.0 * z),
    "gompertz": lambda z: np.exp(-((np.log(z) - 0.5) ** 2)) / (z * math.sqrt(math.pi)),
}
MF_ORACLES = {"ou": 2.0, "cir": 1.0}
RATE_PATH = ([0.0, 0.4, 1.0], [0.0, 0.8, 1.5])

# tail frequencies of mdp_many_short written by the seed commit, per seed
with open(os.path.join(os.path.dirname(__file__), "baseline.json")) as _fh:
    MDP_SEED_COMMIT_TAILS = {
        int(k): v for k, v in json.load(_fh)["mdp_tail_freq_at_seed_commit"].items()
    }


class Checks:
    """Correctness checks attempted in one run, and the names of those failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list = []

    def __call__(self, name: str, ok) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(name)

    def fail_all(self, name: str, n: int) -> None:
        self.attempted += n
        self.failures.extend([name] * n)


@dataclass
class Prepared:
    model: object
    pi: object
    f: object
    solution: object
    mf: object


@dataclass
class Verdict:
    seconds: float
    replicates: int
    replicates_failed: int
    outputs: object


def prepare(family: str) -> Prepared:
    """The analytic prefix for one builtin model and f(x) = x, centralized."""
    m = models.builtin_model(family, FAMILIES[family])
    pi = models.invariant_density_1d(m)
    f = models.centralize(models.FunctionalSpec.from_polynomial([0.0, 1.0]), pi)
    sol = poisson1d.solve_poisson_1d(m, pi, f, 0.0, m.default_probe_grid(81))
    mf = variance.mf_gradient_form(m, pi, sol)
    return Prepared(m, pi, f, sol, mf)


def ou_euler_tail(eps: float, level: float, theta: float, gamma: float,
                  horizon: float, kappa: float, sigma: float) -> float:
    """P(|Xi| / eps^gamma > level) for the scaled Euler OU chain started at 0.

    The chain Z_{k+1} = (1 - h kappa) Z_k + sqrt(h) sigma xi_k is linear in
    the normals, so the trapezoid functional Xi = dt sum (Z_k + Z_{k+1}) / 2
    is exactly Gaussian with mean 0; its variance is the sum of the squared
    coefficients of the xi_k.
    """
    dt = eps**theta
    h = dt / eps
    n = int(math.floor(horizon / dt + 1e-9))
    r = 1.0 - h * kappa
    m = n - 1 - np.arange(n)  # steps left after xi_k first enters Z
    coef = dt * math.sqrt(h) * sigma * ((1.0 - r**m) / (1.0 - r) + 0.5 * r**m)
    sd = math.sqrt(float(np.sum(coef * coef)))
    return math.erfc(level * eps**gamma / (sd * SQRT2))


def _binomial_close(p_hat: float, p_ref: float, n: int, k: float = 4.0) -> bool:
    return abs(p_hat - p_ref) <= k * math.sqrt(p_ref * (1.0 - p_ref) / n)


class Workload:
    name = ""
    families: tuple = ()
    setup_reps = 5
    threads = 1
    verdict_checks = 0

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> list:
        return [prepare(fam) for fam in self.families]

    @property
    def setup_checks(self) -> int:
        return sum((fam in DENSITY_ORACLES) + (fam in MF_ORACLES) for fam in self.families)

    def check_setup(self, prepared: list, checks: Checks) -> None:
        for p in prepared:
            fam = p.model.name
            if fam in DENSITY_ORACLES:
                grid = p.model.default_probe_grid()
                err = float(np.max(np.abs(p.pi.density(grid) - DENSITY_ORACLES[fam](grid))))
                checks(f"{fam}: density sup error < 1e-6", err < 1e-6)
            if fam in MF_ORACLES:
                checks(f"{fam}: M_f gradient within 1e-6 of {MF_ORACLES[fam]}",
                       abs(float(p.mf.values[0]) - MF_ORACLES[fam]) < 1e-6)

    def verdict(self, prepared: list, threads: int) -> Verdict:
        raise NotImplementedError

    def check_verdict(self, v: Verdict, checks: Checks) -> None:
        raise NotImplementedError


class CltLongPaths(Workload):
    """harness.run_clt_normality on OU: one chunk of 4096 paths, 17,677 steps each."""

    name = "clt_long_paths"
    families = ("ou",)
    verdict_checks = 5

    def verdict(self, prepared, threads):
        p = prepared[0]
        spec = harness.ExperimentSpec(
            kind="CLT_NORMALITY", model=p.model, functional=p.f,
            policy=euler.SchedulePolicy(theta_step=2.5), epsilon_list=(0.02,),
            horizon=1.0, replicates=4096, master_seed=self.seed, threads=threads,
        )
        t0 = time.perf_counter()
        report = harness.run_clt_normality(spec, float(p.mf.values[0]))
        seconds = time.perf_counter() - t0
        n_failed = sum(r["n_failed"] for r in report.rows)
        return Verdict(seconds, spec.replicates * len(report.rows), n_failed, report)

    def check_verdict(self, v, checks):
        for name in ("clt_variance", "clt_ks", "clt_riemann_variance", "clt_riemann_ks"):
            checks(f"CLT verdict {name} passes", v.outputs.verdicts.get(name) is True)
        checks("no replicate exploded", v.replicates_failed == 0)


class SetupMark:
    """Time at which the CLI's analytic prefix returned (its M_f call)."""

    def __init__(self):
        self.t = None

    def __enter__(self):
        self._orig = orig = cli.mf_gradient_form

        def marked(*args, **kwargs):
            out = orig(*args, **kwargs)
            self.t = time.perf_counter()
            return out
        cli.mf_gradient_form = marked
        return self

    def __exit__(self, *exc):
        cli.mf_gradient_form = self._orig
        return False


class MdpManyShort(Workload):
    """ergosim.cli experiment on an MDP_TAIL config: 25 chunks of short paths."""

    name = "mdp_many_short"
    families = ("ou",)
    level = 1.5
    theta, gamma = 2.5, 0.35

    def __init__(self, seed, workdir, epsilons=(0.16, 0.08), replicates=102_400):
        super().__init__(seed, workdir)
        self.epsilons = epsilons
        self.replicates = replicates
        self.threads = min(2, len(os.sched_getaffinity(0)))
        self.config = os.path.join(workdir, f"mdp-{replicates}-seed{seed}.cfg")
        with open(self.config, "w") as fh:
            fh.write(
                "[model]\nfamily = ou\nkappa = 1.0\nmu = 0.0\n"
                f"sigma = {SQRT2!r}\n"
                "[functional]\ncoeffs = [0.0, 1.0]\n"
                f"[schedule]\nregime = MDP\ntheta = {self.theta}\ngamma_mdp = {self.gamma}\n"
                "[experiment]\nkind = MDP_TAIL\n"
                f"epsilon_list = [{', '.join(repr(e) for e in epsilons)}]\n"
                f"horizon = 1.0\nreplicates = {replicates}\nlevels = [{self.level}]\n"
                f"[run]\nseed = {seed}\n"
            )
        full = (epsilons, replicates) == ((0.16, 0.08), 102_400)
        self.seed_commit_tails = MDP_SEED_COMMIT_TAILS.get(seed) if full else None
        self.verdict_checks = 3 + 2 * len(epsilons) + (
            len(epsilons) if self.seed_commit_tails else 0)

    def verdict(self, prepared, threads):
        out = os.path.join(self.workdir, f"runs-{threads}t")
        shutil.rmtree(out, ignore_errors=True)
        argv = ["--config", self.config, "--quiet", "--threads", str(threads),
                "--out", out, "experiment"]
        with SetupMark() as mark, contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
            end = time.perf_counter()
        body = None
        for d in (os.listdir(out) if os.path.isdir(out) else []):
            path = os.path.join(out, d, "report.json")
            if os.path.isfile(path):
                with open(path) as fh:
                    body = fh.read()
        shutil.rmtree(out, ignore_errors=True)
        if mark.t is None:
            raise RuntimeError("the CLI never called mf_gradient_form; set-up end unknown")
        rows = json.loads(body)["rows"] if body else []
        seconds = end - mark.t
        failed = sum(r["n_failed"] for r in rows)
        return Verdict(seconds, self.replicates * len(rows), failed, (rc, body, rows))

    def check_verdict(self, v, checks):
        rc, body, rows = v.outputs
        # the MDP verdict fails by design at these epsilons; only errors count
        checks("CLI exits without a config or runtime error",
               rc in (cli.EXIT_PASS, cli.EXIT_VERDICT_FAIL))
        checks("report.json written", body is not None)
        checks("no replicate exploded", bool(rows) and v.replicates_failed == 0)
        key = f"tail_freq_{self.level:g}"
        by_eps = {r["epsilon"]: r for r in rows}
        for i, eps in enumerate(self.epsilons):
            row = by_eps.get(eps, {})
            checks(f"eps={eps}: row reported", key in row)
            p_hat = row.get(key, math.nan)
            exact = ou_euler_tail(eps, self.level, self.theta, self.gamma, 1.0, 1.0, SQRT2)
            checks(f"eps={eps}: {key} within 4 binomial SE of the exact Gaussian value",
                   _binomial_close(p_hat, exact, self.replicates))
            if self.seed_commit_tails:
                checks(f"eps={eps}: {key} within 4 binomial SE of the seed commit's value",
                       _binomial_close(p_hat, self.seed_commit_tails[i], self.replicates))


class AnalyticChain(Workload):
    """Every builtin family through density, Poisson, M_f, rate and control."""

    name = "analytic_chain"
    families = ("ou", "cir", "gompertz", "power_drift")
    autocorr_families = ("ou", "cir")
    setup_reps = 3

    def __init__(self, seed, workdir, autocorr_paths=20_000):
        super().__init__(seed, workdir)
        self.autocorr_paths = autocorr_paths
        self.verdict_checks = len(self.families) + len(self.autocorr_families)

    def verdict(self, prepared, threads):
        t0 = time.perf_counter()
        costs, autos = {}, {}
        for p in prepared:
            path = variance.rate_function(p.mf, *RATE_PATH)
            ctrl = variance.optimal_control(p.model, p.pi, p.solution, p.mf, path)
            costs[p.model.name] = (ctrl.l2_cost, path.rate)
        for p in prepared:
            if p.model.name in self.autocorr_families:
                autos[p.model.name] = variance.mf_autocorrelation_form(
                    p.model, p.pi, p.f, n_paths=self.autocorr_paths, horizon=10.0,
                    dt=0.005, master_seed=self.seed)
        seconds = time.perf_counter() - t0
        grads = {p.model.name: float(p.mf.values[0]) for p in prepared}
        return Verdict(seconds, 0, 0, (costs, autos, grads))

    def check_verdict(self, v, checks):
        costs, autos, grads = v.outputs
        for fam in self.families:
            cost, rate = costs[fam]
            checks(f"{fam}: control-cost identity relative error < 1e-3",
                   abs(cost - 2.0 * rate) / (2.0 * rate) < 1e-3)
        for fam in self.autocorr_families:
            g, a, se = grads[fam], float(autos[fam].values[0]), float(autos[fam].std_error[0])
            checks(f"{fam}: autocorrelation within max(5%, 3 SE) of the gradient form",
                   abs(a - g) <= max(0.05 * abs(g), 3.0 * se))


WORKLOADS = {w.name: w for w in (CltLongPaths, MdpManyShort, AnalyticChain)}
