"""Replicated Monte Carlo experiments checking the three limit theorems.

Each ``run_*`` entry point drives the batched Euler kernel over a list of
epsilon values and reduces the replicate outputs into an
:class:`ExperimentReport` with per-epsilon summary rows and explicit
pass/fail verdicts: the root-epsilon decay of the running functional
(law of large numbers rate), asymptotic normality of the rescaled
functional (central limit theorem), and the exponential tail speed of
the moderately rescaled functional (moderate deviations).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import euler
from ._version import __version__
from .euler import BatchResult, SchedulePolicy, StepSchedule, simulate_batch
from .models import FunctionalSpec, SdeModel


class HarnessError(Exception):
    pass


LLN_RATE = "LLN_RATE"
CLT_NORMALITY = "CLT_NORMALITY"
MDP_TAIL = "MDP_TAIL"
SCHEDULE_VIOLATION = "SCHEDULE_VIOLATION"
RIEMANN_VS_CONTINUOUS = "RIEMANN_VS_CONTINUOUS"

# the one list of experiment kinds, each with the regime its schedule must use
KIND_REGIME = {
    LLN_RATE: euler.LLN,
    CLT_NORMALITY: euler.CLT,
    MDP_TAIL: euler.MDP,
    SCHEDULE_VIOLATION: euler.CLT,
    RIEMANN_VS_CONTINUOUS: euler.CLT,
}
KINDS = tuple(KIND_REGIME)
# the broken schedule SCHEDULE_VIOLATION runs next to the valid one
INVALID_POLICY = SchedulePolicy(theta_step=1.0)

FAILURE_ABORT_FRACTION = 0.01
# LLN_RATE fits a log-log slope through this many points at least
LLN_RATE_MIN_EPSILONS = 3
# the KS and tail-frequency kinds judge a sample of at least this size
MIN_SAMPLE_REPLICATES = 100
KS_LEVEL = 0.01
# asymptotic Kolmogorov quantile: sqrt(-ln(alpha/2)/2) at alpha = 0.01
KS_COEFF = math.sqrt(-math.log(KS_LEVEL / 2.0) / 2.0)
VARIANCE_REL_TOL = 0.10
SLOPE_WINDOW = (0.4, 0.6)
MDP_GAP_TOL = 0.35
MIN_PREDICTED_HITS = 10.0


def spec_problems(kind, eps, horizon, replicates, levels, threads) -> list:
    """Every experiment rule these fields break, one message each.

    The one statement of what can run: :class:`ExperimentSpec` raises on
    these problems and config validation reports them.  A field given as
    None had no usable value and skips its rules.
    """
    problems = []
    if kind not in KINDS:
        problems.append(f"kind must be one of {KINDS}, got {kind!r}")
    if eps == ():
        problems.append("epsilon_list must be nonempty")
    elif eps and any(e <= 0 for e in eps):
        problems.append("epsilon values must be positive")
    elif eps and any(b >= a for a, b in zip(eps, eps[1:])):
        problems.append("epsilon_list must be strictly decreasing")
    elif eps and kind == LLN_RATE and len(eps) < LLN_RATE_MIN_EPSILONS:
        problems.append(f"{LLN_RATE} needs at least {LLN_RATE_MIN_EPSILONS} "
                        f"epsilons for its slope fit, got {len(eps)}")
    if horizon is not None and horizon <= 0:
        problems.append("horizon must be positive")
    if replicates is not None:
        if replicates < 1:
            problems.append("replicates must be >= 1")
        elif kind in (CLT_NORMALITY, MDP_TAIL) and replicates < MIN_SAMPLE_REPLICATES:
            problems.append(f"{kind} requires at least {MIN_SAMPLE_REPLICATES} "
                            f"replicates, got {replicates}")
    if kind == MDP_TAIL and levels == ():
        problems.append(f"{MDP_TAIL} requires at least one level")
    if threads is not None and threads < 1:
        problems.append(f"threads must be >= 1, got {threads}")
    return problems


@dataclass(frozen=True)
class ExperimentSpec:
    """A runnable experiment: its kind, model, functional and sizes.

    Construction checks every rule of :func:`spec_problems` and raises
    one :class:`HarnessError` naming all that fail, so a spec that exists
    can run; ``epsilon_list`` and ``mdp_levels`` are stored as float
    tuples.  ``threads`` is the worker count of each Euler batch, at least 1.
    """

    kind: str
    model: SdeModel
    functional: FunctionalSpec
    policy: SchedulePolicy
    epsilon_list: tuple
    horizon: float
    replicates: int
    mdp_levels: tuple = ()
    master_seed: int = 0
    threads: int = 1

    def __post_init__(self):
        eps = tuple(float(e) for e in self.epsilon_list)
        levels = tuple(float(x) for x in self.mdp_levels)
        problems = spec_problems(self.kind, eps, self.horizon, self.replicates, levels,
                                 self.threads)
        if problems:
            raise HarnessError("invalid experiment: " + "; ".join(problems))
        object.__setattr__(self, "epsilon_list", eps)
        object.__setattr__(self, "mdp_levels", levels)

    def schedule(self, epsilon: float) -> StepSchedule:
        return StepSchedule.from_policy(
            epsilon, KIND_REGIME[self.kind], self.policy, self.model.holder_nu
        )

    def echo(self) -> dict:
        return {
            "kind": self.kind,
            "model": self.model.name,
            "functional": self.functional.name,
            "theta_step": self.policy.theta_step,
            "c_step": self.policy.c_step,
            "gamma_mdp": self.policy.gamma_mdp,
            "epsilon_list": list(self.epsilon_list),
            "horizon": self.horizon,
            "replicates": self.replicates,
            "mdp_levels": list(self.mdp_levels),
            "master_seed": self.master_seed,
        }


@dataclass
class ExperimentReport:
    kind: str
    rows: list  # one dict per epsilon
    slopes: dict = field(default_factory=dict)
    verdicts: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)
    provenance: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(self.verdicts.values())

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "rows": self.rows,
            "slopes": self.slopes,
            "verdicts": self.verdicts,
            "notes": self.notes,
            "provenance": self.provenance,
        }

    def to_json(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=1, sort_keys=True)
            fh.write("\n")

    def to_csv(self, path: str) -> None:
        cols = ["epsilon", "delta_step", "delta_scale", "n", "n_failed",
                "mean", "var", "sup_mean", "ks"]
        level_cols = sorted(
            {k for r in self.rows for k in r if k.startswith("tail_freq_")}
        )
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(cols + level_cols)
            for r in self.rows:
                w.writerow([r.get(c, "") for c in cols + level_cols])


# ---------------------------------------------------------------------------
# statistics utilities (simulator-independent, self-testable)
# ---------------------------------------------------------------------------


def normal_cdf(x, variance: float = 1.0):
    sd = math.sqrt(variance)
    x = np.asarray(x, dtype=float)
    return 0.5 * (1.0 + np.vectorize(math.erf)(x / (sd * math.sqrt(2.0))))


def ks_distance(sample, target_variance: float) -> float:
    """Sup-distance between the empirical CDF and Normal(0, target_variance)."""
    s = np.sort(np.asarray(sample, dtype=float))
    if s.size == 0:
        raise HarnessError("empty sample")
    if not np.all(np.isfinite(s)):
        raise HarnessError("non-finite sample values")
    if target_variance <= 0:
        raise HarnessError("target_variance must be positive")
    cdf = normal_cdf(s, target_variance)
    n = s.size
    i = np.arange(1, n + 1)
    return float(np.max(np.maximum(cdf - (i - 1) / n, i / n - cdf)))


def ks_threshold(n: int) -> float:
    return KS_COEFF / math.sqrt(n)


def clt_statistics(sample: np.ndarray, target_variance: float) -> dict:
    """Variance and KS summary of a rescaled-functional sample vs its Gaussian limit."""
    sample = np.asarray(sample, dtype=float)
    var = float(np.var(sample, ddof=1))
    ks = ks_distance(sample, target_variance)
    thr = ks_threshold(sample.size)
    return {
        "n": int(sample.size),
        "mean": float(np.mean(sample)),
        "var": var,
        "var_rel_err": abs(var - target_variance) / target_variance,
        "ks": ks,
        "ks_threshold": thr,
        "var_ok": abs(var - target_variance) <= VARIANCE_REL_TOL * target_variance,
        "ks_ok": ks <= thr,
    }


def gaussian_tail_probability(x: float, variance: float) -> float:
    """P(|N(0, variance)| > x)."""
    if x <= 0:
        return 1.0
    return float(2.0 * (1.0 - normal_cdf(np.array([x]), variance)[0]))


def mdp_closed_form_rate(level: float, horizon: float, mf: float) -> float:
    """Straight-line infimum of the action over paths exceeding the level."""
    if mf <= 0:
        raise HarnessError("M_f must be positive for the closed-form rate")
    return level * level / (2.0 * horizon * mf)


# ---------------------------------------------------------------------------
# experiment drivers
# ---------------------------------------------------------------------------


def _provenance(spec: ExperimentSpec) -> dict:
    return {"spec": spec.echo(), "code_version": __version__, "master_seed": spec.master_seed}


def _run_eps(spec: ExperimentSpec, schedule: StepSchedule) -> BatchResult:
    res = simulate_batch(
        spec.model, schedule, spec.functional, spec.horizon,
        spec.master_seed, spec.replicates, threads=spec.threads,
    )
    n_failed = int(np.sum(res.failed))
    if n_failed > FAILURE_ABORT_FRACTION * spec.replicates:
        raise HarnessError(
            f"{n_failed}/{spec.replicates} replicates exploded at eps={schedule.epsilon} "
            f"(first failure at step {int(np.min(res.fail_step[res.failed]))}); "
            "the step schedule is too coarse for this drift"
        )
    return res


def _base_row(schedule: StepSchedule, res: BatchResult) -> dict:
    ok = ~res.failed
    return {
        "epsilon": schedule.epsilon,
        "delta_step": schedule.delta_step,
        "delta_scale": schedule.mdp_scale,
        "n": int(np.sum(ok)),
        "n_failed": int(np.sum(res.failed)),
        "mean": float(np.mean(res.xi_continuous[ok])),
        "var": float(np.var(res.xi_continuous[ok], ddof=1)),
        "sup_mean": float(np.mean(res.sup_abs[ok])),
    }


def run_lln_rate(spec: ExperimentSpec) -> ExperimentReport:
    """Fit the decay rate of E[sup_t |Xi_eps(f)(t)|] against epsilon.

    The theorem bounds the mean sup-statistic by a constant times
    sqrt(epsilon); the fitted log-log slope must land in [0.4, 0.6].
    """
    if spec.kind != LLN_RATE:
        raise HarnessError(f"expected kind LLN_RATE, got {spec.kind}")
    if not spec.functional.centralized:
        raise HarnessError("functional must be centralized (nonzero limit otherwise)")
    report = ExperimentReport(kind=spec.kind, rows=[], provenance=_provenance(spec))
    sup_means = []
    for eps in spec.epsilon_list:
        sched = spec.schedule(eps)
        res = _run_eps(spec, sched)
        row = _base_row(sched, res)
        del res  # each epsilon's batch is freed before the next one runs
        report.rows.append(row)
        sup_means.append(row["sup_mean"])
    sup_means = np.asarray(sup_means)
    if np.all(sup_means == 0.0):
        report.notes.append("zero functional: slope undefined, trivially pass")
        report.slopes["lln"] = None
        report.verdicts["lln_slope"] = True
        return report
    slope = float(np.polyfit(np.log(spec.epsilon_list), np.log(sup_means), 1)[0])
    report.slopes["lln"] = slope
    report.verdicts["lln_slope"] = SLOPE_WINDOW[0] <= slope <= SLOPE_WINDOW[1]
    report.notes.append(f"fitted slope {slope:.4f}, window {SLOPE_WINDOW}")
    return report


def run_clt_normality(spec: ExperimentSpec, mf_target: float) -> ExperimentReport:
    """Check normality of eps^{-1/2} Xi_eps(f)(T) against variance T*M_f.

    Both the trapezoid functional and its left-endpoint Riemann variant
    are tested; the verdict uses the smallest epsilon in the list.
    """
    if spec.kind not in (CLT_NORMALITY, RIEMANN_VS_CONTINUOUS):
        raise HarnessError(f"expected a CLT-kind spec, got {spec.kind}")
    target = spec.horizon * mf_target
    report = ExperimentReport(kind=spec.kind, rows=[], provenance=_provenance(spec))
    for eps in spec.epsilon_list:
        sched = spec.schedule(eps)
        res = _run_eps(spec, sched)
        ok = ~res.failed
        scale = sched.mdp_scale  # sqrt(eps) in this regime
        row = _base_row(sched, res)
        for tag, vals in (("", res.xi_continuous[ok]), ("riemann_", res.xi_riemann[ok])):
            st = clt_statistics(vals / scale, target)
            row[tag + "scaled_var"] = st["var"]
            row[tag + "ks"] = st["ks"]
            row[tag + "ks_threshold"] = st["ks_threshold"]
            row[tag + "var_ok"] = st["var_ok"]
            row[tag + "ks_ok"] = st["ks_ok"]
        del res, ok, vals  # each epsilon's batch is freed before the next one runs
        report.rows.append(row)
    last = report.rows[-1]
    report.verdicts["clt_variance"] = bool(last["var_ok"])
    report.verdicts["clt_ks"] = bool(last["ks_ok"])
    report.verdicts["clt_riemann_variance"] = bool(last["riemann_var_ok"])
    report.verdicts["clt_riemann_ks"] = bool(last["riemann_ks_ok"])
    report.notes.append(
        f"target variance {target}, smallest-eps scaled var {last['scaled_var']:.4f} "
        f"(riemann {last['riemann_scaled_var']:.4f})"
    )
    return report


def run_mdp_tail(spec: ExperimentSpec, rate_target: dict) -> ExperimentReport:
    """Track beta(eps) * log p_hat(eps, x) toward -I(x) over the epsilon list.

    ``rate_target`` maps each level x to its action infimum I(x).  Levels
    whose Gaussian-predicted exceedance count is below 10 are rejected;
    levels with zero observed exceedances are censored out of the
    verdict.  The verdict per level requires the gap |beta log p + I| to
    shrink monotonically with the final relative gap below 35 percent:
    the speed's convergence is asymptotic with no rate attached, so this
    is a calibration-grade trend check, not a sharp limit test.
    """
    if spec.kind != MDP_TAIL:
        raise HarnessError(f"expected kind MDP_TAIL, got {spec.kind}")
    for x in spec.mdp_levels:
        if x not in rate_target:
            raise HarnessError(f"no rate target supplied for level {x}")
    report = ExperimentReport(kind=spec.kind, rows=[], provenance=_provenance(spec))
    report.notes.append("calibration-grade: 35% gap tolerance is artifact calibration")
    speeds = {x: [] for x in spec.mdp_levels}
    for eps in spec.epsilon_list:
        sched = spec.schedule(eps)
        # Gaussian-predicted exceedance probability at this eps for the
        # level precondition: Upsilon ~ N(0, beta * T * M) when I = x^2/(2TM)
        res = _run_eps(spec, sched)
        ok = ~res.failed
        ups = np.abs(res.xi_continuous[ok]) / sched.mdp_scale
        row = _base_row(sched, res)
        row["beta"] = sched.beta
        for x in spec.mdp_levels:
            i_x = rate_target[x]
            var_pred = spec.horizon * (x * x / (2.0 * i_x)) / sched.beta if i_x > 0 else None
            if i_x > 0:
                p_pred = gaussian_tail_probability(x, var_pred)
                if p_pred * spec.replicates < MIN_PREDICTED_HITS:
                    raise HarnessError(
                        f"level {x} predicts {p_pred * spec.replicates:.2f} exceedances "
                        f"(< {MIN_PREDICTED_HITS:g}) at eps={eps}; choose a smaller level "
                        "or more replicates"
                    )
            p_hat = float(np.mean(ups > x))
            row[f"tail_freq_{x:g}"] = p_hat
            if p_hat == 0.0:
                row[f"censored_{x:g}"] = True
                speeds[x].append(None)
            else:
                speeds[x].append(sched.beta * math.log(p_hat))
                row[f"beta_log_p_{x:g}"] = speeds[x][-1]
        del res, ok, ups  # each epsilon's batch is freed before the next one runs
        report.rows.append(row)
    for x in spec.mdp_levels:
        i_x = rate_target[x]
        vals = [v for v in speeds[x] if v is not None]
        if len(vals) < len(speeds[x]):
            report.notes.append(f"level {x}: censored at some epsilons")
        if i_x == 0.0:
            report.verdicts[f"mdp_level_{x:g}"] = all(abs(v) < 0.05 for v in vals)
            continue
        if len(vals) < 2:
            report.verdicts[f"mdp_level_{x:g}"] = False
            report.notes.append(f"level {x}: too few uncensored points")
            continue
        gaps = [abs(v + i_x) / i_x for v in vals]
        monotone = all(b < a for a, b in zip(gaps, gaps[1:]))
        final_ok = gaps[-1] < MDP_GAP_TOL
        report.slopes[f"mdp_final_gap_{x:g}"] = gaps[-1]
        report.verdicts[f"mdp_level_{x:g}"] = monotone and final_ok
        report.notes.append(
            f"level {x}: beta*log(p) = {[round(v, 4) for v in vals]}, target {-i_x}, "
            f"gaps {[round(g, 3) for g in gaps]}"
        )
    return report


def run_schedule_violation(
    spec: ExperimentSpec, invalid_policy: SchedulePolicy, mf_target: float
) -> ExperimentReport:
    """Side-by-side CLT variance under a valid schedule and a broken one.

    The invalid schedule (e.g. theta = 1) is run by constructing the step
    triple directly, bypassing the regime validation it would fail; the
    resulting deviation from T*M_f is recorded but not asserted, since no
    limit theorem covers it.
    """
    if spec.kind != SCHEDULE_VIOLATION:
        raise HarnessError(f"expected kind SCHEDULE_VIOLATION, got {spec.kind}")
    target = spec.horizon * mf_target
    report = ExperimentReport(kind=spec.kind, rows=[], provenance=_provenance(spec))
    for eps in spec.epsilon_list:
        valid = spec.schedule(eps)
        broken = StepSchedule(
            epsilon=eps,
            delta_step=invalid_policy.c_step * eps**invalid_policy.theta_step,
            mdp_scale=math.sqrt(eps),
            regime=euler.CLT,
            policy=invalid_policy,
        )
        row = {}
        for tag, sched in (("valid_", valid), ("invalid_", broken)):
            res = _run_eps(spec, sched)
            ok = ~res.failed
            st = clt_statistics(res.xi_continuous[ok] / sched.mdp_scale, target)
            row[tag + "scaled_var"] = st["var"]
            row[tag + "rel_dev"] = st["var_rel_err"]
            row[tag + "theta"] = sched.policy.theta_step
            if tag == "valid_":
                row.update(_base_row(sched, res))
            del res, ok  # each batch is freed before the next one runs
        report.rows.append(row)
    last = report.rows[-1]
    report.verdicts["valid_schedule_variance"] = (
        last["valid_rel_dev"] <= VARIANCE_REL_TOL
    )
    report.notes.append(
        "informative: invalid-schedule deviation "
        f"{last['invalid_rel_dev']:.3f} vs valid {last['valid_rel_dev']:.3f}"
    )
    return report


def run_riemann_vs_continuous(spec: ExperimentSpec, mf_target: float) -> ExperimentReport:
    """CLT comparison of the trapezoid and Riemann functionals (alias kind)."""
    if spec.kind != RIEMANN_VS_CONTINUOUS:
        raise HarnessError(f"expected kind RIEMANN_VS_CONTINUOUS, got {spec.kind}")
    report = run_clt_normality(spec, mf_target)
    for row in report.rows:
        row["estimator_gap"] = abs(row["scaled_var"] - row["riemann_scaled_var"])
    return report


def run_experiment(spec: ExperimentSpec, mf_target: float) -> ExperimentReport:
    """Run ``spec.kind`` with every target it needs derived from ``M_f``.

    MDP levels are judged against the closed-form rate of ``mf_target``;
    the schedule-violation contrast runs :data:`INVALID_POLICY`.
    """
    if spec.kind == LLN_RATE:
        return run_lln_rate(spec)
    if spec.kind == CLT_NORMALITY:
        return run_clt_normality(spec, mf_target)
    if spec.kind == MDP_TAIL:
        return run_mdp_tail(spec, {x: mdp_closed_form_rate(x, spec.horizon, mf_target)
                                   for x in spec.mdp_levels})
    if spec.kind == SCHEDULE_VIOLATION:
        return run_schedule_violation(spec, INVALID_POLICY, mf_target)
    return run_riemann_vs_continuous(spec, mf_target)
