import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from ergosim import euler, harness
from ergosim.euler import SchedulePolicy
from ergosim.harness import (CLT_NORMALITY, KINDS, KS_COEFF, LLN_RATE, MDP_TAIL,
                             SCHEDULE_VIOLATION, ExperimentReport, ExperimentSpec, HarnessError,
                             clt_statistics, gaussian_tail_probability,
                             ks_distance, ks_threshold, mdp_closed_form_rate,
                             normal_cdf, run_clt_normality, run_experiment,
                             run_lln_rate, run_mdp_tail, run_schedule_violation)
from ergosim.models import (FunctionalSpec, PolynomialFunctional, builtin_model, centralize,
                            invariant_density_1d)

SQRT2 = math.sqrt(2.0)


@pytest.fixture(scope="module")
def ou_setup():
    m = builtin_model("ou", dict(kappa=1.0, mu=0.0, sigma=SQRT2))
    pi = invariant_density_1d(m)
    f = centralize(FunctionalSpec.from_polynomial([0.0, 1.0]), pi)
    return m, f


def zero_functional():
    return FunctionalSpec(value=PolynomialFunctional([0.0]), centralized=True, name="zero")


# ------------------------------------------------------- statistics layer


def test_normal_cdf_oracle():
    assert abs(normal_cdf(np.array([0.0]))[0] - 0.5) < 1e-15
    # Phi(1.96) for the standard normal
    assert abs(normal_cdf(np.array([1.96]))[0] - 0.9750021048517795) < 1e-12
    # variance scaling: Phi_var4(2) = Phi(1)
    assert abs(normal_cdf(np.array([2.0]), 4.0)[0] - normal_cdf(np.array([1.0]))[0]) < 1e-15


def test_ks_quantile_sample_oracle():
    # sample sitting exactly at the (i - 1/2)/n quantiles has KS = 1/(2n)
    n = 64
    grid = np.linspace(-10, 10, 20001)
    cdf = normal_cdf(grid)
    q = np.interp((np.arange(1, n + 1) - 0.5) / n, cdf, grid)
    assert abs(ks_distance(q, 1.0) - 0.5 / n) < 1e-4


def test_ks_degenerate_sample():
    # all zeros: ECDF jumps to 1 at 0 where the normal CDF is 1/2
    assert abs(ks_distance(np.zeros(50), 1.0) - 0.5) < 1e-12


def test_ks_input_validation():
    with pytest.raises(HarnessError, match="empty"):
        ks_distance([], 1.0)
    with pytest.raises(HarnessError, match="finite"):
        ks_distance([0.0, np.nan], 1.0)
    with pytest.raises(HarnessError, match="positive"):
        ks_distance([0.0], 0.0)


def test_ks_threshold_value():
    # sqrt(-ln(0.005)/2) = 1.6276...
    assert abs(KS_COEFF - 1.6276236307187293) < 1e-12
    assert abs(ks_threshold(400) - KS_COEFF / 20.0) < 1e-15


def test_clt_statistics_accepts_its_own_distribution():
    rng = np.random.Generator(np.random.Philox(7))
    sample = rng.standard_normal(4000) * SQRT2
    st = clt_statistics(sample, 2.0)
    assert st["var_ok"] and st["ks_ok"]
    assert abs(st["var"] - 2.0) < 0.2


def test_clt_statistics_rejects_wrong_variance():
    rng = np.random.Generator(np.random.Philox(7))
    sample = rng.standard_normal(4000)
    st = clt_statistics(sample, 10.0)
    assert not st["var_ok"]
    assert not st["ks_ok"]


def test_gaussian_tail_probability():
    assert gaussian_tail_probability(0.0, 1.0) == 1.0
    assert abs(gaussian_tail_probability(1.0, 1.0) - 0.31731050786291415) < 1e-12
    # scaling: P(|N(0,4)| > 2) = P(|N(0,1)| > 1)
    assert abs(gaussian_tail_probability(2.0, 4.0)
               - gaussian_tail_probability(1.0, 1.0)) < 1e-12


def test_mdp_closed_form_rate():
    assert abs(mdp_closed_form_rate(1.5, 1.0, 2.0) - 0.5625) < 1e-15
    with pytest.raises(HarnessError):
        mdp_closed_form_rate(1.0, 1.0, 0.0)


# ---------------------------------------------------------- spec invariants


def spec_kw(m, f, **over):
    kw = dict(kind=CLT_NORMALITY, model=m, functional=f,
              policy=SchedulePolicy(theta_step=2.5),
              epsilon_list=(0.1, 0.05), horizon=1.0, replicates=400)
    kw.update(over)
    return kw


def test_spec_rejects_unknown_kind(ou_setup):
    m, f = ou_setup
    with pytest.raises(HarnessError, match="kind must be one of"):
        ExperimentSpec(**spec_kw(m, f, kind="BOGUS"))


def test_spec_rejects_bad_epsilons(ou_setup):
    m, f = ou_setup
    with pytest.raises(HarnessError, match="decreasing"):
        ExperimentSpec(**spec_kw(m, f, epsilon_list=(0.05, 0.1)))
    with pytest.raises(HarnessError, match="positive"):
        ExperimentSpec(**spec_kw(m, f, epsilon_list=(0.1, -0.05)))


def test_spec_minimum_replicates(ou_setup):
    m, f = ou_setup
    with pytest.raises(HarnessError, match="100 replicates"):
        ExperimentSpec(**spec_kw(m, f, replicates=50))
    # LLN has no such floor
    ExperimentSpec(**spec_kw(m, f, kind=LLN_RATE, replicates=50,
                             policy=SchedulePolicy(theta_step=1.5),
                             epsilon_list=(0.2, 0.1, 0.05)))


def test_spec_schedule_regime_mapping(ou_setup):
    m, f = ou_setup
    s = ExperimentSpec(**spec_kw(m, f))
    sched = s.schedule(0.05)
    assert sched.regime == euler.CLT
    assert abs(sched.mdp_scale - math.sqrt(0.05)) < 1e-15


# ------------------------------------------------------------- experiments


def test_lln_zero_functional_trivial_pass(ou_setup):
    m, _ = ou_setup
    s = ExperimentSpec(**spec_kw(m, zero_functional(), kind=LLN_RATE,
                                 policy=SchedulePolicy(theta_step=1.5),
                                 epsilon_list=(0.2, 0.1, 0.05),
                                 replicates=50, horizon=0.5))
    rep = run_lln_rate(s)
    assert rep.verdicts["lln_slope"]
    assert rep.slopes["lln"] is None
    assert any("trivially pass" in n for n in rep.notes)


def test_lln_needs_three_epsilons(ou_setup):
    m, f = ou_setup
    # the spec cannot be built, so run_lln_rate never sees it
    with pytest.raises(HarnessError, match="at least 3 epsilons"):
        ExperimentSpec(**spec_kw(m, f, kind=LLN_RATE,
                                 policy=SchedulePolicy(theta_step=1.5),
                                 epsilon_list=(0.2, 0.1), replicates=50))


def test_lln_requires_centralized(ou_setup):
    m, _ = ou_setup
    s = ExperimentSpec(**spec_kw(m, FunctionalSpec.from_polynomial([0.0, 1.0]),
                                 kind=LLN_RATE,
                                 policy=SchedulePolicy(theta_step=1.5),
                                 epsilon_list=(0.2, 0.1, 0.05), replicates=50))
    with pytest.raises(HarnessError, match="centralized"):
        run_lln_rate(s)


def test_lln_slope_small_scale(ou_setup):
    m, f = ou_setup
    s = ExperimentSpec(**spec_kw(m, f, kind=LLN_RATE,
                                 policy=SchedulePolicy(theta_step=1.5),
                                 epsilon_list=(0.16, 0.08, 0.04, 0.02),
                                 replicates=200, master_seed=3))
    rep = run_lln_rate(s)
    # loose window at this replicate count; the sharp check is the
    # acceptance experiment at full scale
    assert 0.2 < rep.slopes["lln"] < 0.8
    assert len(rep.rows) == 4
    assert all(r["n_failed"] == 0 for r in rep.rows)


def test_clt_small_scale_columns_and_verdicts(ou_setup):
    m, f = ou_setup
    s = ExperimentSpec(**spec_kw(m, f, epsilon_list=(0.05,), replicates=600,
                                 master_seed=5))
    rep = run_clt_normality(s, mf_target=2.0)
    row = rep.rows[0]
    for col in ("scaled_var", "ks", "riemann_scaled_var", "riemann_ks"):
        assert col in row
    assert set(rep.verdicts) == {"clt_variance", "clt_ks",
                                 "clt_riemann_variance", "clt_riemann_ks"}
    assert 1.2 < row["scaled_var"] < 2.8
    assert row["ks"] < 0.2
    assert row["estimator_gap"] == abs(row["scaled_var"] - row["riemann_scaled_var"])
    assert row["estimator_gap"] >= 0.0
    # the two estimators differ by one trapezoid end correction
    assert row["estimator_gap"] < 0.5


def test_riemann_vs_continuous_gap_column(ou_setup):
    # the gap between the continuous and Riemann estimators is a column of
    # every CLT_NORMALITY row, not a kind of its own
    m, f = ou_setup
    s = ExperimentSpec(**spec_kw(m, f, epsilon_list=(0.05,), replicates=400,
                                 master_seed=9))
    rep = run_clt_normality(s, mf_target=2.0)
    row = rep.rows[0]
    assert row["estimator_gap"] == abs(row["scaled_var"] - row["riemann_scaled_var"])
    assert row["estimator_gap"] >= 0.0
    # the two estimators differ by one trapezoid end correction
    assert row["estimator_gap"] < 0.5


def test_clt_kind_mismatch(ou_setup):
    m, f = ou_setup
    s = ExperimentSpec(**spec_kw(m, f, kind=LLN_RATE,
                                 policy=SchedulePolicy(theta_step=1.5),
                                 epsilon_list=(0.2, 0.1, 0.05), replicates=50))
    with pytest.raises(HarnessError, match="expected kind CLT_NORMALITY"):
        run_clt_normality(s, mf_target=2.0)
    with pytest.raises(HarnessError, match="LLN_RATE"):
        run_lln_rate(ExperimentSpec(**spec_kw(m, f)))


def mdp_spec(m, f, levels, **over):
    kw = spec_kw(m, f, kind=MDP_TAIL,
                 policy=SchedulePolicy(theta_step=2.5, gamma_mdp=0.3),
                 epsilon_list=(0.2, 0.1), replicates=150, horizon=0.5,
                 mdp_levels=levels)
    kw.update(over)
    return ExperimentSpec(**kw)


@pytest.mark.parametrize("levels", [(0.0,), (-1.0, 0.0), (1.0, -0.5), (math.nan,)],
                         ids=["zero", "negative-and-zero", "one-negative", "nan"])
def test_mdp_rejects_non_positive_levels(ou_setup, levels):
    # every |Upsilon| exceeds level 0, so its tail frequency 1 would pass
    # against a zero rate and say nothing; a negative level is judged at
    # the gap of |x|
    m, f = ou_setup
    with pytest.raises(HarnessError, match=re.escape(f"levels must be > 0, got {list(levels)}")):
        mdp_spec(m, f, levels)


def test_mdp_requires_levels_and_targets(ou_setup):
    m, f = ou_setup
    # a level-less spec cannot be built, so run_mdp_tail never sees it
    with pytest.raises(HarnessError, match="at least one level"):
        mdp_spec(m, f, ())
    with pytest.raises(HarnessError, match="no rate target"):
        run_mdp_tail(mdp_spec(m, f, (1.0,)), {})


def test_mdp_precondition_rejects_starved_level(monkeypatch, ou_setup):
    m, f = ou_setup
    calls = []
    simulate_batch = harness.simulate_batch

    def counted(*args, **kwargs):
        calls.append(args)
        return simulate_batch(*args, **kwargs)
    monkeypatch.setattr(harness, "simulate_batch", counted)
    # honest rate target for a far level: predicted hits are far below 10;
    # it is refused before the first epsilon's batch is simulated
    x = 5.0
    with pytest.raises(HarnessError, match="exceedances"):
        run_mdp_tail(mdp_spec(m, f, (1.0, x)), {1.0: mdp_closed_form_rate(1.0, 0.5, 2.0),
                                                x: mdp_closed_form_rate(x, 0.5, 2.0)})
    assert calls == []


def test_mdp_censoring_is_reported(ou_setup):
    m, f = ou_setup
    # understated rate target passes the precondition, but the actual
    # sample never exceeds the level: censored out, verdict false
    x = 3.0
    rep = run_mdp_tail(mdp_spec(m, f, (x,)), {x: 0.01})
    assert not rep.verdicts["mdp_level_3"]
    assert any("censored" in n for n in rep.notes)
    assert rep.rows[0].get(f"censored_{x:g}") is True


@pytest.mark.parametrize("kind", [LLN_RATE, CLT_NORMALITY, MDP_TAIL, SCHEDULE_VIOLATION])
def test_one_batch_held_at_a_time(monkeypatch, ou_setup, kind):
    # each epsilon's batch (41 B a replicate) and the arrays derived from it
    # are freed before the next batch runs: the traced memory held when a
    # batch starts is what was held when the first one started
    m, f = ou_setup
    n = 100_000
    kw = dict(kind=kind, replicates=n, horizon=0.5, master_seed=2, epsilon_list=(0.2, 0.1))
    if kind == LLN_RATE:
        kw.update(policy=SchedulePolicy(theta_step=1.5), epsilon_list=(0.2, 0.1, 0.05))
    if kind == MDP_TAIL:
        kw.update(policy=SchedulePolicy(theta_step=2.5, gamma_mdp=0.3), mdp_levels=(1.0,))
    held = []
    simulate_batch = harness.simulate_batch

    def recorded(*args, **kwargs):
        held.append(tracemalloc.get_traced_memory()[0])
        return simulate_batch(*args, **kwargs)
    monkeypatch.setattr(harness, "simulate_batch", recorded)
    tracemalloc.start()
    try:
        run_experiment(ExperimentSpec(**spec_kw(m, f, **kw)), mf_target=2.0)
    finally:
        tracemalloc.stop()
    assert len(held) == (3 if kind == LLN_RATE else 4 if kind == SCHEDULE_VIOLATION else 2)
    assert max(held) < held[0] + 8 * n


def test_schedule_violation_informative(ou_setup):
    m, f = ou_setup
    s = ExperimentSpec(**spec_kw(m, f, kind=SCHEDULE_VIOLATION,
                                 epsilon_list=(0.05,), replicates=600,
                                 master_seed=5))
    rep = run_schedule_violation(s, mf_target=2.0)
    assert set(rep.verdicts) == {"valid_schedule_variance"}
    row = rep.rows[0]
    assert row["invalid_theta"] == 1.0
    assert row["valid_theta"] == 2.5
    assert any("informative" in n for n in rep.notes)


DISPATCH_KW = {
    LLN_RATE: dict(policy=SchedulePolicy(theta_step=1.5),
                   epsilon_list=(0.2, 0.1, 0.05), replicates=50),
    CLT_NORMALITY: dict(epsilon_list=(0.1,), replicates=150),
    MDP_TAIL: dict(policy=SchedulePolicy(theta_step=2.5, gamma_mdp=0.3),
                   epsilon_list=(0.2, 0.1), replicates=150, horizon=0.5,
                   mdp_levels=(1.0,)),
    SCHEDULE_VIOLATION: dict(epsilon_list=(0.1,), replicates=150),
}


@pytest.mark.parametrize("kind", KINDS)
def test_run_experiment_dispatch(ou_setup, kind):
    m, f = ou_setup
    s = ExperimentSpec(**spec_kw(m, f, kind=kind, master_seed=1, **DISPATCH_KW[kind]))
    rep = run_experiment(s, mf_target=2.0)
    assert rep.kind == kind
    if kind == MDP_TAIL:
        direct = run_mdp_tail(s, {x: mdp_closed_form_rate(x, s.horizon, 2.0)
                                  for x in s.mdp_levels})
        assert rep.to_json_dict() == direct.to_json_dict()
    if kind == SCHEDULE_VIOLATION:
        assert rep.rows[0]["invalid_theta"] == 1.0


# ------------------------------------------------------------ serialization


def test_report_json_deterministic(ou_setup):
    # two runs of one spec serialize to the same bytes
    m, f = ou_setup
    reps = [run_mdp_tail(mdp_spec(m, f, (0.5,)), {0.5: 0.1}) for _ in range(2)]
    first, second = (json.dumps(r.to_json_dict(), indent=1, sort_keys=True) for r in reps)
    assert first == second
    assert reps[0].to_json_dict()["provenance"]["spec"]["kind"] == MDP_TAIL


def test_report_csv_has_level_columns(tmp_path, ou_setup):
    m, f = ou_setup
    rep = run_mdp_tail(mdp_spec(m, f, (0.5,)), {0.5: 0.1})
    p = tmp_path / "summary.csv"
    rep.to_csv(str(p))
    header = p.read_text().splitlines()[0]
    assert "tail_freq_0.5" in header
    assert header.startswith("epsilon,")
