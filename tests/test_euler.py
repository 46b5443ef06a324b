import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergosim import euler
from ergosim.euler import (ControlFunction, SchedulePolicy, ScheduleError,
                           SimulationError, StepSchedule,
                           TrajectoryExplodedError, grid_floor,
                           replicate_stream, simulate_batch, simulate_euler,
                           simulate_reference)
from ergosim.models import FunctionalSpec, builtin_model

SQRT2 = math.sqrt(2.0)


def ou():
    return builtin_model("ou", dict(kappa=1.0, mu=0.0, sigma=SQRT2))


def f_identity():
    return FunctionalSpec(value=lambda t, x: np.asarray(x, dtype=float),
                          growth_p0=1.0, centralized=True, name="x")


# ------------------------------------------------------------- schedules


def test_lln_schedule_bounds():
    StepSchedule.from_policy(0.1, "LLN", SchedulePolicy(1.01), 1.0)
    with pytest.raises(ScheduleError, match="LLN requires theta > 1"):
        StepSchedule.from_policy(0.1, "LLN", SchedulePolicy(1.0), 1.0)


def test_clt_schedule_quotes_inequality():
    with pytest.raises(ScheduleError, match=r"theta > 1 \+ 1/nu = 2.0, got 1.5"):
        StepSchedule.from_policy(0.1, "CLT", SchedulePolicy(1.5), 1.0)
    # nu = 1/2 tightens the bound to 3
    with pytest.raises(ScheduleError, match="= 3.0"):
        StepSchedule.from_policy(0.1, "CLT", SchedulePolicy(2.5), 0.5)


def test_mdp_schedule_needs_gamma():
    with pytest.raises(ScheduleError, match="gamma_mdp"):
        StepSchedule.from_policy(0.1, "MDP", SchedulePolicy(2.5), 1.0)
    s = StepSchedule.from_policy(0.04, "MDP", SchedulePolicy(2.5, gamma_mdp=0.35), 1.0)
    assert abs(s.mdp_scale - 0.04**0.35) < 1e-15
    assert abs(s.beta - 0.04 / 0.04**0.7) < 1e-15


def test_schedule_scaling_values():
    s = StepSchedule.from_policy(0.01, "CLT", SchedulePolicy(2.5), 1.0)
    assert abs(s.delta_step - 0.01**2.5) < 1e-18
    assert abs(s.h - 0.01**1.5) < 1e-16
    assert s.n_steps(1.0) == round(1.0 / 0.01**2.5)


def test_negative_epsilon_rejected():
    with pytest.raises(ScheduleError, match="positive"):
        StepSchedule.from_policy(-0.1, "LLN", SchedulePolicy(1.5), 1.0)


def test_grid_floor_on_grid_points():
    assert grid_floor(0.3, 0.1) == 0.3
    assert grid_floor(0.0, 0.1) == 0.0
    assert grid_floor(0.35, 0.1) == pytest.approx(0.3)


@given(st.integers(0, 10_000), st.floats(1e-4, 0.5))
@settings(max_examples=50, deadline=None)
def test_grid_floor_exact_on_multiples(k, delta):
    t = k * delta
    assert grid_floor(t, delta) == t


@given(st.floats(0, 100), st.floats(1e-4, 0.5))
@settings(max_examples=50, deadline=None)
def test_grid_floor_below_t(t, delta):
    g = grid_floor(t, delta)
    assert g <= t + 1e-9 * delta
    assert t - g < delta


# ----------------------------------------------------------- determinism


def test_batch_matches_scalar_path():
    m, f = ou(), f_identity()
    sched = StepSchedule.from_policy(0.05, "CLT", SchedulePolicy(2.1), 1.0)
    batch = simulate_batch(m, sched, f, 0.5, master_seed=7, n_replicates=5)
    acc = simulate_euler(m, sched, f, 0.5, replicate_stream(7, 3))
    assert batch.xi_continuous[3] == acc.xi_continuous[0]
    assert batch.xi_riemann[3] == acc.xi_riemann[0]
    assert batch.sup_abs[3] == acc.sup_norm_seen


def test_thread_count_invariance():
    m, f = ou(), f_identity()
    sched = StepSchedule.from_policy(0.05, "CLT", SchedulePolicy(2.1), 1.0)
    kw = dict(master_seed=123, n_replicates=300)
    r1 = simulate_batch(m, sched, f, 0.3, threads=1, **kw)
    r4 = simulate_batch(m, sched, f, 0.3, threads=4, **kw)
    assert np.array_equal(r1.xi_continuous, r4.xi_continuous)
    assert np.array_equal(r1.terminal, r4.terminal)


@given(st.integers(0, 2**200 - 1),
       st.sampled_from([0, 1, 4094, 4095, 4096, 4097, 2**32 - 3]))
@settings(max_examples=60, deadline=None)
def test_replicate_keys_match_seed_sequence(master_seed, first):
    keys = euler._replicate_keys(master_seed, first, 3)
    for j in range(3):
        seq = np.random.SeedSequence(entropy=master_seed, spawn_key=(first + j,))
        assert np.array_equal(keys[j], seq.generate_state(2, np.uint64))


def test_replicate_keys_reject_two_word_indices():
    with pytest.raises(SimulationError, match="2\\*\\*32"):
        euler._replicate_keys(0, 2**32 - 1, 2)


def _assert_rows_match_scalar(batch, m, sched, f, horizon, seed, first, rows, control=None):
    for i in rows:
        acc = simulate_euler(m, sched, f, horizon, replicate_stream(seed, first + i),
                             control=control)
        assert batch.xi_continuous[i] == acc.xi_continuous[0]
        assert batch.xi_riemann[i] == acc.xi_riemann[0]
        assert batch.sup_abs[i] == acc.sup_norm_seen


def test_batch_matches_scalar_across_chunk_boundary():
    m, f = ou(), f_identity()
    sched = StepSchedule.from_policy(0.05, "CLT", SchedulePolicy(2.1), 1.0)
    n = euler._CHUNK + 3
    batch = simulate_batch(m, sched, f, 0.05, master_seed=31, n_replicates=n, threads=2,
                           first_index=5)
    _assert_rows_match_scalar(batch, m, sched, f, 0.05, 31, 5,
                              (0, euler._CHUNK - 1, euler._CHUNK, n - 1))


@pytest.mark.parametrize("with_control", [False, True])
def test_batch_matches_scalar_across_noise_blocks(monkeypatch, with_control):
    # 64 floats over 5 replicates: 12-step noise blocks, so every path
    # resumes its stream from saved state many times
    monkeypatch.setattr(euler, "_NOISE_BUDGET", 64)
    m, f = ou(), f_identity()
    sched = StepSchedule.from_policy(0.05, "MDP", SchedulePolicy(2.5, gamma_mdp=0.35), 1.0)
    ctrl = ControlFunction(psi=lambda s: 0.7, l2_bound=1.0, horizon=1.0) if with_control else None
    assert sched.n_steps(0.5) > 3 * (64 // 5)
    batch = simulate_batch(m, sched, f, 0.5, master_seed=2**70 + 9, n_replicates=5,
                           control=ctrl)
    _assert_rows_match_scalar(batch, m, sched, f, 0.5, 2**70 + 9, 0, range(5), control=ctrl)


def test_first_index_offsets_streams():
    m, f = ou(), f_identity()
    sched = StepSchedule.from_policy(0.05, "CLT", SchedulePolicy(2.1), 1.0)
    full = simulate_batch(m, sched, f, 0.3, master_seed=9, n_replicates=10)
    tail = simulate_batch(m, sched, f, 0.3, master_seed=9, n_replicates=4, first_index=6)
    assert np.array_equal(full.xi_continuous[6:], tail.xi_continuous)


def test_different_seeds_differ():
    m, f = ou(), f_identity()
    sched = StepSchedule.from_policy(0.05, "CLT", SchedulePolicy(2.1), 1.0)
    a = simulate_batch(m, sched, f, 0.3, master_seed=1, n_replicates=8)
    b = simulate_batch(m, sched, f, 0.3, master_seed=2, n_replicates=8)
    assert not np.array_equal(a.xi_continuous, b.xi_continuous)


# ------------------------------------------------------- dynamics oracles


def test_driftless_variance_grows_like_t_over_eps():
    # b=0, sigma=1: Z(T) ~ N(0, T/eps)
    m = builtin_model("ou", dict(kappa=1e-12, mu=0.0, sigma=1.0))
    eps = 0.1
    sched = StepSchedule(epsilon=eps, delta_step=0.01, mdp_scale=1.0,
                         regime="LLN", policy=SchedulePolicy(2.0))
    res = simulate_batch(m, sched, f_identity(), 1.0, master_seed=21,
                         n_replicates=4000, blow_up=1e12)
    v = float(np.var(res.terminal))
    assert abs(v - 1.0 / eps) < 0.6


def test_ou_terminal_moments():
    # fast OU at T=1, eps=0.01 is essentially stationary: N(0, 1)
    m, f = ou(), f_identity()
    sched = StepSchedule.from_policy(0.01, "LLN", SchedulePolicy(2.0), 1.0)
    res = simulate_batch(m, sched, f, 1.0, master_seed=3, n_replicates=3000)
    assert abs(float(np.mean(res.terminal))) < 0.05
    # discrete stationary variance carries an O(h) = O(eps) bias
    assert abs(float(np.var(res.terminal)) - 1.0) < 0.08


@pytest.mark.parametrize("eps, theta", [(0.05, 2.1), (0.1, 2.5)])
def test_ou_functional_matches_exact_euler_gaussian(eps, theta):
    # Z_{k+1} = r Z_k + sqrt(h) sigma xi_k with r = 1 - h kappa, started at
    # 0, is linear in the normals: the trapezoid functional is exactly
    # N(0, sum coef_k^2), coef_k the weight of xi_k over the m steps after it
    kappa, sigma = 1.0, SQRT2
    sched = StepSchedule.from_policy(eps, "CLT", SchedulePolicy(theta), 1.0)
    dt, h, n = sched.delta_step, sched.h, sched.n_steps(1.0)
    r = 1.0 - h * kappa
    m = n - 1 - np.arange(n)
    coef = dt * math.sqrt(h) * sigma * ((1.0 - r**m) / (1.0 - r) + 0.5 * r**m)
    var_exact = float(np.sum(coef * coef))
    N = 4000
    res = simulate_batch(ou(), sched, f_identity(), 1.0, master_seed=5, n_replicates=N)
    xi = res.xi_continuous
    assert abs(float(np.var(xi, ddof=1)) / var_exact - 1.0) < 5 * math.sqrt(2.0 / (N - 1))
    assert abs(float(np.mean(xi))) < 5 * math.sqrt(var_exact / N)


def test_riemann_and_trapezoid_close():
    m, f = ou(), f_identity()
    sched = StepSchedule.from_policy(0.02, "CLT", SchedulePolicy(2.5), 1.0)
    res = simulate_batch(m, sched, f, 1.0, master_seed=4, n_replicates=50)
    # they differ by half a step of f at each end plus noise terms
    gap = np.max(np.abs(res.xi_continuous - res.xi_riemann))
    assert gap < 50 * sched.delta_step


def test_gompertz_stepped_in_log_space():
    m = builtin_model("gompertz", dict(kappa=1.0, mu=1.0, sigma=1.0))
    f = f_identity()
    sched = StepSchedule.from_policy(0.02, "LLN", SchedulePolicy(1.5), 1.0)
    res = simulate_batch(m, sched, f, 1.0, master_seed=5, n_replicates=2000)
    assert np.all(res.terminal > 0)
    # log-normal(1/2, 1/2) mean = exp(0.75)
    assert abs(float(np.mean(res.terminal)) - math.exp(0.75)) < 0.1


def test_trajectory_explosion_scalar():
    m = builtin_model("ou", dict(kappa=1.0, mu=0.0, sigma=SQRT2))
    bad = type(m)(**{**m.__dict__,
                     "drift": lambda x: np.asarray(x, float) ** 3,
                     "initial_state": np.array([2.0])})
    sched = StepSchedule(epsilon=0.01, delta_step=0.01, mdp_scale=1.0,
                         regime="LLN", policy=SchedulePolicy(2.0))
    with pytest.raises(TrajectoryExplodedError, match="exploded at step"):
        simulate_euler(bad, sched, f_identity(), 1.0, replicate_stream(0, 0))


def test_batch_flags_failures():
    m = builtin_model("ou", dict(kappa=1.0, mu=0.0, sigma=SQRT2))
    bad = type(m)(**{**m.__dict__,
                     "drift": lambda x: np.asarray(x, float) ** 3,
                     "initial_state": np.array([2.0])})
    sched = StepSchedule(epsilon=0.01, delta_step=0.01, mdp_scale=1.0,
                         regime="LLN", policy=SchedulePolicy(2.0))
    res = simulate_batch(bad, sched, f_identity(), 1.0, master_seed=0, n_replicates=4)
    assert np.all(res.failed)
    assert np.all(res.fail_step > 0)
    assert np.all(np.isnan(res.xi_continuous))


# ---------------------------------------------------------------- control


def test_zero_control_is_bitwise_identical():
    m, f = ou(), f_identity()
    sched = StepSchedule.from_policy(0.05, "MDP", SchedulePolicy(2.5, gamma_mdp=0.35), 1.0)
    psi = ControlFunction(psi=lambda s: 0.0, l2_bound=1.0, horizon=1.0)
    plain = simulate_euler(m, sched, f, 1.0, replicate_stream(11, 0))
    ctrl = simulate_euler(m, sched, f, 1.0, replicate_stream(11, 0), control=psi)
    assert plain.xi_continuous[0] == ctrl.xi_continuous[0]


def test_control_requires_mdp_schedule():
    m, f = ou(), f_identity()
    sched = StepSchedule.from_policy(0.05, "CLT", SchedulePolicy(2.5), 1.0)
    psi = ControlFunction(psi=lambda s: 0.0, l2_bound=1.0, horizon=1.0)
    with pytest.raises(ScheduleError, match="MDP"):
        simulate_euler(m, sched, f, 1.0, replicate_stream(0, 0), control=psi)


def test_control_budget_enforced():
    with pytest.raises(ValueError, match="exceeds declared bound"):
        ControlFunction(psi=lambda s: 2.0, l2_bound=1.0, horizon=1.0)


def test_control_budget_nonconstant():
    # int_0^1 s^2 ds = 1/3
    ControlFunction(psi=lambda s: s, l2_bound=0.34, horizon=1.0)
    with pytest.raises(ValueError, match="exceeds declared bound"):
        ControlFunction(psi=lambda s: s, l2_bound=0.33, horizon=1.0)


def test_nonzero_control_shifts_mean():
    m, f = ou(), f_identity()
    sched = StepSchedule.from_policy(0.02, "MDP", SchedulePolicy(2.5, gamma_mdp=0.35), 1.0)
    psi = ControlFunction(psi=lambda s: 1.0, l2_bound=1.1, horizon=1.0)
    plain = simulate_batch(m, sched, f, 1.0, master_seed=8, n_replicates=200)
    tilted = simulate_batch(m, sched, f, 1.0, master_seed=8, n_replicates=200, control=psi)
    shift = float(np.mean(tilted.xi_continuous) - np.mean(plain.xi_continuous))
    assert shift > 5 * sched.mdp_scale * 0.1  # visibly tilted upward


# -------------------------------------------------------------- reference


def test_reference_requires_fine_factor():
    m, f = ou(), f_identity()
    with pytest.raises(ValueError, match="fine_factor"):
        simulate_reference(m, 0.1, 5, f, 0.5, replicate_stream(0, 0))


def test_reference_agrees_with_coarse_on_shared_noise():
    # same Brownian increments, refined grid: functionals should be close
    m, f = ou(), f_identity()
    eps = 0.1
    sched = StepSchedule(epsilon=eps, delta_step=0.01, mdp_scale=1.0,
                         regime="LLN", policy=SchedulePolicy(2.0))
    rng = replicate_stream(42, 0)
    n = sched.n_steps(1.0)
    noise = rng.standard_normal((n, 1))
    coarse = simulate_euler(m, sched, f, 1.0, rng, noise=noise)
    # refine 10x, splitting each increment into 10 scaled pieces
    fine_noise = (noise[:, 0][:, None] * np.full(10, 1.0 / math.sqrt(10.0))).reshape(-1, 1)
    ref = simulate_reference(m, eps, 10, f, 1.0, rng, base_delta=0.01,
                             noise=fine_noise)
    assert abs(coarse.xi_continuous[0] - ref.xi_continuous[0]) < 0.15


def test_batch_rejects_vector_functionals():
    m = ou()
    f2 = FunctionalSpec(value=lambda t, x: np.array([x, x]), growth_p0=1.0,
                        centralized=True, n_components=2)
    sched = StepSchedule.from_policy(0.05, "CLT", SchedulePolicy(2.1), 1.0)
    with pytest.raises(SimulationError, match="scalar"):
        simulate_batch(m, sched, f2, 0.5, master_seed=0, n_replicates=2)
