"""Scaled Euler-Maruyama simulation of the fast process and its functionals.

The process is stepped in rescaled form: over a grid step of width
``delta_step`` the update is

    Z(t_{k+1}) = Z(t_k) + b(Z(t_k)) * h + sigma(Z(t_k)) * sqrt(h) * xi_k

with ``h = delta_step / epsilon`` and i.i.d. standard normal ``xi_k``.
Path functionals (running integral of f along the path, and its
left-endpoint Riemann variant) are accumulated online; full trajectories
are never stored.

Randomness is organized as counter-based per-replicate streams derived
from ``(master_seed, replicate_index)`` so that replicate results do not
depend on execution order, chunking, or thread count.
:func:`replicate_stream` is the reference: a Philox generator keyed by
``SeedSequence(entropy=master_seed, spawn_key=(i,))``.  The batched
kernel derives all keys of a chunk at once (:func:`_replicate_keys`)
and re-keys one Philox per chunk through its ``state`` dict, so it draws
exactly the numbers of ``replicate_stream`` without building a seed
sequence and generator per replicate.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .models import FunctionalSpec, SdeModel
from .quadrature import panel_integral


class SimulationError(Exception):
    pass


class TrajectoryExplodedError(SimulationError):
    def __init__(self, step: int, value: float):
        self.step = step
        super().__init__(
            f"trajectory exploded at step {step} (|Z| = {value:.3g}); "
            "the step schedule is too coarse for this drift"
        )


class ScheduleError(ValueError):
    pass


LLN = "LLN"
CLT = "CLT"
MDP = "MDP"
REGIMES = (LLN, CLT, MDP)


@dataclass(frozen=True)
class SchedulePolicy:
    """Power-law coupling Delta(eps) = c_step * eps^theta, delta(eps) = eps^gamma_mdp."""

    theta_step: float
    c_step: float = 1.0
    gamma_mdp: Optional[float] = None


@dataclass(frozen=True)
class StepSchedule:
    """The (epsilon, Delta(eps), delta(eps)) triple for one scaling regime."""

    epsilon: float
    delta_step: float
    mdp_scale: float
    regime: str
    policy: SchedulePolicy

    @classmethod
    def from_policy(
        cls, epsilon: float, regime: str, policy: SchedulePolicy, holder_nu: float
    ) -> "StepSchedule":
        if epsilon <= 0:
            raise ScheduleError(f"epsilon must be positive, got {epsilon}")
        if holder_nu <= 0:
            raise ScheduleError("holder_nu must be > 0; no valid step schedule exists otherwise")
        theta = policy.theta_step
        if regime == LLN:
            if theta <= 1.0:
                raise ScheduleError(f"LLN requires theta > 1, got {theta}")
            scale = 1.0
        elif regime in (CLT, MDP):
            bound = 1.0 + 1.0 / holder_nu
            if theta <= bound:
                raise ScheduleError(
                    f"{regime} requires theta > 1 + 1/nu = {bound}, got {theta}"
                )
            if regime == CLT:
                scale = math.sqrt(epsilon)
            else:
                g = policy.gamma_mdp
                if g is None or not (0.0 < g < 0.5):
                    raise ScheduleError(
                        f"MDP requires 0 < gamma_mdp < 1/2, got {g}"
                    )
                scale = epsilon**g
        else:
            raise ScheduleError(f"unknown regime {regime!r}")
        return cls(
            epsilon=epsilon,
            delta_step=policy.c_step * epsilon**theta,
            mdp_scale=scale,
            regime=regime,
            policy=policy,
        )

    @property
    def beta(self) -> float:
        """MDP speed eps / delta(eps)^2."""
        return self.epsilon / self.mdp_scale**2

    @property
    def h(self) -> float:
        """Rescaled step Delta / eps used in the update rule."""
        return self.delta_step / self.epsilon

    def n_steps(self, horizon: float) -> int:
        # horizon snapped down to the grid; the truncation is reported upstream
        return int(math.floor(horizon / self.delta_step + 1e-9))


def grid_floor(t: float, delta: float) -> float:
    """Largest grid point k*delta <= t; exact on grid points."""
    if t < 0 or delta <= 0:
        raise ValueError("require t >= 0 and delta > 0")
    q = t / delta
    k = math.floor(q)
    if q - k > 1.0 - 1e-9:
        k += 1
    kd = k * delta
    if abs(kd - t) <= 1e-12 * delta:
        return t
    return kd


_CONTROL_PANELS = 64  # Gauss-Legendre panels on [0, horizon] for the L2 budget


@dataclass(frozen=True)
class ControlFunction:
    """A deterministic control path psi(t) with an L2 budget over [0, horizon]."""

    psi: Callable[[float], float]
    l2_bound: float
    horizon: float

    def __post_init__(self):
        # psi is evaluated one time at a time: a constant psi such as
        # ``lambda s: 0.7`` returns a scalar for array input
        def sq_norm(s):
            return np.array([np.sum(np.square(self.psi(float(si)))) for si in s])

        cost = panel_integral(sq_norm, np.linspace(0.0, self.horizon, _CONTROL_PANELS + 1))
        if cost > self.l2_bound + 1e-8:
            raise ValueError(
                f"control L2 norm^2 {cost:.6g} exceeds declared bound {self.l2_bound:.6g}"
            )


@dataclass
class FunctionalAccumulator:
    """Online state of the path functionals at the current grid time."""

    xi_continuous: np.ndarray
    xi_riemann: np.ndarray
    sup_norm_seen: float
    t_current: float


def replicate_stream(master_seed: int, replicate_index: int) -> np.random.Generator:
    """Counter-based stream for one replicate, independent of execution order."""
    seq = np.random.SeedSequence(entropy=master_seed, spawn_key=(replicate_index,))
    return np.random.Generator(np.random.Philox(seq))


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _replicate_keys(master_seed: int, first: int, n: int) -> np.ndarray:
    """Philox keys of ``replicate_stream(master_seed, i)`` for i in [first, first + n).

    Row ``j`` equals ``SeedSequence(entropy=master_seed, spawn_key=(first + j,))
    .generate_state(2, np.uint64)``.  The spawn word enters the entropy pool
    after every word of the master seed, so the pool of the unspawned
    sequence is computed once and only the last mixing round and the
    output hash run per replicate, in vectorised uint32 arithmetic.
    """
    master_seed = int(master_seed)
    if first < 0 or first + n > 2**32:
        raise SimulationError(
            "replicate indices must lie in [0, 2**32) for bulk stream derivation")
    pool = np.random.SeedSequence(entropy=master_seed).pool
    seed_words = max(1, -(-master_seed.bit_length() // 32))
    # hashmix calls before the spawn word: fill the pool, mix it all-pairs,
    # then four per master-seed word beyond the pool size
    n_calls = len(pool) ** 2 + len(pool) * max(0, seed_words - len(pool))
    hash_a = _INIT_A * pow(_MULT_A, n_calls, 2**32) & _MASK32
    hash_b = _INIT_B
    spawn = np.arange(first, first + n, dtype=np.uint64).astype(np.uint32)
    words = []
    for p in pool:
        v = spawn ^ np.uint32(hash_a)
        hash_a = hash_a * _MULT_A & _MASK32
        v *= np.uint32(hash_a)
        v ^= v >> np.uint32(16)
        m = np.uint32(_MIX_MULT_L * int(p) & _MASK32) - np.uint32(_MIX_MULT_R) * v
        m ^= m >> np.uint32(16)
        # generate_state's output hash of this pool word
        m ^= np.uint32(hash_b)
        hash_b = hash_b * _MULT_B & _MASK32
        m *= np.uint32(hash_b)
        m ^= m >> np.uint32(16)
        words.append(m.astype(np.uint64))
    keys = np.empty((n, 2), dtype=np.uint64)
    keys[:, 0] = words[0] | (words[1] << np.uint64(32))
    keys[:, 1] = words[2] | (words[3] << np.uint64(32))
    return keys


def _sim_coeffs(model: SdeModel):
    """Coefficients and state map in the coordinates actually stepped."""
    if model.sim_drift is not None:
        return model.sim_drift, model.sim_diffusion, model.state_map, model.sim_initial_state
    return model.drift, model.diffusion, None, model.initial_state


def simulate_euler(
    model: SdeModel,
    schedule: StepSchedule,
    f: FunctionalSpec,
    horizon: float,
    rng: np.random.Generator,
    blow_up: float = 1e8,
    noise: Optional[np.ndarray] = None,
    control: Optional[ControlFunction] = None,
) -> FunctionalAccumulator:
    """Single-path Euler simulation; returns the final accumulator state.

    ``noise`` optionally injects the per-step standard normal increments
    (shape (n_steps, dim_noise)), which is how coupled-refinement
    convergence checks share a Brownian path.

    ``control`` adds the tilt drift ``(delta/eps) * sigma * psi(t) * Delta``
    after each step; it requires an MDP schedule.  With ``psi`` identically
    zero the path equals the uncontrolled one bitwise, and a 1D controlled
    path equals its :func:`simulate_batch` replicate bitwise.
    """
    if control is not None and schedule.regime != MDP:
        raise ScheduleError("controlled simulation requires an MDP schedule")
    drift, diffusion, state_map, x0 = _sim_coeffs(model)
    h = schedule.h
    sqrt_h = math.sqrt(h)
    dt = schedule.delta_step
    n_steps = schedule.n_steps(horizon)
    ctrl_coef = schedule.mdp_scale / schedule.epsilon * dt if control is not None else 0.0

    z = np.array(x0, dtype=float)
    scalar = model.dim_state == 1

    def observe(t, state):
        x = state_map(state) if state_map is not None else state
        return np.atleast_1d(np.asarray(f.value(t, x[0] if scalar else x), dtype=float))

    f_prev = observe(0.0, z)
    xi_c = np.zeros_like(f_prev)
    xi_r = np.zeros_like(f_prev)
    sup = 0.0

    for k in range(n_steps):
        t_k = k * dt
        xi_r = xi_r + f_prev * dt
        if noise is not None:
            xi_k = np.atleast_1d(noise[k])
        else:
            xi_k = rng.standard_normal(model.dim_noise)
        b = np.atleast_1d(np.asarray(drift(z[0] if scalar else z), dtype=float))
        s = np.asarray(diffusion(z[0] if scalar else z), dtype=float)
        if scalar:
            z = z + h * b + sqrt_h * float(s) * xi_k[:1]
        else:
            z = z + h * b + sqrt_h * (np.atleast_2d(s) @ xi_k)
        if control is not None:
            # scalar case in simulate_batch's operation order, so the two agree bitwise
            z = z + ((ctrl_coef * np.atleast_1d(control.psi(t_k))) * float(s) if scalar
                     else ctrl_coef * (np.atleast_2d(s) @ np.atleast_1d(control.psi(t_k))))
        if not np.all(np.isfinite(z)) or np.max(np.abs(z)) > blow_up:
            raise TrajectoryExplodedError(k + 1, float(np.max(np.abs(z))))
        f_new = observe(t_k + dt, z)
        xi_c = xi_c + 0.5 * (f_prev + f_new) * dt
        sup = max(sup, float(np.linalg.norm(xi_c)))
        f_prev = f_new
    return FunctionalAccumulator(
        xi_continuous=xi_c, xi_riemann=xi_r, sup_norm_seen=sup, t_current=n_steps * dt
    )


def simulate_reference(
    model: SdeModel,
    epsilon: float,
    fine_factor: int,
    f: FunctionalSpec,
    horizon: float,
    rng: np.random.Generator,
    base_delta: Optional[float] = None,
    **kw,
) -> FunctionalAccumulator:
    """Fine-grid Euler proxy for the undiscretized fast process.

    The reference step is the working step divided by ``fine_factor``
    (>= 10), so the same machinery doubles as an approximation of the
    continuous-time functional.
    """
    if fine_factor < 10:
        raise ValueError("fine_factor must be >= 10")
    delta = (base_delta if base_delta is not None else epsilon**2) / fine_factor
    sched = StepSchedule(
        epsilon=epsilon,
        delta_step=delta,
        mdp_scale=1.0,
        regime=LLN,
        policy=SchedulePolicy(theta_step=2.0),
    )
    return simulate_euler(model, sched, f, horizon, rng, **kw)


# ---------------------------------------------------------------------------
# batched replicate kernel (1D fast path used by the harness)
# ---------------------------------------------------------------------------

_CHUNK = 4096  # fixed so results never depend on thread count
_NOISE_BUDGET = 8_000_000  # floats per in-flight noise block


@dataclass
class BatchResult:
    xi_continuous: np.ndarray  # (N,)
    xi_riemann: np.ndarray
    sup_abs: np.ndarray
    terminal: np.ndarray
    failed: np.ndarray  # bool
    fail_step: np.ndarray  # int, -1 where ok

    @classmethod
    def _concat(cls, parts: Sequence["BatchResult"]) -> "BatchResult":
        return cls(*[np.concatenate([getattr(p, f.name) for p in parts])
                     for f in cls.__dataclass_fields__.values()])  # type: ignore[arg-type]


def simulate_batch(
    model: SdeModel,
    schedule: StepSchedule,
    f: FunctionalSpec,
    horizon: float,
    master_seed: int,
    n_replicates: int,
    threads: int = 1,
    blow_up: float = 1e8,
    control: Optional[ControlFunction] = None,
    first_index: int = 0,
) -> BatchResult:
    """Run ``n_replicates`` independent 1D paths with per-replicate streams.

    Replicates are processed in fixed-size chunks; chunks may execute on a
    thread pool but are merged by index, so the output is a deterministic
    function of (model, schedule, f, horizon, master_seed, n_replicates).
    """
    if model.dim_state != 1 or model.dim_noise != 1:
        raise SimulationError("simulate_batch supports 1D models; use simulate_euler otherwise")
    if f.n_components != 1:
        raise SimulationError("simulate_batch supports scalar functionals")
    if control is not None and schedule.regime != MDP:
        raise ScheduleError("controlled simulation requires an MDP schedule")
    chunks = [
        (first_index + i, min(_CHUNK, n_replicates - i))
        for i in range(0, n_replicates, _CHUNK)
    ]
    args = (model, schedule, f, horizon, master_seed, blow_up, control)
    if threads > 1 and len(chunks) > 1:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            parts = list(ex.map(lambda c: _simulate_chunk(*args, *c), chunks))
    else:
        parts = [_simulate_chunk(*args, *c) for c in chunks]
    return BatchResult._concat(parts)


def _simulate_chunk(model, schedule, f, horizon, master_seed, blow_up, control,
                    start_index, n):
    drift, diffusion, state_map, x0 = _sim_coeffs(model)
    h = schedule.h
    sqrt_h = math.sqrt(h)
    dt = schedule.delta_step
    n_steps = schedule.n_steps(horizon)
    ctrl_coef = schedule.mdp_scale / schedule.epsilon * dt if control is not None else 0.0
    # one Philox re-keyed per replicate: row j of each noise block continues
    # the stream replicate_stream(master_seed, start_index + j) would draw
    bitgen = np.random.Philox(0)
    gen = np.random.Generator(bitgen)
    keys = _replicate_keys(master_seed, start_index, n)
    fresh = {"bit_generator": "Philox", "state": {"counter": np.zeros(4, np.uint64), "key": None},
             "buffer": np.zeros(4, np.uint64), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    saved = [None] * n  # where each stream stopped, for paths spanning several blocks

    z = np.full(n, float(x0[0]))
    observe = (lambda t, s: np.asarray(f.value(t, state_map(s)), dtype=float)) \
        if state_map is not None else (lambda t, s: np.asarray(f.value(t, s), dtype=float))
    f_prev = observe(0.0, z)
    xi_c = np.zeros(n)
    xi_r = np.zeros(n)
    sup = np.zeros(n)
    failed = np.zeros(n, dtype=bool)
    fail_step = np.full(n, -1, dtype=np.int64)

    block = max(1, min(n_steps, _NOISE_BUDGET // max(n, 1)))
    noise = np.empty((n, block))
    done = 0
    with np.errstate(over="ignore", invalid="ignore"):
        while done < n_steps:
            kblk = min(block, n_steps - done)
            more = done + kblk < n_steps
            for j in range(n):
                if done == 0:
                    fresh["state"]["key"] = keys[j]
                    bitgen.state = fresh
                else:
                    bitgen.state = saved[j]
                gen.standard_normal(out=noise[j, :kblk])
                if more:
                    saved[j] = bitgen.state
            for k in range(kblk):
                t_k = (done + k) * dt
                xi_r += f_prev * dt
                b = drift(z)
                s = diffusion(z)
                z = z + h * b + sqrt_h * s * noise[:, k]
                if control is not None:
                    z = z + (ctrl_coef * float(np.asarray(control.psi(t_k)))) * s
                f_new = observe(t_k + dt, z)
                xi_c += 0.5 * (f_prev + f_new) * dt
                np.maximum(sup, np.abs(xi_c), out=sup)
                f_prev = f_new
            bad = ~np.isfinite(z) | (np.abs(z) > blow_up)
            newly = bad & ~failed
            if np.any(newly):
                failed |= newly
                fail_step[newly] = done + kblk
                z = np.where(failed, float(x0[0]), z)
                xi_c = np.where(failed, np.nan, xi_c)
                xi_r = np.where(failed, np.nan, xi_r)
                f_prev = observe((done + kblk) * dt, z)
            done += kblk
    terminal = state_map(z) if state_map is not None else z
    return BatchResult(xi_c, xi_r, sup, terminal, failed, fail_step)
