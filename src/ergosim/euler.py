"""Scaled Euler-Maruyama simulation of the fast process and its functionals.

The process is stepped in rescaled form: over a grid step of width
``delta_step`` the update is

    Z(t_{k+1}) = Z(t_k) + b(Z(t_k)) * h + sigma(Z(t_k)) * sqrt(h) * xi_k

with ``h = delta_step / epsilon`` and i.i.d. standard normal ``xi_k``.
Path functionals (running integral of f along the path, and its
left-endpoint Riemann variant) are accumulated online; full trajectories
are never stored.  The update is written once, in the 1D kernel
``_run_paths``; its three callers differ only in where the normals come from.

The kernel fills a block of normals row by row (one row per replicate),
then copies each ``_TILE``-step window of the block into a contiguous
``(n, _TILE)`` tile and steps from the tile's columns: a column of the
whole block is a strided read that touches one page per row.  A
:class:`~ergosim.models.ConstantDiffusion` is folded into that copy, so
the tile holds ``(sqrt(h)*sigma)*xi`` and no step calls the diffusion.
The step keeps one association order, ``(z + h*b) + (sqrt(h)*s)*xi``
and then ``+ (ctrl_coef*psi)*s`` for a control, so every output is the
same bit for bit whatever the tile width, the block size or the fold.

Randomness is organized as counter-based per-replicate streams derived
from ``(master_seed, replicate_index)`` so that replicate results do not
depend on execution order, chunking, or thread count.
:func:`replicate_stream` is the reference: a Philox generator keyed by
``SeedSequence(entropy=master_seed, spawn_key=(i,))``.  The batched
caller derives all keys of a chunk at once (:func:`_replicate_keys`)
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

from .models import ConstantDiffusion, FunctionalSpec, SdeModel
from .quadrature import panel_integral


class SimulationError(Exception):
    pass


class TrajectoryExplodedError(SimulationError):
    def __init__(self, step: int):
        self.step = step
        super().__init__(
            f"trajectory exploded at step {step}; "
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


def simulate_euler(
    model: SdeModel,
    schedule: StepSchedule,
    f: FunctionalSpec,
    horizon: float,
    rng: np.random.Generator,
    blow_up: float = 1e8,
    noise: Optional[np.ndarray] = None,
    control: Optional[ControlFunction] = None,
) -> BatchResult:
    """One path of the Euler kernel; returns its 1-replicate :class:`BatchResult`.

    The normals come from ``rng``, or from ``noise`` (shape
    ``(n_steps, 1)``) when given, which is how coupled-refinement
    convergence checks share a Brownian path.  ``control`` adds the tilt
    drift ``(delta/eps) * sigma * psi(t) * Delta`` after each step; it
    requires an MDP schedule.  Raises :class:`TrajectoryExplodedError`
    at the first step where the path leaves ``[-blow_up, blow_up]``.
    """
    if noise is None:
        def fill(out, done):
            rng.standard_normal(out=out[0])
    else:
        noise = np.asarray(noise, dtype=float).reshape(len(noise), -1)
        n_steps = schedule.n_steps(horizon)
        if len(noise) < n_steps:
            raise SimulationError(
                f"injected noise has {len(noise)} steps; the schedule needs {n_steps}")

        def fill(out, done):
            out[0] = noise[done:done + out.shape[1], 0]
    res = _run_paths(model, schedule, f, horizon, blow_up, control, 1, fill)
    if res.failed[0]:
        raise TrajectoryExplodedError(int(res.fail_step[0]))
    return res


def simulate_reference(
    model: SdeModel,
    epsilon: float,
    fine_factor: int,
    f: FunctionalSpec,
    horizon: float,
    rng: np.random.Generator,
    base_delta: Optional[float] = None,
    **kw,
) -> BatchResult:
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
# batched replicates and the one Euler kernel all three simulators run on
# ---------------------------------------------------------------------------

_CHUNK = 4096  # fixed so results never depend on thread count
_NOISE_BUDGET = 8_000_000  # floats per in-flight noise block
_TILE = 32  # steps per contiguous noise tile


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
    # one Philox re-keyed per replicate: row j of each noise block continues
    # the stream replicate_stream(master_seed, start_index + j) would draw
    bitgen = np.random.Philox(0)
    gen = np.random.Generator(bitgen)
    keys = _replicate_keys(master_seed, start_index, n)
    fresh = {"bit_generator": "Philox", "state": {"counter": np.zeros(4, np.uint64), "key": None},
             "buffer": np.zeros(4, np.uint64), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    saved = [None] * n  # where each stream stopped, for paths spanning several blocks
    n_steps = schedule.n_steps(horizon)

    def fill(out, done):
        more = done + out.shape[1] < n_steps
        for j in range(n):
            if done == 0:
                fresh["state"]["key"] = keys[j]
                bitgen.state = fresh
            else:
                bitgen.state = saved[j]
            gen.standard_normal(out=out[j])
            if more:
                saved[j] = bitgen.state
    return _run_paths(model, schedule, f, horizon, blow_up, control, n, fill)


def _run_paths(model, schedule, f, horizon, blow_up, control, n, fill) -> BatchResult:
    """Step ``n`` 1D paths together; ``fill(out, done)`` writes the normals
    of steps ``done, done+1, ...`` into ``out`` (shape ``(n, kblk)``).

    Rows that failed in a noise block are replayed from the block's start,
    so ``fail_step`` is exact; a failed path restarts at ``x0`` with NaN
    functionals.
    """
    if model.dim_state != 1 or model.dim_noise != 1:
        raise SimulationError("the Euler kernel supports 1D models only")
    if f.n_components != 1:
        raise SimulationError("the Euler kernel supports scalar functionals")
    if control is not None and schedule.regime != MDP:
        raise ScheduleError("controlled simulation requires an MDP schedule")
    # coefficients and state map in the coordinates actually stepped
    drift, diffusion, state_map, x0 = (
        (model.sim_drift, model.sim_diffusion, model.state_map, model.sim_initial_state)
        if model.sim_drift is not None
        else (model.drift, model.diffusion, None, model.initial_state))
    h = schedule.h
    sqrt_h = math.sqrt(h)
    dt = schedule.delta_step
    n_steps = schedule.n_steps(horizon)
    ctrl_coef = schedule.mdp_scale / schedule.epsilon * dt if control is not None else 0.0
    # a constant diffusion is folded into the tile: the tile holds
    # scale*xi = (sqrt_h*sigma)*xi, and no step calls the diffusion
    fold = isinstance(diffusion, ConstantDiffusion)
    sigma = float(diffusion.sigma) if fold else None
    scale = sqrt_h * sigma if fold else 1.0

    def advance(z, w, t):
        # w is the step's normal times scale; z + h*b is a new array, so
        # the in-place adds keep the order (z + h*b) + (sqrt_h*s)*xi
        s = sigma if fold else diffusion(z)
        z = z + h * drift(z)
        z += w if fold else sqrt_h * s * w
        if control is not None:
            z += (ctrl_coef * float(np.asarray(control.psi(t)))) * s
        return z

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
    tile = np.empty((n, _TILE))
    done = 0
    with np.errstate(over="ignore", invalid="ignore"):
        while done < n_steps:
            kblk = min(block, n_steps - done)
            fill(noise[:, :kblk], done)
            # a copy: keeping the block's own z array alive instead raised a
            # 2-thread 102,400-replicate MDP CLI run's peak RSS from 92 to 122 MB
            z_start = z.copy()
            for j in range(0, kblk, _TILE):
                width = min(_TILE, kblk - j)
                # one contiguous copy per tile, not a strided column read per step
                np.multiply(noise[:, j:j + width], scale, out=tile[:, :width])
                for k in range(width):
                    t_k = (done + j + k) * dt
                    xi_r += f_prev * dt
                    z = advance(z, tile[:, k], t_k)
                    f_new = observe(t_k + dt, z)
                    xi_c += 0.5 * (f_prev + f_new) * dt
                    np.maximum(sup, np.abs(xi_c), out=sup)
                    f_prev = f_new
            newly = ~(np.abs(z) <= blow_up) & ~failed
            if np.any(newly):
                rows = np.flatnonzero(newly)
                z_rows = z_start[rows]
                for k in range(kblk):
                    z_rows = advance(z_rows, scale * noise[rows, k], (done + k) * dt)
                    gone = ~(np.abs(z_rows) <= blow_up)
                    fail_step[rows[gone]] = done + k + 1
                    rows, z_rows = rows[~gone], z_rows[~gone]
                    if rows.size == 0:
                        break
                failed |= newly
                z = np.where(failed, float(x0[0]), z)
                xi_c = np.where(failed, np.nan, xi_c)
                xi_r = np.where(failed, np.nan, xi_r)
                f_prev = observe((done + kblk) * dt, z)
            done += kblk
    terminal = state_map(z) if state_map is not None else z
    return BatchResult(xi_c, xi_r, sup, terminal, failed, fail_step)
