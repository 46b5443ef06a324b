"""Scaled Euler-Maruyama simulation of the fast process and its functionals.

The process is stepped in rescaled form: over a grid step of width
``delta_step`` the update is

    Z(t_{k+1}) = Z(t_k) + b(Z(t_k)) * h + sigma(Z(t_k)) * sqrt(h) * xi_k

with ``h = delta_step / epsilon`` and i.i.d. standard normal ``xi_k``.
Path functionals (running integral of f along the path, and its
left-endpoint Riemann variant) are accumulated online; full trajectories
are never stored.  The update is written once, in the 1D kernel
``_run_paths``; its three callers differ only in where the normals come from.

The kernel steps a block of normals at a time (one row per replicate).
It copies each ``_TILE``-step window of the block into a contiguous
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
and fills every row of a noise block in one call of a small C routine
(``_philox_fill.c``) on numpy's Philox4x64-10 stream kept per row in a
uint64 state array.  One fused loop per row generates the row's words
two counter blocks at a time and turns each into a normal with the fast
path of numpy's ziggurat; the rare word it does not accept goes to
numpy's own ``random_standard_normal`` from ``libnpyrandom.a``.  The
ziggurat tables are probed out of that function when the routine is
loaded, and a filled row is then compared with ``replicate_stream``
(:class:`NativeBuildError` if they differ), so the fill draws exactly
the numbers of ``replicate_stream``.  The routine is compiled with gcc
on first use into a per-user cache and runs without the GIL.  With
``threads >= 2`` one helper thread fills the next noise block into a
second buffer while the caller's thread steps the current one.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import math
import os
import subprocess
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
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


class NativeBuildError(SimulationError):
    """The native Philox fill could not be built or loaded."""


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


# ---------------------------------------------------------------------------
# the native per-row Philox fill
# ---------------------------------------------------------------------------

_CC = "gcc"
_FILL_SOURCE = Path(__file__).with_name("_philox_fill.c")
_CACHE_DIR = Path.home() / ".cache" / "ergosim"
_STATE_WORDS = 11  # per row: Philox counter (4), key (2), buffer (4), buffer position
_fill_fn = None


def _native_fill():
    """``philox_normal_fill`` of the compiled ``_philox_fill.c``.

    The shared library is built once per machine into ``_CACHE_DIR``,
    under a name keyed by a hash of the C source, of numpy's
    ``libnpyrandom.a`` and of the compiler flags.  It is compiled to a
    temporary name and renamed into place, so concurrent first uses never
    load a partial file.  Once per process the library probes its
    ziggurat tables out of numpy and passes :func:`_check_fill`.
    """
    global _fill_fn
    if _fill_fn is not None:
        return _fill_fn
    lib = Path(np.__file__).parent / "random" / "lib" / "libnpyrandom.a"
    if not lib.is_file():
        raise NativeBuildError(
            f"cannot build the native Philox fill: numpy's static library {lib} is missing")
    flags = ["-O3", "-shared", "-fPIC", "-I", np.get_include()]
    digest = hashlib.sha256(_FILL_SOURCE.read_bytes() + lib.read_bytes()
                            + " ".join(flags).encode()).hexdigest()[:16]
    target = _CACHE_DIR / f"philox_fill-{digest}.so"
    if not target.is_file():
        try:
            _CACHE_DIR.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(suffix=".so", dir=_CACHE_DIR)
        except OSError as exc:
            raise NativeBuildError(
                f"cannot build the native Philox fill: cache directory {_CACHE_DIR} "
                f"is not writable ({exc.strerror})") from None
        os.close(fd)
        try:
            try:
                proc = subprocess.run(
                    [_CC, *flags, str(_FILL_SOURCE), str(lib), "-lm", "-o", tmp],
                    capture_output=True, text=True)
            except OSError as exc:
                raise NativeBuildError(
                    f"cannot build the native Philox fill: cannot run compiler {_CC!r} "
                    f"({exc.strerror})") from None
            if proc.returncode != 0:
                raise NativeBuildError(
                    f"cannot build the native Philox fill: {_CC} failed:\n{proc.stderr.strip()}")
            os.replace(tmp, target)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    lib = ctypes.CDLL(str(target))
    lib.philox_probe_tables.argtypes = ()
    lib.philox_probe_tables.restype = None
    lib.philox_probe_tables()
    fn = lib.philox_normal_fill
    fn.argtypes = (ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p, ctypes.c_int64)
    fn.restype = None
    _check_fill(fn)
    _fill_fn = fn
    return fn


# the self-check row: its 1654th normal comes from the ziggurat's tail
_CHECK_SEED, _CHECK_INDEX, _CHECK_WIDTH = 0, 6, 2000


def _check_fill(fn) -> None:
    """Raise :class:`NativeBuildError` unless ``fn`` fills one row exactly as
    :func:`replicate_stream` draws it and leaves numpy's Philox state behind.

    The fill's ziggurat tables are probed out of numpy at load time; a
    numpy whose ziggurat changed shows here, not as different streams.
    """
    state = _start_streams(np.empty((1, _STATE_WORDS), np.uint64), _CHECK_SEED, _CHECK_INDEX)
    out = np.empty((1, _CHECK_WIDTH))
    fn(state.ctypes.data, 1, out.ctypes.data, _CHECK_WIDTH)
    ref = replicate_stream(_CHECK_SEED, _CHECK_INDEX)
    want = ref.standard_normal(_CHECK_WIDTH)
    if (out[0].tobytes() != want.tobytes()
            or state[0].tobytes() != _philox_row(ref.bit_generator).tobytes()):
        raise NativeBuildError(
            "the native Philox fill does not reproduce numpy's normals; numpy's "
            f"ziggurat may have changed (numpy {np.__version__})")


def _start_streams(state: np.ndarray, master_seed: int, first: int) -> np.ndarray:
    """Reset row ``j`` of ``state`` to the start of ``replicate_stream(master_seed, first + j)``."""
    state[:] = 0
    state[:, 4:6] = _replicate_keys(master_seed, first, len(state))
    state[:, 10] = 4  # empty buffer: the first draw increments the counter
    return state


def _philox_row(bit_generator: np.random.Philox) -> np.ndarray:
    """The ``(_STATE_WORDS,)`` row state of a numpy ``Philox`` generator."""
    st = bit_generator.state
    return np.array([*st["state"]["counter"], *st["state"]["key"],
                     *st["buffer"], st["buffer_pos"]], dtype=np.uint64)


def _philox_normals(state: np.ndarray, out: np.ndarray) -> None:
    """Fill row ``j`` of ``out`` with the next normals of the stream in ``state[j]``.

    ``out`` is a C-contiguous float64 ``(n, k)`` array and ``state`` a
    C-contiguous ``(n, _STATE_WORDS)`` uint64 array, advanced in place; the
    fill holds no GIL.
    """
    if not (out.dtype == np.float64 and out.ndim == 2 and out.flags.c_contiguous
            and state.dtype == np.uint64 and state.shape == (len(out), _STATE_WORDS)
            and state.flags.c_contiguous):
        raise ValueError("the Philox fill needs C-contiguous float64 (n, k) output "
                         "and uint64 (n, 11) state")
    _native_fill()(state.ctypes.data, len(out), out.ctypes.data, out.shape[1])


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
    n_steps = schedule.n_steps(horizon)
    if noise is None:
        def fill(out, chunk, done):
            rng.standard_normal(out=out[0])
    else:
        noise = np.asarray(noise, dtype=float).reshape(len(noise), -1)
        if len(noise) < n_steps:
            raise SimulationError(
                f"injected noise has {len(noise)} steps; the schedule needs {n_steps}")

        def fill(out, chunk, done):
            out[0] = noise[done:done + out.shape[1], 0]
    res = _run_paths(model, schedule, f, horizon, blow_up, control, 1,
                     _noise_blocks([1], n_steps, fill))
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
_NOISE_BUDGET = 8_000_000  # floats across all noise buffers of one run
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

    Replicates are stepped in fixed-size chunks, one after another, in the
    caller's thread.  With ``threads >= 2``, one helper thread fills the
    next noise block (of this chunk or the next) while the current one
    steps; more threads add nothing.  The output is a deterministic
    function of (model, schedule, f, horizon, master_seed, n_replicates),
    whatever ``threads``.
    """
    _native_fill()  # a failed build raises here, in the caller's thread
    chunks = [(first_index + i, min(_CHUNK, n_replicates - i))
              for i in range(0, n_replicates, _CHUNK)]
    # one stream state per row of the largest chunk, reset at each chunk's
    # first block; fills run one block at a time, so rows never race
    state = np.empty((min(_CHUNK, n_replicates), _STATE_WORDS), np.uint64)

    def fill(out, chunk, done):
        rows = state[:len(out)]
        if done == 0:
            _start_streams(rows, master_seed, chunks[chunk][0])
        _philox_normals(rows, out)

    n_steps = schedule.n_steps(horizon)
    with ThreadPoolExecutor(1) if threads >= 2 else contextlib.nullcontext() as pool:
        blocks = _noise_blocks([n for _, n in chunks], n_steps, fill, pool)
        parts = [_run_paths(model, schedule, f, horizon, blow_up, control, n, blocks)
                 for _, n in chunks]
    return BatchResult._concat(parts)


def _noise_blocks(sizes, n_steps, fill, pool=None, budget=_NOISE_BUDGET):
    """Yield the noise block of every (chunk, block) in stepping order.

    Chunk ``c`` has ``sizes[c]`` rows and ``n_steps`` steps, cut into
    blocks of at most the noise budget; ``fill(out, c, done)`` writes the
    normals of steps ``done, done+1, ...`` into ``out``.  Blocks are
    C-contiguous views of buffers allocated once here, together at most
    ``budget`` floats unless one step of a chunk needs more (a block holds
    at least one step).  Without a pool each block is filled in the
    caller's thread just before it is yielded.  With one, the next block
    is filled ahead on the pool into a second buffer while the caller
    steps the current block; a buffer is refilled only after the caller
    has asked for the block that follows the one it held, and at most one
    block is in flight, so a chunk's blocks fill in order.
    """
    n_bufs = 2 if pool is not None else 1
    plan = []
    for c, n in enumerate(sizes):
        block = max(1, min(n_steps, budget // n_bufs // n))
        plan += [(c, n, done, min(block, n_steps - done)) for done in range(0, n_steps, block)]
    bufs = [np.empty(max((n * k for _, n, _, k in plan), default=0)) for _ in range(n_bufs)]

    def view(i):
        _, n, _, k = plan[i]
        return bufs[i % n_bufs][:n * k].reshape(n, k)

    if n_bufs == 1:
        for i, (c, _, done, _) in enumerate(plan):
            out = view(i)
            fill(out, c, done)
            yield out
        return

    def start(i):
        c, _, done, _ = plan[i]
        out = view(i)
        return out, pool.submit(fill, out, c, done)

    ahead = start(0) if plan else None
    for i in range(1, len(plan) + 1):
        out, fut = ahead
        fut.result()
        if i < len(plan):
            ahead = start(i)
        yield out


def _run_paths(model, schedule, f, horizon, blow_up, control, n, blocks) -> BatchResult:
    """Step ``n`` 1D paths together on the noise blocks drawn from the
    iterator ``blocks``: each is an ``(n, kblk)`` array of the normals of
    the next ``kblk`` steps, read only until the next block is drawn.

    Rows that failed in a noise block are replayed from the block's start,
    so ``fail_step`` is exact; a failed path restarts at ``x0`` and ends
    with NaN functionals, ``sup_abs`` and terminal state.
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

    tile = np.empty((n, _TILE))
    done = 0
    with np.errstate(over="ignore", invalid="ignore"):
        while done < n_steps:
            noise = next(blocks)
            kblk = noise.shape[1]
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
    # a failed path has no terminal state or running sup: where it restarted,
    # and whether a later block turned its sup NaN, depend on the noise
    # block size, and so on the thread count
    terminal = np.where(failed, np.nan, terminal)
    sup = np.where(failed, np.nan, sup)
    return BatchResult(xi_c, xi_r, sup, terminal, failed, fail_step)
