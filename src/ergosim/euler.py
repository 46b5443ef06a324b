"""Scaled Euler-Maruyama simulation of the fast process and its functionals.

The process is stepped in rescaled form: over a grid step of width
``delta_step`` the update is

    Z(t_{k+1}) = Z(t_k) + b(Z(t_k)) * h + sigma(Z(t_k)) * sqrt(h) * xi_k

with ``h = delta_step / epsilon`` and i.i.d. standard normal ``xi_k``.
Path functionals (running integral of f along the path, and its
left-endpoint Riemann variant) are accumulated online; full trajectories
are never stored.  The step keeps one association order,
``(z + h*b) + (sqrt(h)*s)*xi`` and then ``+ (ctrl_coef*psi)*s`` for a
control, in both of its kernels:

* the native kernel ``euler_rows`` of ``_philox_fill.c`` runs
  :func:`simulate_batch` when the model's drift and diffusion are OU, CIR
  or polynomial descriptors (:mod:`ergosim.models`) and the functional
  is a :class:`~ergosim.models.PolynomialFunctional`.  Per row it fills
  a short on-stack block of normals from the row's stream, then steps,
  observes and accumulates a group of rows together (8 rows in one
  AVX-512 vector, or 4 scalar rows on the portable path); it checks the
  blow-up bound at every step, so a failed row stops at its exact step.
  It is built without FMA contraction, so it gives the numpy kernel's
  bits.
* the numpy kernel ``_step_paths`` runs everything else (state maps such
  as Gompertz's log space, ``pow``/``exp``/``log`` coefficients, whose
  numpy SIMD results can differ from libm's in the last bit, and
  arbitrary callables), and :func:`simulate_euler`.  It steps the rows
  of a chunk of ``_CHUNK`` one step at a time, on normals drawn ``_TILE``
  steps at a time into one buffer, and checks the blow-up bound at every
  step too.

One private runner, :func:`_run_rows`, picks the kernel by
:func:`_runs_native` for :func:`simulate_batch` and for the
autocorrelation route of ``M_f`` (:mod:`ergosim.variance`).  Both kernels
have the route's observe mode: each row starts from its own state, and
each step's sum of ``w_i * f(X_k)`` over the rows is taken in row order
within chunks of ``_SUM_ROWS`` rows, then over the chunks in order; the
route reads only the trapezoid integrals and terminal states, so the
observe mode leaves ``xi_riemann`` and ``sup_abs`` NaN.  The
library's other entry point, ``antiderivative_eval``, answers the queries
of :class:`~ergosim.quadrature.Antiderivative`, so the density, the
Poisson solution and the gradient form of ``M_f`` load the library too.

Randomness is organized as counter-based per-replicate streams derived
from ``(master_seed, replicate_index)`` so that replicate results do not
depend on execution order, chunking, or thread count.
:func:`replicate_stream` is the reference: a Philox generator keyed by
``SeedSequence(entropy=master_seed, spawn_key=(i,))``.  Since the spawn
word is hashed in after the master seed, a batched call computes the
master seed's entropy pool and the hash constant at the spawn word once
(:func:`_stream_keys`), and the library derives each row's key and
numpy's Philox4x64-10 start state (11 uint64 words) from them where the
row is used: ``euler_rows`` on the stack of the thread that steps the
row, so :func:`simulate_batch` holds no per-replicate stream state, and
``philox_start_rows`` into a state array for the numpy kernel, one chunk
at a time, and for the autocorrelation route, which carries its streams
from one leg to the next.  The C fill generates each row's words 16
counter blocks at a time and turns them into normals with numpy's
ziggurat, its fast path and, for the rare word that path does not
accept, its wedge and tail code, in numpy's order and arithmetic and
with libm's ``exp`` and ``log1p``, as numpy's ``random_standard_normal``
does.  The ziggurat tables are numpy's own: of ``libnpyrandom.a`` the
library links the read-only data of the member that holds them and no
numpy function.  When the library is loaded a row it started and filled
is compared with ``replicate_stream`` (:class:`NativeBuildError` if they
differ), so both kernels draw exactly the numbers of ``replicate_stream``.  The library is compiled with gcc
(flags ``_CFLAGS``) on first use into a per-user cache and runs without
the GIL.  Its fill and its Euler kernel each come in a portable and an
AVX-512 path with the same bits; the library picks one for the CPU when
it is loaded, and ``NATIVE_PATH`` names it.  ``euler_rows`` takes its
rows ``_SUM_ROWS`` at a time on the caller's thread and ``threads - 1``
POSIX threads of its own, placed off the caller's CPU and joined before
it returns, so that neither its rows nor its sums depend on the thread
count; the numpy kernel runs in the caller's thread alone.
"""

from __future__ import annotations

import ctypes
import dataclasses
import functools
import hashlib
import math
import operator
import os
import re
import subprocess
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .models import (CirDiffusion, CirDrift, ConstantDiffusion, FunctionalSpec, OuDrift,
                     Polynomial, PolynomialFunctional, SdeModel)
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


# numpy's SeedSequence hashmix constants (numpy/random/bit_generator.pyx);
# _philox_fill.c holds the rest
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875


class _StreamKeys(ctypes.Structure):
    """``stream_keys`` of ``_philox_fill.c``: the streams
    ``replicate_stream(master_seed, first + j)`` of rows ``j`` in ``[0, n)``,
    each started where it is used (:func:`_stream_keys`)."""

    _fields_ = [("pool", ctypes.c_uint32 * 4), ("hash_a", ctypes.c_uint32),
                ("first", ctypes.c_int64), ("n", ctypes.c_int64)]

    def __len__(self):
        return self.n


def _stream_keys(master_seed: int, first: int, n: int) -> _StreamKeys:
    """The :class:`_StreamKeys` of ``replicate_stream(master_seed, i)`` for i in
    [first, first + n).

    Row ``j``'s Philox key is ``SeedSequence(entropy=master_seed,
    spawn_key=(first + j,)).generate_state(2, np.uint64)``.  The spawn word
    enters the entropy pool after every word of the master seed, so the pool
    of the unspawned sequence and the hash constant at which the spawn word
    is mixed in are computed once, here; the last mixing round and the
    output hash run per row, in C (``start_row``).
    """
    if first < 0 or first + n > 2**32:
        raise SimulationError(
            "replicate indices must lie in [0, 2**32) for bulk stream derivation")
    pool = np.random.SeedSequence(entropy=master_seed).pool
    seed_words = max(1, -(-master_seed.bit_length() // 32))
    # hashmix calls before the spawn word: fill the pool, mix it all-pairs,
    # then four per master-seed word beyond the pool size
    n_calls = len(pool) ** 2 + len(pool) * max(0, seed_words - len(pool))
    hash_a = _INIT_A * pow(_MULT_A, n_calls, 2**32) % 2**32
    return _StreamKeys((ctypes.c_uint32 * 4)(*pool), hash_a, first, n)


# ---------------------------------------------------------------------------
# the native per-row Philox fill
# ---------------------------------------------------------------------------

_CC = "gcc"
_OBJCOPY = "objcopy"
# compiler flags of the shipped library (it is also linked with -shared);
# FMA contraction would change the Euler kernel's bits, and the kernel
# starts POSIX threads
_CFLAGS = ("-O3", "-fPIC", "-ffp-contract=off", "-pthread")
# -z defs: a table the archive lacks fails the link, not the load
_LINK_FLAGS = (*_CFLAGS, "-shared", "-Wl,-z,defs")
_FILL_SOURCE = Path(__file__).with_name("_philox_fill.c")
_NPYRANDOM = Path(np.__file__).parent / "random" / "lib" / "libnpyrandom.a"
# numpy's ziggurat tables: local symbols of _NPYRANDOM, made global in a
# copy of it so that the fill can link them
_ZIGGURAT_TABLES = ("ki_double", "wi_double", "fi_double")
# the copy keeps only the archive's read-only data and its non-executable
# stack note (without it ld marks the stack executable): no numpy function
_OBJCOPY_ARGS = ("--only-section=.rodata*", "--only-section=.note.GNU-stack",
                 *(f"--globalize-symbol={name}" for name in _ZIGGURAT_TABLES))
_CACHE_DIR = Path.home() / ".cache" / "ergosim"
# a library named by one hash of source, archive and flags, as earlier
# versions of this package built it; no build writes or loads that name now
_LEGACY_NAME = re.compile(r"philox_fill-[0-9a-f]{16}\.so")
_STATE_WORDS = 11  # per row: Philox counter (4), key (2), buffer (4), buffer position
# the library's paths, each exported under its own suffix; it picks one
# for the CPU when it is loaded
_NATIVE_PATHS = ("portable", "avx512")
_lib = None


def _native():
    """The compiled ``_philox_fill.c``: ``philox_start_rows``,
    ``philox_normal_fill``, ``euler_rows`` and ``antiderivative_eval`` (the
    queries of :class:`~ergosim.quadrature.Antiderivative`).

    The shared library is built once per machine into ``_CACHE_DIR``,
    as ``philox_fill-<environment>-<source>.so``: ``<environment>`` is a
    hash of numpy's ``libnpyrandom.a`` and of the ``_OBJCOPY`` and build
    flags, ``<source>`` a hash of those and of the C source.  Its
    ziggurat tables are numpy's own: ``_OBJCOPY`` copies that archive's
    read-only data, with the tables' local symbols made global, into a
    temporary archive, and the library is linked against the copy.
    It is built under a temporary name and renamed into place, so
    concurrent first uses never load a partial file.  Once it is loaded, a
    build removes the environment's libraries of other sources but the
    newest, and those named by one hash alone, the layout of earlier
    versions: the cache holds at most two libraries per environment, and
    two environments sharing it keep their own.  Once per process the
    stream start and the fill, on the path the library picked for this CPU,
    pass :func:`_check_fill`.
    """
    global _lib
    if _lib is not None:
        return _lib
    lib = _NPYRANDOM
    if not lib.is_file():
        raise NativeBuildError(
            f"cannot build the native Philox fill: numpy's static library {lib} is missing")
    prefix, target = _library_path()
    build = not target.is_file()
    if build:
        try:
            _CACHE_DIR.mkdir(parents=True, exist_ok=True)
            work = tempfile.TemporaryDirectory(dir=_CACHE_DIR)
        except OSError as exc:
            raise NativeBuildError(
                f"cannot build the native Philox fill: cache directory {_CACHE_DIR} "
                f"is not writable ({exc.strerror})") from None
        with work:
            archive, tmp = Path(work.name) / lib.name, Path(work.name) / "philox_fill.so"
            _build_step("objcopy", _OBJCOPY, [*_OBJCOPY_ARGS, str(lib), str(archive)])
            _build_step("compiler", _CC, [
                *_LINK_FLAGS, str(_FILL_SOURCE), str(archive), "-lm", "-o", str(tmp)])
            os.replace(tmp, target)
    dll = ctypes.CDLL(str(target))
    if build:
        # loaded, so no other build's removal can take it away first; the
        # newest other library of this environment stays, so two source
        # trees in use (a parent and its change) do not rebuild in turn
        others = sorted((p for p in _CACHE_DIR.glob(f"{prefix}*.so") if p != target),
                        key=_built_at, reverse=True)
        legacy = [p for p in _CACHE_DIR.glob("philox_fill-*.so") if _LEGACY_NAME.fullmatch(p.name)]
        for stale in (*others[1:], *legacy):
            stale.unlink(missing_ok=True)
    dll.native_path.argtypes = ()
    dll.native_path.restype = ctypes.c_char_p
    spec, keys = ctypes.POINTER(_EulerSpec), ctypes.POINTER(_StreamKeys)
    signatures = {  # name: (argtypes, restype)
        "philox_start_rows": ((keys, ctypes.c_int64, ctypes.c_void_p, ctypes.c_int64), None),
        "philox_normal_fill": ((ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p,
                                ctypes.c_int64), None),
        "euler_rows": ((spec, ctypes.c_void_p, keys, ctypes.c_int64, *[ctypes.c_void_p] * 6,
                        ctypes.c_int64), ctypes.c_int64),
        "antiderivative_eval": ((ctypes.c_void_p, ctypes.c_int64, ctypes.c_double,
                                 ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int,
                                 ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p), None),
    }
    # the routed entry points and each path's own (no avx512 path off x86-64;
    # philox_start_rows has one path)
    for suffix in ("", *(f"_{p}" for p in _NATIVE_PATHS)):
        for name, (args, restype) in signatures.items():
            fn = getattr(dll, name + suffix, None)
            if fn is not None:
                fn.argtypes, fn.restype = args, restype
    _check_fill(dll)
    _lib = dll
    return dll


def _library_path() -> tuple:
    """The cache name prefix of this environment (numpy's archive and the
    flags), and the path under it of the library built from this source."""
    environment = _NPYRANDOM.read_bytes() + " ".join([*_OBJCOPY_ARGS, *_LINK_FLAGS]).encode()
    prefix = f"philox_fill-{hashlib.sha256(environment).hexdigest()[:16]}-"
    source = hashlib.sha256(_FILL_SOURCE.read_bytes() + environment).hexdigest()[:16]
    return prefix, _CACHE_DIR / f"{prefix}{source}.so"


def _built_at(path: Path) -> float:
    """The modification time of a cached library, or -inf once a
    concurrent build has removed it."""
    try:
        return path.stat().st_mtime
    except FileNotFoundError:
        return -math.inf


def _build_step(what: str, tool: str, args) -> None:
    """Run ``tool args``, one step of the build of :func:`_native`; raise
    :class:`NativeBuildError` naming the cause if it cannot be run or fails."""
    try:
        proc = subprocess.run([tool, *args], capture_output=True, text=True)
    except OSError as exc:
        raise NativeBuildError(
            f"cannot build the native Philox fill: cannot run {what} {tool!r} "
            f"({exc.strerror})") from None
    if proc.returncode == 0:
        return
    missing = [name for name in _ZIGGURAT_TABLES
               if re.search(f"undefined reference to .{name}'", proc.stderr)]
    if missing:
        raise NativeBuildError(
            f"cannot build the native Philox fill: numpy's {_NPYRANDOM} has no ziggurat "
            f"table {', '.join(missing)} (numpy {np.__version__})")
    raise NativeBuildError(
        f"cannot build the native Philox fill: {tool} failed:\n{proc.stderr.strip()}")


def __getattr__(name):
    # NATIVE_PATH: the path the native library picked on this CPU, one of
    # _NATIVE_PATHS; reading it loads (and if need be builds) the library
    if name == "NATIVE_PATH":
        return _native().native_path().decode()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# the self-check row: among its normals are a wedge accept, a wedge reject
# and restart, a tail draw accepted on its first pair of uniforms and one
# that rejects a pair, all within the first 339
_CHECK_SEED, _CHECK_INDEX, _CHECK_WIDTH = 0, 1326, 2000


def _check_fill(lib) -> None:
    """Raise :class:`NativeBuildError` unless the library ``lib`` starts a
    row on :func:`replicate_stream`'s key and fills it exactly as that
    stream draws, leaving numpy's Philox state behind.

    The fill links numpy's ziggurat tables but runs numpy's slow path
    itself; a numpy whose ziggurat changed shows here, not as different
    streams.
    """
    state = np.empty((1, _STATE_WORDS), np.uint64)
    lib.philox_start_rows(_stream_keys(_CHECK_SEED, _CHECK_INDEX, 1), 0, state.ctypes.data, 1)
    out = np.empty((1, _CHECK_WIDTH))
    lib.philox_normal_fill(state.ctypes.data, 1, out.ctypes.data, _CHECK_WIDTH)
    ref = replicate_stream(_CHECK_SEED, _CHECK_INDEX)
    want = ref.standard_normal(_CHECK_WIDTH)
    if (out[0].tobytes() != want.tobytes()
            or state[0].tobytes() != _philox_row(ref.bit_generator).tobytes()):
        raise NativeBuildError(
            "the native Philox fill does not reproduce numpy's normals; numpy's "
            f"ziggurat may have changed (numpy {np.__version__})")


def _start_streams(state: np.ndarray, keys: _StreamKeys, j0: int = 0) -> np.ndarray:
    """Set row ``j`` of ``state``, a C-contiguous ``(n, _STATE_WORDS)`` uint64
    array, to the start of the stream of row ``j0 + j`` of ``keys``; returns
    ``state``."""
    if not (state.dtype == np.uint64 and state.ndim == 2 and state.shape[1] == _STATE_WORDS
            and state.flags.c_contiguous and 0 <= j0 and j0 + len(state) <= len(keys)):
        raise ValueError("the stream start needs a C-contiguous uint64 (n, 11) state "
                         "of rows within the keys")
    _native().philox_start_rows(keys, j0, state.ctypes.data, len(state))
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
    _native().philox_normal_fill(state.ctypes.data, len(out), out.ctypes.data, out.shape[1])


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
    """One path of the numpy kernel; returns its 1-replicate :class:`BatchResult`.

    The normals come from ``rng``, or from ``noise`` (shape ``(k,)`` or
    ``(k, 1)``, ``k >= n_steps``) when given, which is how
    coupled-refinement convergence checks share a Brownian path; without
    ``noise``, ``rng`` must be a numpy ``Generator``
    (:class:`SimulationError` otherwise).  ``control`` adds the tilt
    drift ``(delta/eps) * sigma * psi(t) * Delta`` after each step; it
    requires an MDP schedule.  Raises :class:`TrajectoryExplodedError`
    at the first step where the path leaves ``[-blow_up, blow_up]``.
    """
    n_steps = schedule.n_steps(horizon)
    tilts = _tilts(schedule, control, n_steps)
    if noise is None:
        if not isinstance(rng, np.random.Generator):
            raise SimulationError(
                f"rng must be a numpy Generator when no noise is injected, got {rng!r}")

        def draw(out):
            rng.standard_normal(out=out)
    else:
        noise = np.asarray(noise, dtype=float)
        if noise.ndim not in (1, 2) or noise.shape[1:] not in ((), (1,)):
            raise SimulationError(
                f"injected noise has shape {noise.shape}; it must be (k,) or (k, 1)")
        noise = noise.reshape(-1)
        if len(noise) < n_steps:
            raise SimulationError(
                f"injected noise has {len(noise)} steps; the schedule needs {n_steps}")
        done = 0

        def draw(out):
            nonlocal done
            out[0] = noise[done:done + out.shape[1]]
            done += out.shape[1]
    res = _step_paths(model, f, schedule.h, schedule.delta_step, n_steps, blow_up, tilts, 1, draw)
    if res.failed[0]:
        raise TrajectoryExplodedError(int(res.fail_step[0]))
    return _mapped(model, res)


# ---------------------------------------------------------------------------
# batched replicates, and the numpy kernel
# ---------------------------------------------------------------------------

# the numpy kernel's sizes; results depend on neither
_CHUNK = 4096  # rows stepped together
_TILE = 32  # steps of normals drawn at a time
# the rows of one partial sum of the observe mode (CHUNK of
# _philox_fill.c), which fixes the order of the sums in both kernels
_SUM_ROWS = 256


@dataclass
class BatchResult:
    xi_continuous: np.ndarray  # (N,)
    xi_riemann: np.ndarray
    sup_abs: np.ndarray
    terminal: np.ndarray
    failed: np.ndarray  # bool
    fail_step: np.ndarray  # int, -1 where ok


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

    A model with OU, CIR or polynomial coefficients (no state map) and a
    :class:`~ergosim.models.PolynomialFunctional` run on the native kernel
    ``euler_rows``, in one GIL-free call that takes the rows on ``threads``
    threads.  Any other model or functional runs on the numpy kernel in
    chunks of ``_CHUNK`` rows, one after another, in the caller's thread,
    whatever ``threads``.  Both kernels give the same numbers to the bit,
    and the output is a deterministic function of (model, schedule, f,
    horizon, master_seed, n_replicates), whatever ``threads``.
    Replicate ``j`` runs on ``replicate_stream(master_seed, first_index + j)``,
    keyed where its row is stepped, so the call holds no per-replicate
    stream state beyond a chunk.  ``n_replicates = 0`` gives empty arrays.
    :class:`SimulationError` is raised for a count, seed, first index or
    thread count that is not an integer, a negative count, seed or first
    index, fewer than one thread, and replicate indices of ``2**32`` or more.
    """
    n_replicates = _integer("n_replicates", n_replicates, 0)
    master_seed = _integer("master_seed", master_seed, 0)
    first_index = _integer("first_index", first_index, 0)
    threads = _integer("threads", threads, 1)
    keys = _stream_keys(master_seed, first_index, n_replicates)
    _native()  # a failed build raises here, in the caller's thread
    n_steps = schedule.n_steps(horizon)
    tilts = _tilts(schedule, control, n_steps)
    return _mapped(model, _run_rows(model, f, schedule.h, schedule.delta_step, n_steps,
                                    blow_up, keys, threads, tilts))


def _tilts(schedule: StepSchedule, control: Optional[ControlFunction],
           n_steps: int) -> Optional[np.ndarray]:
    """The tilt ``ctrl_coef * psi(t_k)`` of each step, None without a
    control; a control requires an MDP schedule and ``n_steps`` steps within
    its horizon, the grid's slack included (:class:`ScheduleError`)."""
    if control is None:
        return None
    if schedule.regime != MDP:
        raise ScheduleError("controlled simulation requires an MDP schedule")
    dt = schedule.delta_step
    if n_steps > schedule.n_steps(control.horizon):
        raise ScheduleError(
            f"the simulation runs to t = {n_steps * dt:.6g}, past the control's horizon "
            f"{control.horizon:.6g}, beyond which its L2 budget is not checked")
    ctrl_coef = schedule.mdp_scale / schedule.epsilon * dt
    return np.array([ctrl_coef * float(np.asarray(control.psi(k * dt)))
                     for k in range(n_steps)])


def _mapped(model: SdeModel, res: BatchResult) -> BatchResult:
    """``res`` with its terminal states mapped from the stepped coordinate
    to the model's own."""
    if model.sim_drift is not None:
        res.terminal = np.where(res.failed, np.nan, model.state_map(res.terminal))
    return res


def _run_rows(model, f, h, dt, n_steps, blow_up, streams, threads, tilts=None, start=None,
              weight=None, corr=None) -> BatchResult:
    """Step the rows of ``streams`` on ``euler_rows`` when :func:`_runs_native`
    holds, else on ``_step_paths`` in chunks of ``_CHUNK`` rows in the
    caller's thread.  ``streams`` is an ``(n, _STATE_WORDS)`` uint64 state
    array, advanced in place, or a :class:`_StreamKeys`, whose rows are
    started where they are stepped: by ``euler_rows`` on the stack of the
    thread that steps them, or chunk by chunk for ``_step_paths``.  The other
    arguments are those of :func:`_euler_spec`.  ``corr`` (``n_steps``
    floats) takes the observe mode's sums, which ``weight`` asks for.
    Terminal states are left in the stepped coordinate."""
    n = len(streams)
    keyed = isinstance(streams, _StreamKeys)
    out = np.empty((4, n))  # xi_continuous, xi_riemann, sup_abs, terminal
    fail_step = np.empty(n, np.int64)
    if _runs_native(model, f):
        spec = _euler_spec(model, f, h, dt, n_steps, blow_up, tilts, start, weight)
        if _native().euler_rows(spec, None if keyed else streams.ctypes.data,
                                streams if keyed else None, n,
                                *[out[i].ctypes.data for i in range(4)], fail_step.ctypes.data,
                                None if corr is None else corr.ctypes.data, threads):
            raise MemoryError("euler_rows: out of memory for the partial sums")
        return BatchResult(*out, fail_step >= 0, fail_step)
    if corr is not None:
        corr[:] = -0.0  # -0.0 + x is x: each step's sum starts at its first chunk's
    for first in range(0, n, _CHUNK):
        rows = slice(first, first + _CHUNK)
        count = min(_CHUNK, n - first)
        state = (_start_streams(np.empty((count, _STATE_WORDS), np.uint64), streams, first)
                 if keyed else streams[rows])
        chunk = _step_paths(
            model, f, h, dt, n_steps, blow_up, tilts, count,
            functools.partial(_philox_normals, state),
            None if start is None else start[rows], None if weight is None else weight[rows],
            corr)
        out[:, rows] = chunk.xi_continuous, chunk.xi_riemann, chunk.sup_abs, chunk.terminal
        fail_step[rows] = chunk.fail_step
        del chunk  # freed before the next chunk runs
    return BatchResult(*out, fail_step >= 0, fail_step)


# ---------------------------------------------------------------------------
# the native kernel: model descriptors passed to euler_rows
# ---------------------------------------------------------------------------

# coefficient classes with a native kind: the enums of _philox_fill.c
_DRIFT_KINDS = {OuDrift: 0, CirDrift: 1, Polynomial: 2}
_DIFFUSION_KINDS = {ConstantDiffusion: 0, CirDiffusion: 1, Polynomial: 2}


class _EulerSpec(ctypes.Structure):
    """``euler_spec`` of ``_philox_fill.c``; ``arrays`` keeps its pointees alive."""

    _fields_ = [("drift_kind", ctypes.c_int64), ("diffusion_kind", ctypes.c_int64),
                ("n_drift", ctypes.c_int64), ("n_diffusion", ctypes.c_int64),
                ("n_f", ctypes.c_int64),
                ("drift", ctypes.c_void_p), ("diffusion", ctypes.c_void_p),
                ("f", ctypes.c_void_p),
                ("f_c0", ctypes.c_double), ("x0", ctypes.c_double), ("h", ctypes.c_double),
                ("sqrt_h", ctypes.c_double), ("dt", ctypes.c_double),
                ("blow_up", ctypes.c_double),
                ("n_steps", ctypes.c_int64), ("control", ctypes.c_void_p),
                ("start", ctypes.c_void_p), ("weight", ctypes.c_void_p)]


def _params(coef) -> np.ndarray:
    """The flat float parameters of a coefficient descriptor."""
    if isinstance(coef, Polynomial):
        return np.array(coef.coeffs)
    return np.array(dataclasses.astuple(coef), dtype=float)


def _runs_native(model: SdeModel, f: FunctionalSpec) -> bool:
    """Whether the native library steps ``model`` and observes ``f``.

    It does for OU, CIR and polynomial drift and diffusion descriptors,
    stepped in the model's own coordinate, and a
    :class:`~ergosim.models.PolynomialFunctional`.  :func:`simulate_batch`
    and the autocorrelation route of ``M_f`` both follow this rule.
    """
    return (model.sim_drift is None and model.state_map is None
            and type(model.drift) in _DRIFT_KINDS and type(model.diffusion) in _DIFFUSION_KINDS
            and isinstance(f.value, PolynomialFunctional))


def _euler_spec(model, f, h, dt, n_steps, blow_up, tilts=None, start=None,
                weight=None) -> _EulerSpec:
    """The ``euler_spec`` of a model and functional that :func:`_runs_native`:
    step ``h``, functional weight ``dt``, ``tilts`` (:func:`_tilts`),
    ``start`` (each row's start state, in place of the model's) and
    ``weight`` (each row's weight in the observe mode's sums), each None or
    a float array."""
    coeffs = [_params(model.drift), _params(model.diffusion), np.array(f.value.coeffs)]
    rows = [None if a is None else np.ascontiguousarray(a, dtype=float)
            for a in (tilts, start, weight)]
    spec = _EulerSpec(
        _DRIFT_KINDS[type(model.drift)], _DIFFUSION_KINDS[type(model.diffusion)],
        *map(len, coeffs), *(a.ctypes.data for a in coeffs),
        f.value.c0, model.initial_state, h, math.sqrt(h), dt, blow_up, n_steps,
        *(None if a is None else a.ctypes.data for a in rows))
    spec.arrays = coeffs + rows
    return spec


def _usable_cpus() -> int:
    """The CPUs this process may run on (its affinity mask), else the
    machine's count: ``[run] threads = auto`` and the default ``threads``
    of the autocorrelation route of ``M_f``."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _integer(name: str, value, least: int, error: type = SimulationError) -> int:
    """``value`` as an integer of at least ``least``, else ``error`` naming ``name``."""
    try:
        value = operator.index(value)
    except TypeError:
        raise error(f"{name} must be an integer, got {value!r}") from None
    if value < least:
        raise error(f"{name} must be >= {least}, got {value}")
    return value


def _step_paths(model, f, h, dt, n_steps, blow_up, tilts, n, draw, start=None, weight=None,
                corr=None) -> BatchResult:
    """Step ``n`` 1D paths together, one step at a time over all rows.

    ``draw(out)`` writes the normals of the next ``out.shape[1]`` steps of
    every row into the C-contiguous ``(n, k)`` array ``out``, ``k <=
    _TILE``.  A path whose state leaves ``[-blow_up, blow_up]`` (or turns
    NaN) records that step in ``fail_step`` and restarts at ``x0``; it ends
    with NaN functionals, ``sup_abs`` and terminal state.  The terminal
    state is left in the stepped coordinate.  The other arguments are those
    of :func:`_run_rows`; ``corr[k]`` adds each chunk of ``_SUM_ROWS``
    rows' sum of ``weight * f(X_{k+1})``, in row order, to its running sum.
    With ``weight``, the observe mode, ``xi_riemann`` and ``sup_abs`` are
    not accumulated, since its caller reads neither, and are NaN.
    """
    # coefficients and state map in the coordinates actually stepped
    drift, diffusion, state_map, x0 = (
        (model.sim_drift, model.sim_diffusion, model.state_map, model.sim_initial_state)
        if model.sim_drift is not None
        else (model.drift, model.diffusion, lambda y: y, model.initial_state))
    sqrt_h = math.sqrt(h)

    def observe(t, y):
        return np.asarray(f.value(t, state_map(y)), dtype=float)

    z = np.full(n, x0) if start is None else np.array(start, dtype=float)
    f_prev = observe(0.0, z)
    xi_c = np.zeros(n)
    xi_r = np.zeros(n)
    sup = np.zeros(n)
    fail_step = np.full(n, -1, dtype=np.int64)
    buf = np.empty(n * _TILE)  # the normals of the next _TILE steps, row by row
    # the next _TILE steps' products, padded with -0.0 to whole chunks of rows
    prod = None if weight is None else np.full((_TILE, -(-n // _SUM_ROWS) * _SUM_ROWS), -0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        for done in range(0, n_steps, _TILE):
            width = min(_TILE, n_steps - done)
            xi = buf[:n * width].reshape(n, width)
            draw(xi)
            for j in range(width):
                k = done + j
                if prod is None:
                    xi_r += f_prev * dt
                s = diffusion(z)
                # z + h*b is a new array, so the in-place adds keep the
                # order (z + h*b) + (sqrt_h*s)*xi
                z = z + h * drift(z)
                z += sqrt_h * s * xi[:, j]
                if tilts is not None:
                    z += tilts[k] * s
                if not np.abs(z).max(initial=0.0) <= blow_up:  # NaN fails too
                    gone = ~(np.abs(z) <= blow_up)
                    fail_step[gone & (fail_step < 0)] = k + 1
                    z[gone] = x0
                    xi_c[gone] = np.nan
                    xi_r[gone] = np.nan
                f_new = observe(k * dt + dt, z)
                xi_c += 0.5 * (f_prev + f_new) * dt
                if prod is None:
                    np.maximum(sup, np.abs(xi_c), out=sup)
                else:
                    np.multiply(weight, f_new, out=prod[j, :n])
                f_prev = f_new
            if prod is not None:
                chunks = prod[:width].reshape(width, -1, _SUM_ROWS)
                for c in np.cumsum(chunks, axis=2)[:, :, -1].T:
                    corr[done:done + width] += c
    failed = fail_step >= 0
    if prod is not None:
        xi_r, sup = np.full(n, np.nan), np.full(n, np.nan)
    return BatchResult(xi_c, xi_r, np.where(failed, np.nan, sup), np.where(failed, np.nan, z),
                       failed, fail_step)
