"""Scaled Euler-Maruyama simulation of the fast process and its functionals.

The process is stepped in rescaled form: over a grid step of width
``delta_step`` the update is

    Z(t_{k+1}) = Z(t_k) + b(Z(t_k)) * h + sigma(Z(t_k)) * sqrt(h) * xi_k

with ``h = delta_step / epsilon`` and i.i.d. standard normal ``xi_k``.
Path functionals (running integral of f along the path, and its
left-endpoint Riemann variant) are accumulated online; full trajectories
are never stored.  The step keeps one association order,
``(z + h*b) + (sqrt(h)*s)*xi`` and then ``+ (ctrl_coef*psi)*s`` for a
control.

One kernel runs every simulation: ``euler_rows`` of ``_philox_fill.c``.
It steps OU, CIR, polynomial and power drifts and constant, CIR and
polynomial diffusions (the descriptors of :mod:`ergosim.models`), in the
model's own coordinate or, for Gompertz, in log space with ``f`` observed
at ``exp`` of the stepped state; it observes a
:class:`~ergosim.models.PolynomialFunctional`.  Power drift's ``pow`` and
the ``exp`` map are libm's, called once per row and step on both paths.
:func:`_stepped` checks a model and functional while the kernel's spec is
built and raises :class:`SimulationError` naming the drift, diffusion,
state map or functional it has no kind for (a callable, or a
time-inhomogeneous ``f``), before any row is stepped.  Per row the kernel
fills a short on-stack block of normals from the row's stream, then
steps, observes and accumulates a group of rows together, 8 to a vector,
in one step written once in GCC's generic vectors and compiled for both
paths (two AVX-512 vectors at a time, or one on the portable path); it
checks the blow-up bound at every step, so a failed row stops at its
exact step.
It is built without FMA contraction, so its bits are those of the plain
numpy expressions of the step with libm's ``exp`` and ``pow``.

One private runner, :func:`_run_rows`, calls it for :func:`simulate_batch`
and for the autocorrelation route of ``M_f`` (:mod:`ergosim.variance`),
which runs its observe mode: each row starts from its own state, and
each step's sum of ``w_i * f(X_k)`` over the rows is taken in row order
within chunks of ``_SUM_ROWS`` rows, then over the chunks in order; the
route reads only the trapezoid integrals and terminal states, so the
observe mode leaves ``xi_riemann`` and ``sup_abs`` NaN.  The
library's other entry point, ``antiderivative_eval``, answers the queries
of :class:`~ergosim.quadrature.Antiderivative` on one path, the same on
every CPU, so the density, the Poisson solution and the gradient form
of ``M_f`` load the library too.

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
``philox_start_rows`` into a state array for the autocorrelation route,
which carries its streams from one leg to the next.  The C fill
generates each row's words 16 counter blocks at a time and turns them
into normals with numpy's ziggurat, its fast path and, for the rare word
that path does not accept, its wedge and tail code, in numpy's order and
arithmetic and with libm's ``exp`` and ``log1p``, as numpy's
``random_standard_normal`` does.  The ziggurat tables are numpy's own: of
``libnpyrandom.a`` the library links the read-only data of the member
that holds them and no numpy function.  When the library is loaded a row
it started and filled is compared with ``replicate_stream``
(:class:`NativeBuildError` if they differ), so the kernel draws exactly
the numbers of ``replicate_stream``.  The library is compiled with gcc
(flags ``_CFLAGS``) on first use into a per-user cache and runs without
the GIL.  Its fill and its Euler kernel each come in a portable and an
AVX-512 path with the same bits, exported under the suffixes ``_portable``
and ``_avx512``; :func:`_native` binds the plain names to the path the
library's ``native_path`` names for the CPU, and ``NATIVE_PATH`` holds it.
``euler_rows`` takes its rows ``_SUM_ROWS`` at a time on the caller's
thread and ``threads - 1`` POSIX threads of its own, placed off the
caller's CPU and joined before it returns, so that neither its rows nor
its sums depend on the thread count.  It allocates nothing: the caller
owns every output, each chunk's sums too.
"""

from __future__ import annotations

import ctypes
import dataclasses
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
                     Polynomial, PolynomialFunctional, PowerDrift, SdeModel)
from .quadrature import panel_integral


class SimulationError(Exception):
    pass


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
        if not (math.isfinite(policy.c_step) and policy.c_step > 0):
            raise ScheduleError(f"c_step must be > 0, got {policy.c_step:g}")
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
# the library's paths, each exported under its own suffix; _native binds the
# one its native_path names for this CPU
_NATIVE_PATHS = ("portable", "avx512")
_lib = None


def _native():
    """The compiled ``_philox_fill.c``: ``philox_start_rows``,
    ``philox_normal_fill``, ``euler_rows`` and ``antiderivative_eval`` (the
    queries of :class:`~ergosim.quadrature.Antiderivative`, one path on
    every CPU), with ``chunk_rows``, the rows of one partial sum of the
    observe mode (``euler_chunk_rows``).  ``philox_normal_fill`` and
    ``euler_rows`` are bound to the exports of the path the library's
    ``native_path`` names for this CPU, ``_avx512`` or ``_portable``.

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
    stream start and the fill, on the path bound for this CPU, pass
    :func:`_check_fill`.
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
                        ctypes.c_int64), None),
        "antiderivative_eval": ((ctypes.c_void_p, ctypes.c_int64, ctypes.c_double,
                                 *[ctypes.c_void_p] * 3, ctypes.c_int64, ctypes.c_void_p), None),
    }
    # each path's exports (no avx512 path off x86-64; philox_start_rows and
    # antiderivative_eval have one path, under the plain name)
    for suffix in ("", *(f"_{p}" for p in _NATIVE_PATHS)):
        for name, (args, restype) in signatures.items():
            fn = getattr(dll, name + suffix, None)
            if fn is not None:
                fn.argtypes, fn.restype = args, restype
    path = dll.native_path().decode()
    for name in ("philox_normal_fill", "euler_rows"):
        setattr(dll, name, getattr(dll, f"{name}_{path}"))
    dll.chunk_rows = ctypes.c_int64.in_dll(dll, "euler_chunk_rows").value
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
    # NATIVE_PATH: the path bound on this CPU, one of _NATIVE_PATHS;
    # _SUM_ROWS: the rows of one partial sum of the observe mode, which fix
    # the order of its sums.  Reading either loads (and if need be builds)
    # the library.
    if name == "NATIVE_PATH":
        return _native().native_path().decode()
    if name == "_SUM_ROWS":
        return _native().chunk_rows
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


# a path of simulate_batch fails where |Z| first exceeds this
BLOW_UP = 1e8


# ---------------------------------------------------------------------------
# batched replicates
# ---------------------------------------------------------------------------


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
    control: Optional[ControlFunction] = None,
) -> BatchResult:
    """Run ``n_replicates`` independent 1D paths with per-replicate streams.

    The paths run on the kernel ``euler_rows``, in one GIL-free call that
    takes the rows on ``threads`` threads; the output is a deterministic
    function of (model, schedule, f, horizon, master_seed, n_replicates),
    whatever ``threads``.  Replicate ``j`` runs on
    ``replicate_stream(master_seed, j)``, keyed where its row is stepped,
    so the call holds no per-replicate stream state.  A path fails at the
    first step where its stepped state leaves ``[-BLOW_UP, BLOW_UP]``.
    Terminal states are in the model's coordinate.  ``n_replicates = 0``
    gives empty arrays.  :class:`SimulationError` is raised for a count,
    seed or thread count that is not an integer, a negative count or
    seed, fewer than one thread, more than ``2**32`` replicates, and a
    model or functional the kernel has no kind for (:func:`_stepped`).
    """
    n_replicates = _integer("n_replicates", n_replicates, 0)
    master_seed = _integer("master_seed", master_seed, 0)
    threads = _integer("threads", threads, 1)
    keys = _stream_keys(master_seed, 0, n_replicates)
    _native()  # a failed build raises here, in the caller's thread
    n_steps = schedule.n_steps(horizon)
    tilts = _tilts(schedule, control, n_steps)
    return _run_rows(model, f, schedule.h, schedule.delta_step, n_steps, BLOW_UP, keys,
                     threads, tilts)


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


def _run_rows(model, f, h, dt, n_steps, blow_up, streams, threads, tilts=None, start=None,
              weight=None, corr=None) -> BatchResult:
    """Step the rows of ``streams`` on ``euler_rows``.  ``streams`` is an
    ``(n, _STATE_WORDS)`` uint64 state array, advanced in place, or a
    :class:`_StreamKeys`, whose rows are started on the stack of the thread
    that steps them.  The other arguments are those of :func:`_euler_spec`.
    ``weight`` asks for the observe mode, whose sums go to ``corr``
    (``n_steps`` floats): the kernel writes each chunk's sum of each step,
    and they are added here in chunk order from ``-0.0``.  That mode leaves
    terminal states in the stepped coordinate."""
    spec = _euler_spec(model, f, h, dt, n_steps, blow_up, tilts, start, weight)
    n = len(streams)
    keyed = isinstance(streams, _StreamKeys)
    out = np.empty((4, n))  # xi_continuous, xi_riemann, sup_abs, terminal
    fail_step = np.empty(n, np.int64)
    lib = _native()
    sums = None if weight is None else np.empty((-(-n // lib.chunk_rows), n_steps))
    lib.euler_rows(spec, None if keyed else streams.ctypes.data, streams if keyed else None, n,
                   *[out[i].ctypes.data for i in range(4)], fail_step.ctypes.data,
                   None if sums is None else sums.ctypes.data, threads)
    if sums is not None:
        corr[...] = -0.0
        for chunk in sums:
            corr += chunk
    return BatchResult(*out, fail_step >= 0, fail_step)


# ---------------------------------------------------------------------------
# the native kernel: model descriptors passed to euler_rows
# ---------------------------------------------------------------------------

# coefficient classes and state maps with a native kind: the enums of
# _philox_fill.c
_DRIFT_KINDS = {OuDrift: 0, CirDrift: 1, Polynomial: 2, PowerDrift: 3}
_DIFFUSION_KINDS = {ConstantDiffusion: 0, CirDiffusion: 1, Polynomial: 2}
_MAP_KINDS = {None: 0, np.exp: 1}


class _EulerSpec(ctypes.Structure):
    """``euler_spec`` of ``_philox_fill.c``; ``arrays`` keeps its pointees alive."""

    _fields_ = [("drift_kind", ctypes.c_int64), ("diffusion_kind", ctypes.c_int64),
                ("map_kind", ctypes.c_int64), ("n_drift", ctypes.c_int64),
                ("n_diffusion", ctypes.c_int64), ("n_f", ctypes.c_int64),
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


def _stepped(model: SdeModel, f: FunctionalSpec) -> tuple:
    """The drift, diffusion, state map and start of the coordinate
    ``euler_rows`` steps ``model`` in: the model's own, or its ``sim_*``
    coordinate when it has a ``sim_drift``.

    Raises :class:`SimulationError` naming the drift, diffusion, state map
    or functional the kernel has no kind for: it steps the coefficient
    classes of ``_DRIFT_KINDS`` and ``_DIFFUSION_KINDS``, maps through
    ``np.exp`` or nothing, and observes a
    :class:`~ergosim.models.PolynomialFunctional`.
    """
    parts = ((model.drift, model.diffusion, None, model.initial_state)
             if model.sim_drift is None
             else (model.sim_drift, model.sim_diffusion, model.state_map, model.sim_initial_state))
    for what, part, kinds in (("drift", parts[0], _DRIFT_KINDS),
                              ("diffusion", parts[1], _DIFFUSION_KINDS)):
        if type(part) not in kinds:
            raise SimulationError(
                f"the Euler kernel has no kind for the {what} {part!r}; it steps "
                f"{', '.join(k.__name__ for k in kinds)} {what}s")
    if parts[2] not in _MAP_KINDS:
        raise SimulationError(
            f"the Euler kernel has no kind for the state_map {parts[2]!r}; it maps through "
            "np.exp or nothing")
    if not isinstance(f.value, PolynomialFunctional):
        inhomogeneous = "" if f.time_homogeneous else "time-inhomogeneous "
        raise SimulationError(
            f"the Euler kernel cannot observe the {inhomogeneous}functional {f.name!r} "
            f"({f.value!r}); it observes a PolynomialFunctional")
    return parts


def _euler_spec(model, f, h, dt, n_steps, blow_up, tilts=None, start=None,
                weight=None) -> _EulerSpec:
    """The ``euler_spec`` of a model and functional (:func:`_stepped`):
    step ``h``, functional weight ``dt``, ``tilts`` (:func:`_tilts`),
    ``start`` (each row's start state, in the stepped coordinate, in place
    of the model's) and ``weight`` (each row's weight in the observe mode's
    sums), each None or a float array."""
    drift, diffusion, state_map, x0 = _stepped(model, f)
    coeffs = [_params(drift), _params(diffusion), np.array(f.value.coeffs)]
    rows = [None if a is None else np.ascontiguousarray(a, dtype=float)
            for a in (tilts, start, weight)]
    spec = _EulerSpec(
        _DRIFT_KINDS[type(drift)], _DIFFUSION_KINDS[type(diffusion)], _MAP_KINDS[state_map],
        *map(len, coeffs), *(a.ctypes.data for a in coeffs),
        f.value.c0, x0, h, math.sqrt(h), dt, blow_up, n_steps,
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
