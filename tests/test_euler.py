import ctypes
import dataclasses
import math
import re
import os
import subprocess
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergosim import euler
from ergosim.euler import (ControlFunction, SchedulePolicy, ScheduleError,
                           SimulationError, StepSchedule, replicate_stream, simulate_batch)
from ergosim.config import parse_config
from ergosim.models import (CirDiffusion, CirDrift, ConstantDiffusion, FunctionalSpec,
                            OuDrift, Polynomial, PolynomialFunctional, PowerDrift,
                            builtin_model, invariant_density_1d)
from ergosim.variance import mf_autocorrelation_form

SQRT2 = math.sqrt(2.0)


def ou():
    return builtin_model("ou", dict(kappa=1.0, mu=0.0, sigma=SQRT2))


def f_identity():
    return FunctionalSpec(value=PolynomialFunctional([0.0, 1.0]), centralized=True, name="x")


def cubic(m, x0):
    """``m`` with the drift x^3, which blows up, started at ``x0``."""
    return type(m)(**{**m.__dict__, "drift": Polynomial([0.0, 0.0, 0.0, 1.0]),
                      "initial_state": x0})


def custom_model(drift_coeffs, diffusion_coeffs, x0):
    """The config's custom polynomial model."""
    text = ("[model]\nfamily = custom\n"
            f"drift_coeffs = {list(drift_coeffs)}\ndiffusion_coeffs = {list(diffusion_coeffs)}\n"
            "recurrence_alpha = 1.0\nrecurrence_gamma = 0.1\nrecurrence_radius = 3.0\n"
            f"holder_nu = 1.0\nalpha_bar = 3.0\nx0 = {x0!r}\n"
            "[functional]\ncoeffs = [0.0, 1.0]\n[schedule]\nregime = CLT\ntheta = 2.5\n"
            "[experiment]\nkind = CLT_NORMALITY\nepsilon_list = [0.1]\nreplicates = 100\n")
    return parse_config(text, inline=True).spec.model


def rows_from(model, sched, f, horizon, seed, first, n, threads=1):
    """simulate_batch's rows on ``replicate_stream(seed, first + j)``: the
    runner under it, on keys that start at replicate ``first``."""
    return euler._run_rows(model, f, sched.h, sched.delta_step, sched.n_steps(horizon),
                           euler.BLOW_UP, euler._stream_keys(seed, first, n), threads)


def _fill(state, out):
    """The next normals of the stream in ``state[j]`` into row ``j`` of the
    C-contiguous ``(n, k)`` array ``out``, on the path the library picked."""
    assert state.shape == (len(out), euler._STATE_WORDS) and out.flags.c_contiguous
    euler._native().philox_normal_fill(state.ctypes.data, len(out), out.ctypes.data, out.shape[1])


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


@pytest.mark.parametrize("c_step", [0.0, -1.0, math.nan, math.inf])
def test_c_step_must_be_positive_and_finite(c_step):
    with pytest.raises(ScheduleError, match=f"c_step must be > 0, got {c_step:g}"):
        StepSchedule.from_policy(0.1, "CLT", SchedulePolicy(2.5, c_step=c_step), 1.0)


def test_negative_epsilon_rejected():
    with pytest.raises(ScheduleError, match="positive"):
        StepSchedule.from_policy(-0.1, "LLN", SchedulePolicy(1.5), 1.0)


# ----------------------------------------------------------- determinism


def test_batch_matches_scalar_path():
    m, f = ou(), f_identity()
    sched = StepSchedule.from_policy(0.05, "CLT", SchedulePolicy(2.1), 1.0)
    batch = simulate_batch(m, sched, f, 0.5, master_seed=7, n_replicates=5)
    _assert_rows_match_scalar(batch, m, sched, f, 0.5, 7, 0, [3])


def test_thread_count_invariance():
    # 809 replicates: three 256-row chunks and a short fourth, on 1, 2 and 4
    # threads, for a model stepped in its own coordinate, one stepped in log
    # space and one with libm's pow in its drift
    gompertz = builtin_model("gompertz", dict(kappa=1.0, mu=1.0, sigma=1.0))
    power = builtin_model("power_drift", dict(alpha=1.5))
    f = f_identity()
    sched = StepSchedule.from_policy(0.05, "CLT", SchedulePolicy(2.1), 1.0)
    kw = dict(master_seed=123, n_replicates=3 * euler._SUM_ROWS + 41)
    for m in (ou(), gompertz, power):
        r1 = simulate_batch(m, sched, f, 0.3, **kw)
        for threads in (2, 4):
            rt = simulate_batch(m, sched, f, 0.3, threads=threads, **kw)
            for name in r1.__dataclass_fields__:
                assert np.array_equal(getattr(r1, name), getattr(rt, name)), name
    # a failing batch: fail_step and every output do not depend on threads
    bad = cubic(ou(), 0.5)
    sched = StepSchedule(epsilon=0.05, delta_step=0.002, mdp_scale=1.0,
                         regime="LLN", policy=SchedulePolicy(2.0))
    one = simulate_batch(bad, sched, f, 0.16, master_seed=0, n_replicates=300)
    two = simulate_batch(bad, sched, f, 0.16, master_seed=0, n_replicates=300, threads=2)
    assert one.failed.sum() > 100 and len(set(one.fail_step.tolist())) > 20
    assert two.fail_step.tolist() == one.fail_step.tolist()
    for name in r1.__dataclass_fields__:
        assert getattr(one, name).tobytes() == getattr(two, name).tobytes(), name
    for name in ("terminal", "sup_abs", "xi_continuous", "xi_riemann"):
        assert np.all(np.isnan(getattr(one, name)[one.failed])), name


def test_failed_native_build_raises_typed_error(monkeypatch, tmp_path):
    m, f = ou(), f_identity()
    pi = invariant_density_1d(m)  # built while the library still loads
    monkeypatch.setattr(euler, "_lib", None)
    monkeypatch.setattr(euler, "_CACHE_DIR", tmp_path / "cache")
    monkeypatch.setattr(euler, "_CC", "no-such-compiler")
    missing = "compiler 'no-such-compiler' \\(No such file"
    sched = StepSchedule.from_policy(0.05, "CLT", SchedulePolicy(2.1), 1.0)
    with pytest.raises(euler.NativeBuildError, match=missing):
        simulate_batch(m, sched, f, 0.3, master_seed=1, n_replicates=4)
    # the autocorrelation route of M_f draws from the same fill, with no fallback
    with pytest.raises(euler.NativeBuildError, match=missing):
        mf_autocorrelation_form(m, pi, f, horizon=0.1, n_paths=10)
    # and the density's antiderivative table is queried in the same library
    with pytest.raises(euler.NativeBuildError, match=missing):
        invariant_density_1d(m)
    assert issubclass(euler.NativeBuildError, SimulationError)
    assert list((tmp_path / "cache").iterdir()) == []  # no partial file left


def test_native_build_names_a_missing_objcopy_or_table(monkeypatch, tmp_path):
    monkeypatch.setattr(euler, "_lib", None)
    monkeypatch.setattr(euler, "_CACHE_DIR", tmp_path / "cache")
    # numpy's archive with the ziggurat tables stripped out: the link fails
    # and the error names the tables, not the linker's output
    stripped = tmp_path / "libnpyrandom.a"
    subprocess.run([euler._OBJCOPY, *(f"--strip-symbol={t}" for t in euler._ZIGGURAT_TABLES),
                    str(euler._NPYRANDOM), str(stripped)], check=True)
    monkeypatch.setattr(euler, "_NPYRANDOM", stripped)
    with pytest.raises(euler.NativeBuildError,
                       match="libnpyrandom.a has no ziggurat table ki_double, wi_double, fi_double"):
        euler._native()
    monkeypatch.setattr(euler, "_OBJCOPY", "no-such-objcopy")
    with pytest.raises(euler.NativeBuildError, match="objcopy 'no-such-objcopy' \\(No such file"):
        euler._native()
    assert list((tmp_path / "cache").iterdir()) == []  # no partial file left


def test_native_build_into_empty_cache(monkeypatch, tmp_path):
    monkeypatch.setattr(euler, "_lib", None)
    monkeypatch.setattr(euler, "_CACHE_DIR", tmp_path)
    # no library of this source, but two of other sources in this environment,
    # one under the one-hash name of earlier versions and one of another
    # environment: the build removes the older of the first two and the third
    prefix, target = euler._library_path()
    older, newer = (tmp_path / f"{prefix}{digit * 16}.so" for digit in "01")
    legacy = tmp_path / "philox_fill-0000000000000000.so"
    elsewhere = tmp_path / "philox_fill-0000000000000000-0000000000000000.so"
    for path in (older, newer, legacy, elsewhere, tmp_path / "notes.txt"):
        path.write_bytes(b"not this build's library")
    os.utime(older, (1e9, 1e9))
    euler._native()
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        [target.name, newer.name, elsewhere.name, "notes.txt"])
    # a load from the cache builds nothing, so it removes nothing
    for path in (older, legacy):
        path.write_bytes(b"not this build's library")
    monkeypatch.setattr(euler, "_lib", None)
    euler._native()
    assert len(list(tmp_path.iterdir())) == 6


@pytest.mark.parametrize("first", [0, 2**32 - 3])
def test_native_fill_matches_replicate_stream(first):
    # 2**23 normals in blocks of 37, 50 and the rest, rows split across two
    # threads: the 4-word Philox buffer position carries between blocks, and
    # the ziggurat's tail branch (|x| > 3.654) is reached
    seed = 2**70 + 11
    n = 3 if first else 64
    widths = (37, 50, 2**23 // n - 87)
    state = euler._start_streams(np.empty((n, euler._STATE_WORDS), np.uint64),
                                 euler._stream_keys(seed, first, n))
    parts = []
    for width in widths:
        out = np.empty((n, width))
        halves = (slice(0, n // 2), slice(n // 2, n))
        with ThreadPoolExecutor(2) as ex:
            list(ex.map(lambda r: _fill(state[r], out[r]), halves))
        parts.append(out)
    assert n * sum(widths) >= 2**23 - n
    for j in range(n):  # row by row, so that no second copy of all normals is held
        want = replicate_stream(seed, first + j).standard_normal(sum(widths))
        assert np.concatenate([out[j] for out in parts]).tobytes() == want.tobytes(), j
    assert max(np.abs(out).max() for out in parts) > 3.6


def _numpy_philox(row):
    bg = np.random.Philox(0)
    bg.state = {"bit_generator": "Philox",
                "state": {"counter": row[0:4], "key": row[4:6]},
                "buffer": row[6:10], "buffer_pos": int(row[10]),
                "has_uint32": 0, "uinteger": 0}
    return bg


def _fill_and_compare(state, width, fill=None):
    """One native fill of ``width`` normals per row, checked against numpy's
    Philox started from the same row state: the normals and the state after.
    ``fill`` is one path's ``philox_normal_fill_<path>``, or None for the
    path the library picked."""
    bgs = [_numpy_philox(row) for row in state]
    out = np.empty((len(state), width))
    if fill is None:
        _fill(state, out)
    else:
        fill(state.ctypes.data, len(state), out.ctypes.data, width)
    for j, bg in enumerate(bgs):
        want = np.random.Generator(bg).standard_normal(width)
        assert out[j].tobytes() == want.tobytes(), (j, width)
        assert state[j].tobytes() == euler._philox_row(bg).tobytes(), (j, width)


def _hand_set_rows(n, rng):
    state = np.zeros((n, euler._STATE_WORDS), np.uint64)
    state[:, 0] = rng.integers(0, 2**64, n, dtype=np.uint64)  # counter, low word
    state[:, 4:10] = rng.integers(0, 2**64, (n, 6), dtype=np.uint64)  # key, buffer
    state[:, 10] = np.arange(n) % 5  # every buffer position, and the empty buffer
    return state


def test_fill_state_matches_numpy_across_small_widths():
    # widths 1 to 9, one call after another on the same rows, twice over:
    # every buffer position and segment start is crossed, with the state
    # compared after every call
    state = _hand_set_rows(40, np.random.default_rng(3))
    for width in [*range(1, 10), *range(1, 10)]:
        _fill_and_compare(state, width)


@pytest.mark.parametrize("counter", [
    [2**64 - 3, 0, 0, 0],
    [2**64 - 1, 2**64 - 1, 2**64 - 1, 5],
    [2**64 - 1] * 4,  # the 256-bit counter wraps to 0
])
def test_fill_carries_the_counter_like_numpy(counter):
    state = _hand_set_rows(10, np.random.default_rng(4))
    state[:, 0:4] = np.array(counter, dtype=np.uint64)
    for width in (1, 3, 9, 70, 5):
        _fill_and_compare(state, width)


# numpy's ziggurat_nor_inv_r
_ZIGGURAT_INV_R = 0.27366123732975827203338247596
# what the first word of a draw the ziggurat's fast path does not accept
# leads to: a wedge accept; a wedge reject, after which the draw starts over
# at the word after the uniform; a tail draw accepted on its first pair of
# uniforms; a tail draw that rejects a pair
_SLOW_KINDS = ("wedge", "wedge_restart", "tail", "tail_retry")


def _ziggurat_tables():
    """numpy's ziggurat tables ``ki``, ``wi`` and ``fi``, as lists, read out of
    the native library, which links them."""
    lib = euler._native()
    return [np.ctypeslib.as_array((ctype * 256).in_dll(lib, name)).tolist()
            for ctype, name in zip((ctypes.c_uint64, ctypes.c_double, ctypes.c_double),
                                   euler._ZIGGURAT_TABLES)]


def _slow_draws(words):
    """The draws of numpy's ziggurat on the Philox words ``words``, read
    from the start of a draw, whose first word the fast path does not
    accept, as ``(q, kind, idx, run)``: the position of that word, the
    draw's kind (one of ``_SLOW_KINDS``), the word's layer ``w & 0xff``
    and the number of one-word draws since the draw before.

    Each draw follows numpy's random_standard_normal step by step in
    Python floats, with libm's exp and log1p through ``math``, so its
    decisions are numpy's.  Draws from the last 64 words are left out.
    """
    ki, wi, fi = _ziggurat_tables()
    idx = (words & np.uint64(0xFF)).astype(np.intp)
    rabs = (words >> np.uint64(9)) & np.uint64(2**52 - 1)
    uniform = lambda q: (int(words[q]) >> 11) * 2.0**-53

    def end_of(p):
        """The kind of the draw from word p, and the position after its last word."""
        kind = None
        while True:
            i, ra = int(idx[p]), int(rabs[p])
            if kind is not None and ra < ki[i]:
                return kind, p + 1  # the restart word is accepted at once
            if i == 0:
                q, pairs = p + 1, 0
                while True:
                    xx = -_ZIGGURAT_INV_R * math.log1p(-uniform(q))
                    yy = -math.log1p(-uniform(q + 1))
                    q, pairs = q + 2, pairs + 1
                    if yy + yy > xx * xx:
                        return kind or ("tail" if pairs == 1 else "tail_retry"), q
            x = ra * wi[i]
            if (fi[i - 1] - fi[i]) * uniform(p + 1) + fi[i] < math.exp(-0.5 * x * x):
                return kind or "wedge", p + 2
            kind, p = kind or "wedge_restart", p + 2

    found, start = [], 0  # start: where the next draw begins
    for p in np.flatnonzero(rabs >= np.array(ki, np.uint64)[idx]).tolist():
        if p >= len(words) - 64:
            break
        if p >= start:
            kind, end = end_of(p)
            found.append((p, kind, int(idx[p]), p - start))
            start = end
    return found


def test_fill_slow_path_at_every_call_position():
    # for each kind of slow draw, one whose first word follows 90 accepted
    # words and is the last word of its Philox block (q % 4 = 3), and one
    # whose uniform is (q % 4 = 2); then start a call d words before that
    # word for d = 0..89, so that the word and its uniform are the last
    # buffered word, the last word of a 64-word segment (d = 63 and 62 from
    # an empty buffer) or past it, and the last word of the call or past it;
    # on the portable path, and on the AVX-512 path where the CPU has it
    lib = euler._native()
    fills = [getattr(lib, f"philox_normal_fill_{p}") for p in euler._NATIVE_PATHS
             if p == "portable" or euler.NATIVE_PATH == "avx512"]
    key = np.random.SeedSequence(9).generate_state(2, np.uint64)
    draws = {}
    for q, kind, _, run in _slow_draws(np.random.Philox(key=key).random_raw(2**21)):
        if run >= 90 and q % 4 >= 2:
            draws.setdefault((q % 4, kind), q)
    assert sorted(draws) == sorted((o, kind) for o in (2, 3) for kind in _SLOW_KINDS)
    for q in draws.values():
        for d in range(90):
            start = np.random.Philox(key=key)
            start.random_raw(q - d)
            row = euler._philox_row(start)[None].copy()
            for fill in fills:
                _fill_and_compare(row.copy(), d + 1, fill)
                _fill_and_compare(row.copy(), d + 12, fill)


def test_fill_self_check_rejects_a_wrong_reference(monkeypatch):
    # the loader's check row takes every kind of slow draw, and a fill that
    # differs from the reference stream raises a typed error at load time
    key = np.random.SeedSequence(euler._CHECK_SEED, spawn_key=(euler._CHECK_INDEX,)
                                 ).generate_state(2, np.uint64)
    kinds, n_draws = set(), 0
    for _, kind, _, run in _slow_draws(np.random.Philox(key=key).random_raw(
            2 * euler._CHECK_WIDTH)):
        n_draws += run + 1
        if n_draws <= euler._CHECK_WIDTH:
            kinds.add(kind)
    assert kinds == set(_SLOW_KINDS)
    monkeypatch.setattr(euler, "_lib", None)
    monkeypatch.setattr(euler, "replicate_stream",
                        lambda seed, index: replicate_stream(seed + 1, index))
    with pytest.raises(euler.NativeBuildError, match="ziggurat may have changed"):
        euler._native()


@given(st.integers(0, 2**200 - 1),
       st.sampled_from([0, 1, 4094, 4095, 4096, 4097, 2**32 - 3]))
@settings(max_examples=60, deadline=None)
def test_replicate_keys_match_seed_sequence(master_seed, first):
    # the row states the native library starts from the once-per-call pool
    # and hash constant: numpy's Philox state of replicate_stream, key and all
    keys = euler._stream_keys(master_seed, first, 3)
    state = np.full((5, euler._STATE_WORDS), 7, np.uint64)
    euler._start_streams(state[1:4], keys)
    assert np.all(state[0] == 7) and np.all(state[4] == 7)
    for j in range(3):
        seq = np.random.SeedSequence(entropy=master_seed, spawn_key=(first + j,))
        assert np.array_equal(state[1 + j, 4:6], seq.generate_state(2, np.uint64))
        bg = replicate_stream(master_seed, first + j).bit_generator
        assert state[1 + j].tobytes() == euler._philox_row(bg).tobytes()
    # rows started from an offset into the keys
    tail = euler._start_streams(np.empty((2, euler._STATE_WORDS), np.uint64), keys, 1)
    assert tail.tobytes() == state[2:4].tobytes()


@pytest.mark.parametrize("master_seed", [2**128, 2**150 + 2**40 + 9, 2**200 - 1])
def test_replicate_keys_of_seeds_wider_than_the_pool(master_seed):
    # a master seed of more than four 32-bit words shifts the hash constant
    # at which the spawn word is mixed in; the filled rows and the batch
    # rows stepped on keys started in the kernel are replicate_stream's
    first = 2**32 - 5
    state = euler._start_streams(np.empty((5, euler._STATE_WORDS), np.uint64),
                                 euler._stream_keys(master_seed, first, 5))
    out = np.empty((5, 300))
    _fill(state, out)
    for j in range(5):
        want = replicate_stream(master_seed, first + j).standard_normal(300)
        assert out[j].tobytes() == want.tobytes(), j
    m, f = ou(), f_identity()
    sched = StepSchedule.from_policy(0.1, "CLT", SchedulePolicy(2.5), 1.0)
    batch = rows_from(m, sched, f, 0.3, master_seed, first, 5)
    _assert_rows_match_scalar(batch, m, sched, f, 0.3, master_seed, first, range(5))


def test_replicate_keys_reject_two_word_indices():
    with pytest.raises(SimulationError, match="2\\*\\*32"):
        euler._stream_keys(0, 2**32 - 1, 2)
    m, f = ou(), f_identity()
    sched = StepSchedule.from_policy(0.1, "CLT", SchedulePolicy(2.5), 1.0)
    # refused before any allocation: the batch would need 2**32 + 1 rows
    with pytest.raises(SimulationError, match="2\\*\\*32"):
        simulate_batch(m, sched, f, 0.2, master_seed=0, n_replicates=2**32 + 1)
    rows_from(m, sched, f, 0.2, 0, 2**32 - 1, 1)


def _assert_rows_match_scalar(batch, m, sched, f, horizon, seed, first, rows, control=None):
    """Rows ``rows`` of ``batch``, keyed from replicate ``first``, are the
    plain stepper's, each run alone on its replicate's stream."""
    for i in rows:
        ref = _stepper(m, sched, f, horizon, seed, 1, control, first=first + i)
        for name in ("xi_continuous", "xi_riemann", "sup_abs", "terminal"):
            assert getattr(batch, name)[i] == ref[name][0], (i, name)


def test_batch_matches_scalar_across_chunk_boundary():
    # the kernel takes its rows a chunk of _SUM_ROWS at a time, here on two
    # threads
    m, f = ou(), f_identity()
    sched = StepSchedule.from_policy(0.05, "CLT", SchedulePolicy(2.1), 1.0)
    n = euler._SUM_ROWS + 3
    batch = simulate_batch(m, sched, f, 0.05, master_seed=31, n_replicates=n, threads=2)
    _assert_rows_match_scalar(batch, m, sched, f, 0.05, 31, 0,
                              (0, euler._SUM_ROWS - 1, euler._SUM_ROWS, n - 1))


@pytest.mark.parametrize("with_control", [False, True])
def test_batch_matches_scalar_across_fill_tiles(with_control):
    # the kernel fills 256 normals of a row at a time and steps them in
    # 8-step tiles on the AVX-512 path, so every path carries its stream on
    # from its row state, and the last fill and tile are short
    m, f = ou(), f_identity()
    sched = StepSchedule.from_policy(0.05, "MDP", SchedulePolicy(2.5, gamma_mdp=0.35), 1.0)
    ctrl = ControlFunction(psi=lambda s: 0.7, l2_bound=1.0, horizon=1.0) if with_control else None
    n_steps = sched.n_steps(0.5)
    assert n_steps > 256 and n_steps % 256 % 8 != 0
    batch = simulate_batch(m, sched, f, 0.5, master_seed=2**70 + 9, n_replicates=5, control=ctrl)
    _assert_rows_match_scalar(batch, m, sched, f, 0.5, 2**70 + 9, 0, range(5), control=ctrl)


@pytest.mark.parametrize("family", ["ou", "gompertz"])
def test_empty_and_negative_batches(family):
    # a model stepped in its own coordinate, and one stepped in log space
    m = ou() if family == "ou" else builtin_model("gompertz", dict(kappa=1.0, mu=1.0, sigma=1.0))
    f = f_identity()
    sched = StepSchedule.from_policy(0.05, "CLT", SchedulePolicy(2.1), 1.0)
    full = simulate_batch(m, sched, f, 0.3, master_seed=1, n_replicates=3)
    for threads in (1, 2):
        empty = simulate_batch(m, sched, f, 0.3, master_seed=1, n_replicates=0, threads=threads)
        for name in empty.__dataclass_fields__:
            got, want = getattr(empty, name), getattr(full, name)
            assert got.shape == (0,) and got.dtype == want.dtype, name
        with pytest.raises(SimulationError, match="n_replicates must be >= 0, got -2"):
            simulate_batch(m, sched, f, 0.3, master_seed=1, n_replicates=-2, threads=threads)


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
    res = simulate_batch(m, sched, f_identity(), 1.0, master_seed=21, n_replicates=4000)
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
    # one path that blows up records the step and leaves NaN outputs
    bad = cubic(ou(), 2.0)
    sched = StepSchedule(epsilon=0.01, delta_step=0.01, mdp_scale=1.0,
                         regime="LLN", policy=SchedulePolicy(2.0))
    res = simulate_batch(bad, sched, f_identity(), 1.0, master_seed=0, n_replicates=1)
    assert res.failed.tolist() == [True] and res.fail_step[0] > 0
    for name in ("xi_continuous", "xi_riemann", "sup_abs", "terminal"):
        assert np.isnan(getattr(res, name)[0]), name


def test_batch_flags_failures():
    m = ou()
    bad = cubic(m, 2.0)
    sched = StepSchedule(epsilon=0.01, delta_step=0.01, mdp_scale=1.0,
                         regime="LLN", policy=SchedulePolicy(2.0))
    res = simulate_batch(bad, sched, f_identity(), 1.0, master_seed=0, n_replicates=4)
    assert np.all(res.failed)
    assert np.all(res.fail_step > 0)
    assert np.all(np.isnan(res.xi_continuous))
    # from x0 = 0.5 the paths leave at different steps; fail_step is the
    # first step with |Z| > BLOW_UP, as each path run alone records it
    bad = cubic(m, 0.5)
    sched = StepSchedule(epsilon=0.05, delta_step=0.002, mdp_scale=1.0,
                         regime="LLN", policy=SchedulePolicy(2.0))
    steps = [27, 34, 19, 61, 61, 20]
    for i, step in enumerate(steps):
        one = rows_from(bad, sched, f_identity(), 1.0, 0, i, 1)
        assert one.fail_step.tolist() == [step]
    res = simulate_batch(bad, sched, f_identity(), 1.0, master_seed=0, n_replicates=6)
    assert res.fail_step.tolist() == steps


# ------------------------------------------------------ kernel reference


def _libm(fn):
    """``fn`` of :mod:`math` element by element: libm's results, which
    numpy's SIMD ``exp`` and ``**`` can differ from in the last bit."""
    return np.vectorize(fn, otypes=[float])


def _libm_coordinate(model):
    """The drift, diffusion, state map and start of the coordinate the
    kernel steps ``model`` in, with libm's ``pow`` and ``exp``."""
    if model.sim_drift is None:
        drift, diffusion, state, x0 = (model.drift, model.diffusion, lambda y: y,
                                       model.initial_state)
    else:
        drift, diffusion, state, x0 = (model.sim_drift, model.sim_diffusion, _libm(math.exp),
                                       model.sim_initial_state)
    if isinstance(drift, PowerDrift):
        alpha = drift.alpha
        drift = lambda x: -np.sign(x) * _libm(math.pow)(np.abs(x), alpha)
    return drift, diffusion, state, x0


def _stepper(model, sched, f, horizon, seed, n, control=None, first=0):
    """The Euler update written out plainly, one step at a time over all rows.

    Row ``i`` steps on ``replicate_stream(seed, first + i)``.  A row that
    leaves ``[-1e8, 1e8]`` restarts at ``x0``.  Returns the BatchResult
    fields by name, a failed row's outputs NaN, under ``"lowest"`` the
    lowest state each row visited and under ``"failures"`` how many times
    each row left the bound.
    """
    drift, diffusion, state, x0 = _libm_coordinate(model)
    h, dt, n_steps = sched.h, sched.delta_step, sched.n_steps(horizon)
    xi = np.array([replicate_stream(seed, first + i).standard_normal(n_steps)
                   for i in range(n)])
    z = np.full(n, x0)
    f_prev = np.asarray(f.value(0.0, state(z)), dtype=float)
    xi_c, xi_r, sup = np.zeros(n), np.zeros(n), np.zeros(n)
    fail_step, lowest, failures = np.full(n, -1), z.copy(), np.zeros(n, int)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps):
            t = k * dt
            xi_r += f_prev * dt
            s = diffusion(z)
            z = z + h * drift(z) + math.sqrt(h) * s * xi[:, k]
            if control is not None:
                z = z + (sched.mdp_scale / sched.epsilon * dt * float(control.psi(t))) * s
            out = ~(np.abs(z) <= 1e8)
            fail_step[(fail_step < 0) & out] = k + 1
            failures += out
            z = np.where(out, x0, z)
            f_new = np.asarray(f.value(t + dt, state(z)), dtype=float)
            xi_c += 0.5 * (f_prev + f_new) * dt
            sup = np.maximum(sup, np.abs(xi_c))
            lowest = np.minimum(lowest, z)
            f_prev = f_new
    failed = fail_step >= 0
    nan = lambda a: np.where(failed, np.nan, a)
    return dict(xi_continuous=nan(xi_c), xi_riemann=nan(xi_r), sup_abs=nan(sup),
                terminal=nan(state(z)), failed=failed, fail_step=fail_step, lowest=lowest,
                failures=failures)


def _assert_matches_stepper(res, ref):
    for name in res.__dataclass_fields__:
        assert getattr(res, name).tobytes() == ref[name].tobytes(), name


def _each_path(monkeypatch):
    """Route ``euler_rows`` to each exported path this CPU runs in turn
    (both on an AVX-512 CPU), yielding the path's name."""
    lib = euler._native()
    for path in euler._NATIVE_PATHS:
        if path == "portable" or euler.NATIVE_PATH == "avx512":
            monkeypatch.setattr(lib, "euler_rows", getattr(lib, f"euler_rows_{path}"))
            yield path


_PSI = ControlFunction(psi=lambda s: 0.7 * math.cos(s), l2_bound=1.0, horizon=1.0)


@pytest.mark.parametrize("family, regime, theta, control, horizon, rows", [
    ("ou", "CLT", 2.5, None, 1.0, None),  # constant diffusion
    ("power_drift", "LLN", 2.0, None, 1.0, None),  # libm's pow in the drift
    ("cir", "LLN", 2.0, None, 1.0, None),  # diffusion depends on the state
    ("gompertz", "LLN", 2.0, None, 1.0, None),  # log space, f at libm's exp
    ("ou", "MDP", 2.5, None, 0.6, None),
    ("ou", "MDP", 2.5, _PSI, 1.0, None),
    ("ou", "MDP", 2.5, _PSI, 1.0, 225),  # one chunk of 14 vector groups and a row
    ("cir", "MDP", 3.5, _PSI, 1.0, 225),
    ("custom", "CLT", 2.5, None, 1.0, None),  # polynomial drift and diffusion
    ("custom", "MDP", 2.5, _PSI, 1.0, None),
    ("power_drift", "MDP", 2.5, _PSI, 1.0, None),
    ("gompertz", "MDP", 2.5, _PSI, 1.0, None),
])
def test_kernel_matches_plain_stepper(monkeypatch, family, regime, theta, control, horizon,
                                      rows):
    # rows: None for three 256-row chunks and a short fourth of 41; every
    # batch on each exported path at 1, 2, 3 and 5 threads
    if family == "custom":
        m = custom_model([0.5, -1.0, 0.0, -0.2], [0.8, 0.0, 0.1], x0=0.3)
    else:
        m = builtin_model(family, dict(alpha=1.5) if family == "power_drift"
                          else dict(kappa=2.0, mu=1.0, sigma=0.8))
    f = FunctionalSpec.from_polynomial([0.3, -1.0, 0.5])
    pol = SchedulePolicy(theta, gamma_mdp=0.35 if regime == "MDP" else None)
    sched = StepSchedule.from_policy(0.165, regime, pol, m.holder_nu)
    assert sched.n_steps(horizon) % 8 != 0
    n = rows or 3 * euler._SUM_ROWS + 41
    ref = _stepper(m, sched, f, horizon, 29, n, control)
    for path in _each_path(monkeypatch):
        for threads in (1, 2, 3, 5):
            res = simulate_batch(m, sched, f, horizon, master_seed=29, n_replicates=n,
                                 threads=threads, control=control)
            _assert_matches_stepper(res, ref)


def test_native_kernel_matches_plain_stepper_at_the_cir_boundary():
    # from x0 = 0.02 with h = 0.3 some Euler iterates fall below 0, where the
    # clamped diffusion sigma * sqrt(max(x, 0)) is 0
    m = builtin_model("cir", dict(kappa=1.0, mu=0.6, sigma=1.0, x0=0.02))
    f = FunctionalSpec.from_polynomial([0.3, -1.0, 0.5])
    sched = StepSchedule(epsilon=0.1, delta_step=0.03, mdp_scale=1.0, regime="LLN",
                         policy=SchedulePolicy(2.0))
    res = simulate_batch(m, sched, f, 1.0, master_seed=3, n_replicates=40)
    ref = _stepper(m, sched, f, 1.0, 3, 40)
    assert np.sum(ref["lowest"] < 0.0) >= 3
    _assert_matches_stepper(res, ref)


@pytest.mark.parametrize("threads", [1, 2])
def test_kernels_stop_failed_rows_at_their_step(threads):
    # test_batch_flags_failures' cubic drift: the kernel stops a row at its
    # failing step
    bad = cubic(ou(), 0.5)
    f = f_identity()
    sched = StepSchedule(epsilon=0.05, delta_step=0.002, mdp_scale=1.0,
                         regime="LLN", policy=SchedulePolicy(2.0))
    res = simulate_batch(bad, sched, f, 1.0, master_seed=0, n_replicates=6, threads=threads)
    assert res.fail_step.tolist() == [27, 34, 19, 61, 61, 20]
    # a custom model whose paths fail at many different steps, or never; in
    # the plain stepper a failed row restarts at x0, and some leave the
    # bound again, which must not move their fail_step
    boom = custom_model([0.0, 0.0, 0.0, -4.0], [1.0], x0=1.5)
    sched = StepSchedule(epsilon=0.05, delta_step=0.01, mdp_scale=1.0,
                         regime="LLN", policy=SchedulePolicy(2.0))
    res = simulate_batch(boom, sched, f, 1.0, master_seed=0, n_replicates=300, threads=threads)
    ref = _stepper(boom, sched, f, 1.0, 0, 300)
    assert 5 < res.failed.sum() < 300 and len(set(res.fail_step[res.failed].tolist())) > 5
    assert np.sum(ref["failures"] > 1) >= 3
    _assert_matches_stepper(res, ref)


def test_native_rows_split_across_threads():
    # 809 rows from replicate 7 on: three chunks and a short fourth (41
    # rows, so groups of 16 and of 4 rows end mid-chunk), taken on 1, 2, 3
    # and 5 threads; the custom model's rows fail at different steps
    boom = custom_model([0.0, 0.0, 0.0, -4.0], [1.0], x0=1.5)
    sched = StepSchedule(epsilon=0.05, delta_step=0.01, mdp_scale=1.0, regime="LLN",
                         policy=SchedulePolicy(2.0))
    f = FunctionalSpec.from_polynomial([0.3, -1.0, 0.5])
    n = 3 * euler._SUM_ROWS + 41
    for m in (ou(), boom):
        runs = [rows_from(m, sched, f, 1.0, 2**70 + 1, 7, n, threads)
                for threads in (1, 2, 3, 5)]
        for name in runs[0].__dataclass_fields__:
            assert len({getattr(r, name).tobytes() for r in runs}) == 1, name
        _assert_matches_stepper(runs[0], _stepper(m, sched, f, 1.0, 2**70 + 1, n, first=7))
    assert runs[0].failed.any() and not runs[0].failed.all()


def test_batch_rows_at_the_last_stream_indices():
    # rows that end at replicate 2**32 - 1, the last index one spawn word
    # keys: 3 rows from 2**32 - 3, and 809 rows from 2**32 - 809 (three
    # 256-row chunks and a short fourth), on 1, 2, 3 and 5 threads; the
    # custom model's rows fail at different steps.  Every array is
    # byte-equal across thread counts and matches the per-step reference
    # on replicate_stream
    boom = custom_model([0.0, 0.0, 0.0, -4.0], [1.0], x0=1.5)
    sched = StepSchedule(epsilon=0.05, delta_step=0.01, mdp_scale=1.0, regime="LLN",
                         policy=SchedulePolicy(2.0))
    f = FunctionalSpec.from_polynomial([0.3, -1.0, 0.5])
    for m in (ou(), boom):
        for n in (3, 809):
            first = 2**32 - n
            runs = [rows_from(m, sched, f, 1.0, 2**70 + 1, first, n, threads)
                    for threads in (1, 2, 3, 5)]
            for name in runs[0].__dataclass_fields__:
                assert len({getattr(r, name).tobytes() for r in runs}) == 1, name
            _assert_matches_stepper(runs[0], _stepper(m, sched, f, 1.0, 2**70 + 1, n,
                                                      first=first))
    assert runs[0].failed.any() and not runs[0].failed.all()


def test_batch_holds_no_per_replicate_stream_state():
    # 100,000 rows: the call allocates its outputs alone (41 B a replicate)
    # and keys each row on the thread that steps it; an (n, 11) stream state
    # array would add 88 B a replicate
    m, f = ou(), f_identity()
    sched = StepSchedule.from_policy(0.2, "CLT", SchedulePolicy(2.5), 1.0)
    n = 100_000
    simulate_batch(m, sched, f, 0.3, master_seed=1, n_replicates=1)  # the library loads untraced
    tracemalloc.start()
    try:
        simulate_batch(m, sched, f, 0.3, master_seed=1, n_replicates=n, threads=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 48 * n + 2**20


def test_native_rows_more_threads_than_rows():
    # 3 rows on 5 threads: one chunk, taken by the caller alone
    m, f = ou(), FunctionalSpec.from_polynomial([0.3, -1.0, 0.5])
    sched = StepSchedule.from_policy(0.165, "CLT", SchedulePolicy(2.5), 1.0)
    runs = [simulate_batch(m, sched, f, 1.0, master_seed=4, n_replicates=3, threads=threads)
            for threads in (1, 5)]
    for name in runs[0].__dataclass_fields__:
        assert getattr(runs[0], name).tobytes() == getattr(runs[1], name).tobytes(), name
    _assert_matches_stepper(runs[1], _stepper(m, sched, f, 1.0, 4, 3))


def _without_a_kind(case):
    """OU and a polynomial f, with one part the kernel has no kind for, and
    the words of the error that names it."""
    m, f = ou(), FunctionalSpec.from_polynomial([0.3, -1.0, 0.5], name="g")
    if case == "lambda-drift":
        m = type(m)(**{**m.__dict__, "drift": lambda x: -1.0 * (np.asarray(x, float) - 0.5)})
        return m, f, "the drift <function"
    if case == "lambda-diffusion":
        m = type(m)(**{**m.__dict__, "diffusion": lambda x: 0.8 + 0.0 * np.asarray(x, float)})
        return m, f, "the diffusion <function"
    if case == "state-map":
        gompertz = builtin_model("gompertz", dict(kappa=2.0, mu=1.0, sigma=0.8))
        m = type(gompertz)(**{**gompertz.__dict__, "state_map": np.expm1})
        return m, f, "the state_map <ufunc 'expm1'>"
    if case == "lambda-f":
        f = FunctionalSpec(value=lambda t, x: np.asarray(x, float), name="g")
        return m, f, "the functional 'g' (<function"
    f = FunctionalSpec(value=lambda t, x: np.cos(3.0 * t) * np.asarray(x, float),
                       time_homogeneous=False, name="g")
    return m, f, "the time-inhomogeneous functional 'g'"


_NO_KIND = ["lambda-drift", "lambda-diffusion", "state-map", "lambda-f", "time-inhomogeneous-f"]


@pytest.mark.parametrize("case", _NO_KIND)
def test_models_without_a_kind_are_refused(monkeypatch, case):
    # simulate_batch and the autocorrelation route name the part the kernel
    # cannot run, before any row is stepped or any start sampled
    m, f, words = _without_a_kind(case)
    sched = StepSchedule.from_policy(0.165, "CLT", SchedulePolicy(2.5), m.holder_nu)
    lib = euler._native()
    monkeypatch.setattr(lib, "euler_rows", None)  # a call would raise TypeError
    with pytest.raises(SimulationError, match=f"^the Euler kernel .*{re.escape(words)}"):
        simulate_batch(m, sched, f, 1.0, master_seed=29, n_replicates=5, threads=2)
    pi = invariant_density_1d(ou())

    def no_sample(self, u):
        raise AssertionError("a start was sampled")
    monkeypatch.setattr(type(pi), "sample", no_sample)
    f = dataclasses.replace(f, centralized=True)
    with pytest.raises(SimulationError, match=f"^the Euler kernel .*{re.escape(words)}"):
        mf_autocorrelation_form(m, pi, f, n_paths=10, horizon=0.1)


# ---------------------------------------------------- the two native paths


def test_native_path_is_picked_from_the_cpu():
    try:
        with open("/proc/cpuinfo") as fh:
            lines = fh.read().splitlines()
    except OSError:
        pytest.skip("no /proc/cpuinfo to read the CPU's flags from")
    flags = next((set(l.split(":", 1)[1].split()) for l in lines if l.startswith("flags")), set())
    want = "avx512" if {"avx512f", "avx512dq"} <= flags else "portable"
    assert euler.NATIVE_PATH == want
    assert want in euler._NATIVE_PATHS
    # the plain names are bound to that path's exports
    lib = euler._native()
    for name in ("philox_normal_fill", "euler_rows"):
        assert getattr(lib, name) is getattr(lib, f"{name}_{want}"), name


@pytest.fixture
def native_paths():
    """``{path: (philox_normal_fill_<path>, euler_rows_<path>)}`` for both paths."""
    if euler.NATIVE_PATH != "avx512":
        pytest.skip("this CPU lacks avx512f or avx512dq, so the library picked the "
                    "portable path and the AVX-512 path cannot run here")
    lib = euler._native()
    return {p: (getattr(lib, f"philox_normal_fill_{p}"), getattr(lib, f"euler_rows_{p}"))
            for p in euler._NATIVE_PATHS}


def _fill_on_both_paths(native_paths, state, width):
    """Fill ``width`` normals per row from copies of ``state`` on each path;
    both must give numpy's normals and leave numpy's Philox state behind,
    which is returned."""
    runs = []
    for fill, _ in native_paths.values():
        rows = state.copy()
        out = np.empty((len(rows), width))
        fill(rows.ctypes.data, len(rows), out.ctypes.data, width)
        runs.append((out, rows))
    (out, rows), (out_2, rows_2) = runs
    assert out.tobytes() == out_2.tobytes() and rows.tobytes() == rows_2.tobytes(), width
    for j, row in enumerate(state):
        bg = _numpy_philox(row)
        want = np.random.Generator(bg).standard_normal(width)
        assert out[j].tobytes() == want.tobytes(), (j, width)
        assert rows[j].tobytes() == euler._philox_row(bg).tobytes(), (j, width)
    return rows


def test_both_paths_fill_alike(native_paths):
    # every buffer position and the empty buffer, with calls one after
    # another on the same rows; widths that end inside a block, at a
    # 64-word segment's end, inside the next segment and well on
    state = _hand_set_rows(13, np.random.default_rng(5))
    for width in (1, 2, 3, 5, 9, 31, 32, 33, 63, 64, 65, 70, 130, 1000):
        state = _fill_on_both_paths(native_paths, state, width)


def test_both_paths_take_slow_words_at_every_lane(native_paths):
    # for each kind of slow draw and each q % 4, one draw after 8 accepted
    # words; start a row b blocks before its first word's block, so that
    # the word is word 4*b + q%4 of the first 64-word segment: with b = 0
    # and 1 it sits at each of the 8 lanes of the vector fast path, and
    # with b = 15 the word or its uniform is the segment's last word.  Each
    # row is filled up to the slow word, whose uniforms then lie past the
    # call's width, and on into the next segment
    key = np.random.SeedSequence(21).generate_state(2, np.uint64)
    draws, layers = {}, {}
    for q, kind, idx, run in _slow_draws(np.random.Philox(key=key).random_raw(2**20)):
        if run >= 8 and q >= 64:
            draws.setdefault((q % 4, kind), q)
            layers.setdefault(idx, q)
    assert sorted(draws) == sorted((o, kind) for o in range(4) for kind in _SLOW_KINDS)
    lanes = {kind: set() for kind in _SLOW_KINDS}
    for (offset, kind), q in draws.items():
        for b in (0, 1, 15):
            start = np.random.Philox(key=key)
            start.random_raw(4 * (q // 4 - b))
            row = euler._philox_row(start)[None].copy()
            for width in (4 * b + offset + 1, 70):
                _fill_on_both_paths(native_paths, row, width)
            lanes[kind].add((4 * b + offset) % 8)
    assert lanes == {kind: set(range(8)) for kind in _SLOW_KINDS}
    # the wedge at both ends of the table: every word of layer 1 is slow
    # (ki[1] = 0), and layer 255 uses fi[254] and fi[255]
    assert _ziggurat_tables()[0][1] == 0
    for idx in (1, 255):
        start = np.random.Philox(key=key)
        start.random_raw(layers[idx] - 8)
        row = euler._philox_row(start)[None].copy()
        for width in (9, 70):
            _fill_on_both_paths(native_paths, row, width)


_DRIFTS = {"ou": OuDrift(2.0, 1.0), "cir": CirDrift(2.0, 1.0),
           "poly": Polynomial([0.5, -1.0, 0.0, -0.2]), "power": PowerDrift(1.5)}
_DIFFUSIONS = {"constant": ConstantDiffusion(0.8), "cir": CirDiffusion(0.8),
               "poly": Polynomial([0.8, 0.0, 0.1])}
_PSI_LONG = ControlFunction(psi=lambda s: 0.7 * math.cos(s), l2_bound=2.0, horizon=2.9)


def _rows_on_both_paths(native_paths, spec, seed, first, n):
    """``euler_rows`` of each path on ``n`` rows, from a state array and from
    keys started in the kernel; all must give the same outputs, the state
    arrays the same end row states, and none may write past row ``n``.
    Returns the first run's ``(outputs, fail steps, end states)``."""
    keys = euler._stream_keys(seed, first, n)
    runs, states = [], []
    for _, rows_fn in native_paths.values():
        for keyed in (False, True):
            # from a state array, and from keys started where each row is stepped
            state = np.full((n + 8, euler._STATE_WORDS), 7, np.uint64)
            euler._start_streams(state[:n], keys)
            out = np.full((4, n + 8), -7.0)
            fail = np.full(n + 8, -7, np.int64)
            rows_fn(spec, None if keyed else state.ctypes.data, keys if keyed else None, n,
                    *[out[i].ctypes.data for i in range(4)], fail.ctypes.data, None, 1)
            assert np.all(out[:, n:] == -7.0) and np.all(fail[n:] == -7)
            assert np.all(state[n:] == 7)
            runs.append((out, fail))
            if not keyed:
                states.append(state)
    for out, fail in runs[1:]:
        assert out.tobytes() == runs[0][0].tobytes() and fail.tobytes() == runs[0][1].tobytes()
    assert states[0].tobytes() == states[1].tobytes()
    return (*runs[0], states[0])


@pytest.mark.parametrize("drift", sorted(_DRIFTS))
@pytest.mark.parametrize("diffusion", sorted(_DIFFUSIONS))
@pytest.mark.parametrize("control", [None, _PSI_LONG])
def test_both_paths_step_alike(native_paths, drift, diffusion, control):
    # each kind pair on 1 to 17 rows and 41, from replicate 0 and 5: every
    # group size of the vector path (one 8-row vector, or two in a group of
    # up to 16 rows) and of the portable path (one 8-row vector);
    # 262 steps cross a 256-step fill and end mid-way through an 8-step tile
    m = type(ou())(**{**ou().__dict__, "drift": _DRIFTS[drift],
                      "diffusion": _DIFFUSIONS[diffusion], "initial_state": 0.3})
    f = FunctionalSpec.from_polynomial([0.3, -1.0, 0.5])
    sched = StepSchedule.from_policy(0.165, "MDP", SchedulePolicy(2.5, gamma_mdp=0.35), 1.0)
    assert sched.n_steps(2.9) == 262
    spec = euler._euler_spec(m, f, sched.h, sched.delta_step, 262, 1e8,
                             euler._tilts(sched, control, 262))
    for first in (0, 5):
        for n in (*range(1, 18), 41):
            _rows_on_both_paths(native_paths, spec, 2**70 + 3, first, n)


def test_both_paths_fail_and_clamp_alike(native_paths):
    # a cubic drift whose rows blow up at many different steps, or never,
    # and CIR rows that fall below 0 (the cases of the plain-stepper tests)
    f = FunctionalSpec.from_polynomial([0.3, -1.0, 0.5])
    boom = custom_model([0.0, 0.0, 0.0, -4.0], [1.0], x0=1.5)
    sched = StepSchedule(epsilon=0.05, delta_step=0.01, mdp_scale=1.0, regime="LLN",
                         policy=SchedulePolicy(2.0))
    n_steps = sched.n_steps(3.0)
    spec = euler._euler_spec(boom, f, sched.h, sched.delta_step, n_steps, 1e8,
                             euler._tilts(sched, None, n_steps))
    _, fail, _ = _rows_on_both_paths(native_paths, spec, 0, 0, 300)
    assert 20 < (fail > 0).sum() < 300 and len(set(fail[fail > 0].tolist())) > 20
    cir = builtin_model("cir", dict(kappa=1.0, mu=0.6, sigma=1.0, x0=0.02))
    sched = StepSchedule(epsilon=0.1, delta_step=0.03, mdp_scale=1.0, regime="LLN",
                         policy=SchedulePolicy(2.0))
    n_steps = sched.n_steps(1.0)
    spec = euler._euler_spec(cir, f, sched.h, sched.delta_step, n_steps, 1e8,
                             euler._tilts(sched, None, n_steps))
    _rows_on_both_paths(native_paths, spec, 3, 0, 40)
    assert np.sum(_stepper(cir, sched, f, 1.0, 3, 40)["lowest"] < 0.0) >= 3


def _observe_on_both_paths(native_paths, model, f, y0, w, legs, threads=(1,), h=0.03):
    """The observe mode of ``euler_rows`` on each path at each of ``threads``:
    rows started at ``y0`` with weights ``w``, over consecutive legs of
    ``legs`` steps, each leg from the last one's terminal states on the
    same stream rows, up to a leg in which a row fails.  All must give the
    same outputs, fail steps, stream rows and each chunk's sums, the sums
    up to the first failing step (later ones are undefined), and write
    nothing past the last row, step or chunk.  Returns the first run's
    ``(sums, outputs, fail steps)`` of each leg, the sums one row per
    chunk."""
    n = len(y0)
    n_chunks = -(-n // euler._SUM_ROWS)
    runs = []
    for _, rows_fn in native_paths.values():
        for t in threads:
            state = np.full((n + 8, euler._STATE_WORDS), 7, np.uint64)
            euler._start_streams(state[:n], euler._stream_keys(11, 4, n))
            y, done = y0, []
            for k in legs:
                spec = euler._euler_spec(model, f, h, h, k, np.finfo(float).max, start=y,
                                         weight=w)
                out, fail = np.full((4, n + 8), -7.0), np.full(n + 8, -7, np.int64)
                sums = np.full(n_chunks * k + 8, -7.0)
                rows_fn(spec, state.ctypes.data, None, n, *[out[i].ctypes.data for i in range(4)],
                        fail.ctypes.data, sums.ctypes.data, t)
                assert np.all(out[:, n:] == -7.0) and np.all(fail[n:] == -7)
                assert np.all(sums[n_chunks * k:] == -7.0) and np.all(state[n:] == 7)
                assert np.isnan(out[1:3, :n]).all()  # xi_riemann and sup_abs are not kept
                done.append((sums[:n_chunks * k].reshape(n_chunks, k), out[:, :n], fail[:n]))
                if np.any(fail[:n] >= 0):
                    break
                y = out[3, :n].copy()
            runs.append((done, state))
    first, first_state = runs[0]
    for done, state in runs[1:]:
        assert state.tobytes() == first_state.tobytes() and len(done) == len(first)
        for (sums, out, fail), (sums_0, out_0, fail_0) in zip(done, first):
            assert out.tobytes() == out_0.tobytes() and fail.tobytes() == fail_0.tobytes()
            upto = fail_0[fail_0 >= 0].min() if np.any(fail_0 >= 0) else sums_0.shape[1]
            assert sums[:, :upto].tobytes() == sums_0[:, :upto].tobytes()
    return first


@pytest.mark.parametrize("family", ["ou", "gompertz"])
def test_observe_mode_keeps_no_riemann_or_sup(family):
    # the observe mode accumulates neither xi_riemann nor sup_abs, which the
    # autocorrelation route discards, and leaves both NaN; the paths, their
    # trapezoid integrals and fail steps are the plain mode's, and its
    # terminal states stay in the stepped coordinate (Gompertz's log space),
    # where the plain mode maps them
    m = ou() if family == "ou" else builtin_model("gompertz", dict(kappa=1.0, mu=1.0, sigma=1.0))
    f = f_identity()
    n, n_steps, h = 300, 40, 0.03
    y0 = np.random.default_rng(6).normal(0.0, 1.0, n)
    runs = []
    for weight in (None, y0):
        state = euler._start_streams(np.empty((n, euler._STATE_WORDS), np.uint64),
                                     euler._stream_keys(8, 0, n))
        corr = None if weight is None else np.empty(n_steps)
        runs.append(euler._run_rows(m, f, h, h, n_steps, 1e8, state, 1, start=y0, weight=weight,
                                    corr=corr))
    plain, observed = runs
    assert np.isnan(observed.xi_riemann).all() and np.isnan(observed.sup_abs).all()
    assert np.isfinite(plain.xi_riemann).all() and np.isfinite(plain.sup_abs).all()
    for name in ("xi_continuous", "fail_step"):
        assert getattr(observed, name).tobytes() == getattr(plain, name).tobytes(), name
    state = _libm_coordinate(m)[2]
    assert plain.terminal.tobytes() == state(observed.terminal).tobytes()


@pytest.mark.parametrize("family", ["ou", "cir"])
def test_both_paths_autocorrelate_alike(native_paths, family):
    # the observe mode that runs the autocorrelation route of M_f: 1 to 17
    # rows and 41, every tail of a 16-row AVX-512 group and of an 8-row
    # portable group, over legs of 1, 5 and 9 steps; CIR rows started near 0 fall
    # below it
    m = (ou() if family == "ou"
         else builtin_model("cir", dict(kappa=1.0, mu=0.6, sigma=1.0)))
    f = FunctionalSpec.from_polynomial([0.1, 1.0, -0.3])
    rng = np.random.default_rng(2)

    def starts(n, spread=None):
        if spread is not None:
            return rng.normal(0.0, spread, n)
        return rng.uniform(0.0, 0.05, n) if family == "cir" else rng.normal(0.0, 1.0, n)
    for n in (*range(1, 18), 41):
        y0 = starts(n)
        _observe_on_both_paths(native_paths, m, f, y0, f.value(0.0, y0), (1, 5, 9))
    # 1,003 rows, four chunks of partial sums with a short last one, over
    # 70 and 30 steps on 1, 2, 3 and 5 threads
    y0 = starts(1003)
    legs = _observe_on_both_paths(native_paths, m, f, y0, f.value(0.0, y0), (70, 30),
                                  threads=(1, 2, 3, 5))
    assert len(legs) == 2 and not np.any(legs[1][2] >= 0)
    # a cubic drift that overshoots: the same rows fail at the same steps,
    # with the same sums up to the first, on every path and thread count
    boom = custom_model([0.0, 0.0, 0.0, -4.0], [1.0], x0=0.0)
    for spread, n in ((1.5, 300), (1.2, 6000)):
        y0 = starts(n, spread)
        (_, _, fail), = _observe_on_both_paths(native_paths, boom, f, y0, f.value(0.0, y0),
                                               (20,), threads=(1, 2, 3, 5), h=0.1)
        assert 1 < fail[fail >= 0].min() < 20 and np.any(fail < 0)


@pytest.mark.parametrize("drift", sorted(_DRIFTS))
@pytest.mark.parametrize("diffusion", sorted(_DIFFUSIONS))
def test_both_paths_autocorrelate_every_kind_pair(native_paths, drift, diffusion):
    # the observe mode runs on the plain mode's compiled step, which reads
    # the kind pair at run time: each pair on every tail of a 16-row AVX-512
    # group and of an 8-row portable group, over legs of 1 and 5 steps, and on 300
    # rows over 40 and 20 steps at 1 and 3 threads
    m = type(ou())(**{**ou().__dict__, "drift": _DRIFTS[drift],
                      "diffusion": _DIFFUSIONS[diffusion], "initial_state": 0.3})
    f = FunctionalSpec.from_polynomial([0.1, 1.0, -0.3])
    rng = np.random.default_rng(3)
    for n in (*range(1, 18), 300):
        y0 = rng.uniform(0.0, 1.0, n)
        legs = _observe_on_both_paths(native_paths, m, f, y0, f.value(0.0, y0),
                                      (1, 5) if n < 300 else (40, 20),
                                      threads=(1,) if n < 300 else (1, 3))
        assert not np.any(legs[-1][2] >= 0)


def _chunked_sum(p):
    """Each chunk's sum of ``p`` in the order of the observe mode, by
    ``np.cumsum``: in row order within chunks of ``euler._SUM_ROWS`` rows."""
    rows = euler._SUM_ROWS
    return np.array([np.cumsum(p[a:a + rows])[-1] for a in range(0, len(p), rows)])


@pytest.mark.parametrize("n", [*range(1, 8), 128, 129, 8191, 8192, 8193])
def test_both_paths_sum_rows_as_numpy(native_paths, n):
    # each chunk's sum of a step's products is np.cumsum's within the chunk,
    # bit for bit, for one chunk, a chunk and a bit, and 32 chunks either
    # side of a whole number; one step per leg leaves each step's products
    # to compare, from random and all -0.0 weights
    m = ou()
    f = FunctionalSpec.from_polynomial([0.1, 1.0, -0.3])
    rng = np.random.default_rng(n)
    y0 = rng.normal(0.0, 1.0, n)
    for w in (rng.normal(0.0, 1.0, n), np.full(n, -0.0)):
        legs = _observe_on_both_paths(native_paths, m, f, y0, w, (1, 1, 1, 1), threads=(1, 3))
        assert len(legs) == 4
        for sums, out, _ in legs:
            prod = w * f.value(0.0, out[3])
            assert sums.tobytes() == _chunked_sum(prod).tobytes()


def test_float_replicate_count_rejected():
    # a count is an integer, as config's counts are
    m, f = ou(), f_identity()
    sched = StepSchedule.from_policy(0.1, "CLT", SchedulePolicy(2.5), 1.0)
    for count in (2.0, "2", None):
        with pytest.raises(SimulationError, match=r"^n_replicates must be an integer"):
            simulate_batch(m, sched, f, 0.2, master_seed=0, n_replicates=count)
    # a numpy integer is an integer
    res = simulate_batch(m, sched, f, 0.2, master_seed=0, n_replicates=np.int64(3))
    assert len(res.xi_continuous) == 3


@pytest.mark.parametrize("kw, message", [
    pytest.param(dict(master_seed=1.5), r"^master_seed must be an integer, got 1.5",
                 id="float-seed"),
    pytest.param(dict(master_seed=-1), r"^master_seed must be >= 0, got -1", id="negative-seed"),
    pytest.param(dict(threads=0), r"^threads must be >= 1, got 0", id="zero-threads"),
    pytest.param(dict(threads=-3), r"^threads must be >= 1, got -3", id="negative-threads"),
    pytest.param(dict(threads=2.0), r"^threads must be an integer, got 2.0", id="float-threads"),
])
def test_bad_seed_or_thread_count_rejected(monkeypatch, kw, message):
    # before any stream is derived or thread started
    m, f = ou(), f_identity()
    sched = StepSchedule.from_policy(0.1, "CLT", SchedulePolicy(2.5), 1.0)
    monkeypatch.setattr(euler._native(), "euler_rows", None)  # a call would raise TypeError
    with pytest.raises(SimulationError, match=message):
        simulate_batch(m, sched, f, 0.2, **{"master_seed": 0, "n_replicates": 2, **kw})


# ---------------------------------------------------------------- control


def test_zero_control_is_bitwise_identical():
    m, f = ou(), f_identity()
    sched = StepSchedule.from_policy(0.05, "MDP", SchedulePolicy(2.5, gamma_mdp=0.35), 1.0)
    psi = ControlFunction(psi=lambda s: 0.0, l2_bound=1.0, horizon=1.0)
    plain = simulate_batch(m, sched, f, 1.0, master_seed=11, n_replicates=3)
    ctrl = simulate_batch(m, sched, f, 1.0, master_seed=11, n_replicates=3, control=psi)
    for name in plain.__dataclass_fields__:
        assert getattr(plain, name).tobytes() == getattr(ctrl, name).tobytes(), name


def test_control_requires_mdp_schedule():
    m, f = ou(), f_identity()
    sched = StepSchedule.from_policy(0.05, "CLT", SchedulePolicy(2.5), 1.0)
    psi = ControlFunction(psi=lambda s: 0.0, l2_bound=1.0, horizon=1.0)
    with pytest.raises(ScheduleError, match="MDP"):
        simulate_batch(m, sched, f, 1.0, master_seed=0, n_replicates=1, control=psi)


def test_control_past_its_horizon_rejected():
    # the L2 budget is checked on [0, horizon] alone, so no simulation may
    # step the control past its horizon; up to it, the grid's slack
    # included, the control runs
    m, f = ou(), f_identity()
    sched = StepSchedule.from_policy(0.165, "MDP", SchedulePolicy(2.5, gamma_mdp=0.35), 1.0)
    psi = ControlFunction(psi=lambda s: 0.5, l2_bound=1.0, horizon=0.5)
    with pytest.raises(ScheduleError,
                       match=r"runs to t = 0\.99\d*, past the control's horizon 0\.5\b"):
        simulate_batch(m, sched, f, 1.0, master_seed=0, n_replicates=2, control=psi)
    n = sched.n_steps(0.5)
    on_grid = n * sched.delta_step
    assert on_grid < 0.5 and sched.n_steps(on_grid) == n
    for horizon in (0.5, on_grid, 0.5 + 0.5 * sched.delta_step):
        assert sched.n_steps(horizon) == n
        simulate_batch(m, sched, f, horizon, master_seed=0, n_replicates=2, control=psi)
    with pytest.raises(ScheduleError, match="past the control's horizon"):
        simulate_batch(m, sched, f, (n + 1) * sched.delta_step, master_seed=0, n_replicates=2,
                       control=psi)


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
