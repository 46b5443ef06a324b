"""Benchmark of the ergosim chain, end to end and per layer.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the package is imported from
``src/``.  With ``--trace 0`` the workload is timed untraced and the
end-to-end metrics of ``BENCHMARK.json`` are reported; with ``--trace 1``
a traced run reports its per-layer metrics.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it holds the machine block,
the calibration figure and the raw samples.  Scratch files and the span
dump go to ``.bench_build/ergosim-bench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "ergosim" / "__init__.py").is_file():
    sys.exit(f"error: no ergosim package under {SRC}; run from a source checkout")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from ergosim import (cli, config, euler, harness, models, poisson1d,  # noqa: E402
                     quadrature, variance)

from spans import Tracer  # noqa: E402
from workloads import (WORKLOADS, AnalyticChain, Checks,  # noqa: E402
                       MdpManyShort, prepare)

LAYERS = (models, quadrature, euler, poisson1d, variance, harness, config, cli)
# the seed kernel's layout, used to size the RNG probe like its noise blocks
CHUNK, NOISE_BUDGET = 4096, 8_000_000
# verdict_s is a median of at least this many repetitions
MIN_VERDICT_REPS = 3
REDUCERS = {"clt_statistics", "ks_distance", "ks_threshold", "normal_cdf",
            "gaussian_tail_probability"}


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu": cpu, "python": platform.python_version(), "numpy": np.__version__}


def _median_time(fn, reps: int = 5) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def philox_normal_ns() -> float:
    """Calibration: plain Philox standard normals, ns each."""
    g = np.random.Generator(np.random.Philox(12345))
    out = np.empty(1 << 20)
    return 1e9 * _median_time(lambda: g.standard_normal(out=out)) / out.size


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def run_rep(kind: str, fn, n_checks: int, checks: Checks, log: list):
    """Run one repetition; one that raises counts all its checks as failed."""
    before = len(checks.failures)
    try:
        out = fn()
    except Exception as exc:  # a failed repetition is reported, not fatal
        traceback.print_exc(file=sys.stderr)
        checks.fail_all(f"{kind} raised {type(exc).__name__}: {exc}", n_checks)
        log.append((kind, False))
        return None
    log.append((kind, len(checks.failures) == before))
    return out


# ---------------------------------------------------------------------------
# end to end, tracing off
# ---------------------------------------------------------------------------


def measure(w, seconds: float, checks: Checks, log: list) -> dict:
    setup_s, verdict_s = [], []
    replicates = replicates_failed = 0
    t_start = time.perf_counter()

    def setup():
        t0 = time.perf_counter()
        prepared = w.setup()
        setup_s.append(time.perf_counter() - t0)
        w.check_setup(prepared, checks)
        return prepared

    def verdict():
        v = w.verdict(prepared, w.threads)
        verdict_s.append(v.seconds)
        w.check_verdict(v, checks)
        return v

    prepared = None
    for _ in range(w.setup_reps):
        prepared = run_rep("setup", setup, w.setup_checks, checks, log)
        if prepared is None:
            break
    while prepared is not None and (
            len(verdict_s) < MIN_VERDICT_REPS or time.perf_counter() - t_start < seconds):
        v = run_rep("verdict", verdict, w.verdict_checks, checks, log)
        if v is None:
            break
        replicates += v.replicates
        replicates_failed += v.replicates_failed
    return {
        "metrics": {
            "setup_s": statistics.median(setup_s) if setup_s else 0.0,
            "verdict_s": statistics.median(verdict_s) if verdict_s else 0.0,
            "peak_rss_mb": peak_rss_mb(),
            "checks_passed_frac": 1.0 - len(checks.failures) / max(checks.attempted, 1),
            "replicates_ok_frac": 1.0 - replicates_failed / replicates if replicates else 1.0,
        },
        "samples": {"setup_s": setup_s, "verdict_s": verdict_s},
        "replicates": replicates,
        "replicates_failed": replicates_failed,
    }


# ---------------------------------------------------------------------------
# per layer, tracing on
# ---------------------------------------------------------------------------


def traced_rep(w, threads: int, checks: Checks, log: list, verify: bool = True):
    """Setup and verdict of one repetition, with every layer boundary traced.

    Probes pass ``verify=False``: their sizes are cut for timing, not for
    the statistical checks, so only an exception counts against them.
    """
    tracer = Tracer()

    def rep():
        with tracer.install(LAYERS):
            prepared = w.setup()
            v = w.verdict(prepared, threads)
        if verify:
            w.check_setup(prepared, checks)
            w.check_verdict(v, checks)
        return v

    v = run_rep(f"traced {w.name} at {threads} thread(s)", rep,
                w.setup_checks + w.verdict_checks, checks, log)
    return tracer, v


def _sum(spans) -> float:
    return sum(s.seconds for s in spans)


def layer_metrics(one: Tracer, own: Tracer, own_threads: int) -> dict:
    """Per-layer figures of a pair of traced repetitions of one workload.

    ``one`` ran simulate_batch on one thread and gives the kernel split;
    ``own`` ran at the workload's own settings and gives the rest.  Only
    figures whose layer the repetitions reached are returned.
    """
    m = {}
    density = {}
    for s in own.select(func="invariant_density_1d"):
        density.setdefault(s.extra.get("family"), []).append(s.seconds)
    for fam, xs in density.items():
        m[f"models.density_s.{fam}"] = statistics.median(xs)
    for key, func in (("models.centralize_s", "centralize"),
                      ("poisson1d.solve_s", "solve_poisson_1d"),
                      ("variance.mf_gradient_s", "mf_gradient_form")):
        xs = [s.seconds for s in own.select(func=func)]
        if xs:
            m[key] = statistics.median(xs)
    auto = own.select(func="mf_autocorrelation_form")
    if auto:
        steps = sum(s.extra.get("path_steps", 0) for s in auto)
        m["variance.mf_autocorr_ns_per_path_step"] = 1e9 * _sum(auto) / max(steps, 1)
    controls = own.select(func="optimal_control")
    if controls:
        m["variance.rate_control_s"] = (
            _sum(own.select(func="rate_function")) + _sum(controls)) / len(controls)
    if own.select(layer="quadrature"):
        m.update(own.counts)

    batches = one.select(func="simulate_batch")
    if batches:
        rsteps = sum(s.extra.get("rsteps", 0) for s in batches)
        calls, secs = one.aggregate_of("replicate_stream")
        m["euler.kernel_ns_per_rstep"] = 1e9 * _sum(batches) / max(rsteps, 1)
        m["euler.stream_setup_us"] = 1e6 * secs / calls if calls else 0.0
        m["euler.stream_ns_per_rstep"] = 1e9 * secs / max(rsteps, 1)
        m["euler.replicate_steps"] = rsteps
        m["euler.replicates_failed"] = sum(s.extra.get("failed", 0) for s in batches)
        own_batches = own.select(func="simulate_batch")
        if own_threads >= 2 and own_batches:
            m["euler.speedup_2w"] = _sum(batches) / _sum(own_batches)
        top = max(batches, key=lambda s: s.extra.get("rsteps", 0))
        n = min(CHUNK, top.extra.get("replicates", CHUNK))
        n_steps = top.extra.get("rsteps", 0) // max(top.extra.get("replicates", 1), 1)
        m["_rng_shape"] = (n, max(1, min(n_steps, NOISE_BUDGET // n)))

    by_id = {s.sid: s for s in own.spans}
    reducers = [s for s in own.spans if s.layer == "harness" and s.func in REDUCERS
                and not (s.parent in by_id and by_id[s.parent].func in REDUCERS)]
    if own.select(layer="harness"):
        m["harness.reduce_s"] = _sum(reducers)
    parses = [s for s in own.select(func="parse_config")
              if not (s.parent in by_id and by_id[s.parent].func == "parse_config")]
    if parses:
        m["config.parse_s"] = _sum(parses)
    for layer, secs in own.self_seconds().items():
        m[f"{layer}.self_s"] = secs
    return m


def exact_counts(tr: Tracer) -> tuple:
    rsteps = sum(s.extra.get("rsteps", 0) for s in tr.select(func="simulate_batch"))
    return (tr.counts["quadrature.adaptive_evals"], tr.counts["quadrature.panel_points"],
            rsteps)


def _report_body(v) -> str | None:
    body = v.outputs[1] if v is not None else None
    if body is None:
        return None
    return "\n".join(ln for ln in body.splitlines() if '"timestamp"' not in ln)


def kernel_probes(n: int, block: int) -> dict:
    """The Euler step's parts, each timed alone on the OU workload's inputs."""
    p = prepare("ou")
    drift = p.model.sim_drift or p.model.drift
    diffusion = p.model.sim_diffusion or p.model.diffusion
    z = np.random.Generator(np.random.Philox(7)).standard_normal(CHUNK)
    gens = [euler.replicate_stream(0, i) for i in range(n)]
    noise = np.empty((n, block))

    def fill():
        for j, g in enumerate(gens):
            noise[j, :block] = g.standard_normal(block)

    def coeffs():
        for _ in range(200):
            drift(z)
            diffusion(z)

    def observe():
        for _ in range(200):
            p.f.value(0.0, z)

    return {
        "euler.rng_ns_per_normal": 1e9 * _median_time(fill, 3) / (n * block),
        "euler.coeff_ns_per_elem": 1e9 * _median_time(coeffs) / (200 * z.size),
        "euler.observe_ns_per_elem": 1e9 * _median_time(observe) / (200 * z.size),
    }


def traced(w, checks: Checks, log: list, workdir: Path) -> dict:
    # untraced baseline of the same repetition, for the tracing overhead
    prepared = run_rep("setup", w.setup, 0, checks, log)
    base = run_rep("untraced verdict", lambda: w.verdict(prepared, w.threads),
                   w.verdict_checks, checks, log) if prepared is not None else None

    pairs = {}  # source -> (one-thread tracer, own-settings tracer, own threads)
    sources = []
    if not isinstance(w, AnalyticChain):
        probe = AnalyticChain(w.seed, str(workdir), autocorr_paths=4096)
        tr, _ = traced_rep(probe, 1, checks, log, verify=False)
        pairs["probe:analytic_chain"] = (tr, tr, 1)
        sources.append("probe:analytic_chain")
    if not isinstance(w, MdpManyShort):
        probe = MdpManyShort(w.seed, str(workdir), epsilons=(0.16,), replicates=8 * CHUNK)
        one, v1 = traced_rep(probe, 1, checks, log, verify=False)
        own, v2 = traced_rep(probe, probe.threads, checks, log, verify=False)
        checks("probe report.json identical at 1 and 2 threads",
               _report_body(v1) is not None and _report_body(v1) == _report_body(v2))
        checks("probe exact counts repeat", exact_counts(one) == exact_counts(own))
        pairs["probe:mdp_many_short"] = (one, own, probe.threads)
        sources.append("probe:mdp_many_short")

    one, v1 = traced_rep(w, 1, checks, log)
    own, v2 = traced_rep(w, w.threads, checks, log)
    checks("exact counts repeat across the two traced runs",
           exact_counts(one) == exact_counts(own))
    if isinstance(w, MdpManyShort):
        checks("report.json identical at 1 and 2 threads (timestamp dropped)",
               _report_body(v1) is not None and _report_body(v1) == _report_body(v2))
    pairs["workload"] = (one, own, w.threads)
    sources.append("workload")

    metrics, origin = {}, {}
    for src in sources:
        for k, v in layer_metrics(*pairs[src]).items():
            metrics[k], origin[k] = v, src
    if "_rng_shape" in metrics:
        src = origin.pop("_rng_shape")
        for k, v in kernel_probes(*metrics.pop("_rng_shape")).items():
            metrics[k], origin[k] = v, src
        metrics["euler.residual_ns_per_rstep"] = metrics["euler.kernel_ns_per_rstep"] - (
            metrics["euler.rng_ns_per_normal"] + metrics["euler.coeff_ns_per_elem"]
            + metrics["euler.observe_ns_per_elem"] + metrics["euler.stream_ns_per_rstep"])
    if base is not None and v2 is not None:
        metrics["trace.verdict_overhead_s"] = v2.seconds - base.seconds
        origin["trace.verdict_overhead_s"] = "workload"

    dump = {src: {"one_thread": [s.to_json() for s in pairs[src][0].spans],
                  "own_settings": [s.to_json() for s in pairs[src][1].spans]
                  if pairs[src][1] is not pairs[src][0] else "same as one_thread",
                  "aggregates": pairs[src][1].aggregates}
            for src in sources}
    return {"metrics": metrics, "origin": origin, "spans": dump}


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    workdir = ROOT / ".bench_build" / "ergosim-bench"
    workdir.mkdir(parents=True, exist_ok=True)
    w = WORKLOADS[args.workload](args.seed, str(workdir))
    checks, log = Checks(), []
    calib = philox_normal_ns()
    if args.trace:
        result = traced(w, checks, log, workdir)
    else:
        result = measure(w, args.seconds, checks, log)
    result["metrics"]["calib.philox_normal_ns"] = calib

    metrics, absent = {}, []
    for d in declared:
        value = result["metrics"].get(d["name"])
        if value is None:
            absent.append(d["name"])
        metrics[d["name"]] = {"value": float(value or 0.0), "unit": d["unit"]}
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "machine": machine(), "calib.philox_normal_ns": calib,
        "checks_attempted": checks.attempted, "checks_failed": checks.failures,
        "absent_metrics": absent,
        **{k: v for k, v in result.items() if k not in ("metrics", "spans")},
        "all_metrics": result["metrics"],
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(workdir / name, "w") as fh:
        json.dump({**detail, "spans": result.get("spans")}, fh, indent=1, default=str)
    print(json.dumps({"detail": detail}, default=str))
    print(json.dumps({
        "correct": not checks.failures and checks.attempted > 0 and all(ok for _, ok in log),
        "attempted": len(log),
        "failed": sum(not ok for _, ok in log),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
