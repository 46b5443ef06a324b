"""Command-line entry point wiring the modules into full pipelines."""

from __future__ import annotations

import argparse
import contextlib
import datetime
import json
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import ConfigError, RunConfig, parse_config
from .harness import HarnessError, run_experiment
from .models import centralize, invariant_density_1d, validate_conditions
from .poisson1d import PoissonError, fit_tail_exponents, solve_poisson_1d
from .variance import (VarianceError, check_horizon, check_knots, check_n_paths,
                       mf_autocorrelation_form, mf_gradient_form, optimal_control,
                       rate_function)

EXIT_PASS = 0
EXIT_VERDICT_FAIL = 1
EXIT_CONFIG_ERROR = 2
EXIT_RUNTIME_ERROR = 3


def _log(args, msg: str) -> None:
    if not args.quiet:
        print(msg)


def _load_config(args) -> RunConfig:
    cfg = parse_config(args.config)
    overrides = {"master_seed": args.seed, "threads": args.threads}
    try:
        cfg.spec = replace(cfg.spec, **{k: v for k, v in overrides.items() if v is not None})
    except HarnessError as exc:
        raise ConfigError([f"command line: {exc}"]) from None
    if args.out is not None:
        cfg.out_dir = args.out
    return cfg


def _run_dir(cfg: RunConfig) -> Path:
    stamp = datetime.datetime.now().strftime("%Y%m%dT%H%M%S.%f")
    d = Path(cfg.out_dir) / f"{cfg.spec.kind.lower()}_{stamp}"
    d.mkdir(parents=True, exist_ok=True)
    return d


def _prepare(cfg: RunConfig, args):
    """Shared pipeline prefix: density, centralized functional, Poisson, M_f."""
    model = cfg.spec.model
    _log(args, f"model: {model.name}")
    pi = invariant_density_1d(model)
    f = centralize(cfg.spec.functional, pi)
    # 161 points give the exponent fit 20 points in each tail of a full-line model
    sol = solve_poisson_1d(model, pi, f, 0.0, model.default_probe_grid(161))
    mf = mf_gradient_form(model, pi, sol)
    _log(args, f"M_f (gradient form): {mf.values[0]:.6g}")
    return pi, f, sol, mf


def cmd_validate(args) -> int:
    cfg = _load_config(args)
    report = validate_conditions(cfg.spec.model, cfg.spec.model.default_probe_grid())
    for line in report.summary_lines():
        print(line)
    return EXIT_PASS if report.passed else EXIT_VERDICT_FAIL


def cmd_poisson(args) -> int:
    cfg = _load_config(args)
    pi, f, sol, _ = _prepare(cfg, args)
    out = _run_dir(cfg)
    sol.to_csv(str(out / "poisson_solution.csv"))
    _log(args, f"wrote {out / 'poisson_solution.csv'}")
    if not args.quiet:  # the fit is only printed
        try:
            fits = fit_tail_exponents(sol)
            exps = ", ".join(f"{k}={v.effective():.6g}" for k, v in fits.items())
        except PoissonError as exc:
            exps = f"not fitted ({exc})"
        print(f"fitted tail exponents: {exps}")
    return EXIT_PASS


@contextlib.contextmanager
def _flag(name: str, *errors):
    """A :class:`VarianceError`, or one of ``errors``, raised in the block as
    a :class:`ConfigError` naming the command-line flag ``name``."""
    try:
        yield
    except (VarianceError, *errors) as exc:
        raise ConfigError([f"command line: {name}: {exc}"]) from None


def cmd_mf(args) -> int:
    cfg = _load_config(args)
    # the autocorrelation route's own rules, before the analytic set-up
    with _flag("--mf-paths"):
        check_n_paths(args.mf_paths)
    with _flag("--mf-horizon"):
        check_horizon(args.mf_horizon)
    pi, f, sol, grad = _prepare(cfg, args)
    auto = mf_autocorrelation_form(
        cfg.spec.model, pi, f, n_paths=args.mf_paths, horizon=args.mf_horizon,
        master_seed=cfg.spec.master_seed, threads=cfg.spec.threads,
    )
    g, a, se = grad.values[0], auto.values[0], auto.std_error[0]
    gap = abs(g - a)
    ok = gap <= max(0.05 * abs(g), 3.0 * se)
    print(f"gradient form:        {g:.6g}")
    print(f"autocorrelation form: {a:.6g} +- {se:.3g}")
    print("PASS" if ok else f"FAIL (gap {gap:.4g} exceeds max(5%, 3 SE))")
    return EXIT_PASS if ok else EXIT_VERDICT_FAIL


def cmd_rate(args) -> int:
    cfg = _load_config(args)
    # rate_function's own rules, before the analytic set-up; a cell that is
    # not a number, a missing column or no rows fails here too
    with _flag(f"--knots {args.knots}", ValueError), warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        knots = np.loadtxt(args.knots, delimiter=",", skiprows=1, ndmin=2)
        if knots.shape[1] < 2:  # one column, or a header and no rows
            raise ValueError("expected a header and rows with the columns t,xi_1")
        t_knots, xi_knots = check_knots(knots[:, 0], knots[:, 1])
    pi, f, sol, mf = _prepare(cfg, args)
    path = rate_function(mf, t_knots, xi_knots)
    print(f"I_f(path) = {path.rate:.10g}")
    ctrl = optimal_control(cfg.spec.model, pi, sol, mf, path)
    print(f"optimal-control L2 cost = {ctrl.l2_cost:.10g} (2*I = {2 * path.rate:.10g})")
    return EXIT_PASS


def cmd_experiment(args) -> int:
    cfg = _load_config(args)
    out = _run_dir(cfg)
    try:
        pi, f, sol, mf = _prepare(cfg, args)
        report = run_experiment(replace(cfg.spec, functional=f), float(mf.values[0]))
    except Exception as exc:
        (out / "FAILED").write_text(f"{type(exc).__name__}: {exc}\n")
        raise
    payload = report.to_json_dict()
    payload["resolved_config"] = cfg.raw
    payload["seed"] = cfg.spec.master_seed
    body = json.dumps(payload, indent=1, sort_keys=True)
    stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
    if "json" in cfg.formats:
        with open(out / "report.json", "w") as fh:
            # timestamp on its own line so determinism checks can drop it
            fh.write(body[:-2] + f',\n "timestamp": "{stamp}"\n}}\n')
    if "csv" in cfg.formats:
        report.to_csv(str(out / "summary.csv"))
    _log(args, f"artifacts in {out}")
    print(f"{'verdict':28s} result")
    for name, ok in report.verdicts.items():
        print(f"{name:28s} {'PASS' if ok else 'FAIL'}")
    for note in report.notes:
        _log(args, f"note: {note}")
    return EXIT_PASS if report.passed else EXIT_VERDICT_FAIL


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="ergosim",
        description="Estimate invariant-measure functionals of ergodic diffusions "
        "and verify their scaling limits.",
    )
    p.add_argument("--config", required=True, help="path to a sectioned key=value config")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--threads", type=int, default=None, help="override thread count")
    p.add_argument("--out", default=None, help="override output directory")
    p.add_argument("--quiet", action="store_true", help="suppress progress logging")
    sub = p.add_subparsers(dest="command", required=True)
    sub.add_parser("validate", help="audit the model's structural conditions")
    sub.add_parser("poisson", help="solve the Poisson equation and export u, u', u''")
    mf = sub.add_parser("mf", help="compute M_f by both routes and cross-check")
    mf.add_argument("--mf-paths", type=int, default=100_000)
    mf.add_argument("--mf-horizon", type=float, default=10.0)
    sub.add_parser("experiment", help="run the configured replicated experiment")
    rate = sub.add_parser("rate", help="evaluate the rate function on a knot file")
    rate.add_argument("--knots", required=True, help="CSV with header and columns t,xi_1")
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG_ERROR if exc.code not in (0, None) else 0
    handlers = {
        "validate": cmd_validate,
        "poisson": cmd_poisson,
        "mf": cmd_mf,
        "experiment": cmd_experiment,
        "rate": cmd_rate,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except Exception as exc:
        print(f"{type(exc).__module__}.{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME_ERROR


if __name__ == "__main__":
    sys.exit(main())
