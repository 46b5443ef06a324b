"""Sectioned key-value experiment configs and their validation.

Grammar (one construct per line):

    [section]            sections: model, functional, schedule,
                         experiment, output, run
    key = value          scalars: int, float, bool (true/false), string;
                         the text keys (family, regime, kind, [functional]
                         name, [output] directory) keep the text as written
    key = [v1, v2, ...]  arrays of numbers
    # comment            full-line comments; blank lines ignored

Validation is whole-file: every problem found is reported, not just the
first, and unknown keys are named together with their section.  This
module parses types and checks the schedule against the model and the
regime; what makes an experiment runnable (kind, epsilons, horizon,
replicates, levels, seed, threads) is decided by
:func:`harness.spec_problems`, whose problems are reported here as
``[experiment]`` lines (``[run]`` for the seed and the thread count).  A
valid config carries the :class:`harness.ExperimentSpec` it describes,
with ``threads = auto`` resolved to the CPUs this process may run on.
The functional is always centred: the Poisson equation is solved for
the centred functional, and no key turns that off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from .euler import REGIMES, SchedulePolicy, StepSchedule, _usable_cpus
from .harness import KIND_REGIME, KINDS, ExperimentSpec, spec_problems
from .models import FunctionalSpec, Polynomial, SdeModel, builtin_model


class ConfigError(Exception):
    """Raised with the full list of validation problems."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("invalid config:\n" + "\n".join(f"  - {e}" for e in self.errors))


_SECTIONS = {
    "model": {"family", "kappa", "mu", "sigma", "alpha", "x0",
              "drift_coeffs", "diffusion_coeffs", "recurrence_alpha",
              "recurrence_gamma", "recurrence_radius", "holder_nu",
              "alpha_bar"},
    "functional": {"coeffs", "name"},
    "schedule": {"regime", "theta", "c_step", "gamma_mdp"},
    "experiment": {"kind", "epsilon_list", "horizon", "replicates", "levels"},
    "output": {"directory"},
    "run": {"seed", "threads"},
}

# the keys whose value is text, kept as written: ``name = 1e3`` names the
# functional '1e3', not '1000.0'
_TEXT_KEYS = {("model", "family"), ("functional", "name"), ("schedule", "regime"),
              ("experiment", "kind"), ("output", "directory")}

# the numeric [model] keys that builtin_model and the custom family read
_BUILTIN_PARAMS = ("kappa", "mu", "sigma", "alpha", "x0")
_CUSTOM_SCALARS = ("recurrence_alpha", "recurrence_gamma", "recurrence_radius",
                   "holder_nu", "alpha_bar", "x0")


@dataclass
class RunConfig:
    spec: ExperimentSpec
    out_dir: str
    raw: dict = field(default_factory=dict)


def _parse_value(text: str):
    text = text.strip()
    if text.startswith("[") and text.endswith("]"):
        inner = text[1:-1].strip()
        if not inner:
            return []
        return [_parse_value(v) for v in inner.split(",")]
    low = text.lower()
    if low in ("true", "false"):
        return low == "true"
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def parse_text(text: str) -> dict:
    """Parse the raw sectioned key-value text into nested dicts.

    Syntax errors and unknown sections/keys are collected and raised
    together as a single :class:`ConfigError`.
    """
    data, errors = _parse_sections(text)
    if errors:
        raise ConfigError(errors)
    return data


def _parse_sections(text: str):
    data: dict = {}
    errors: list = []
    section = None
    for ln, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in _SECTIONS:
                errors.append(f"line {ln}: unknown section [{section}]")
                section = None
            else:
                data.setdefault(section, {})
            continue
        if "=" not in line:
            errors.append(f"line {ln}: expected 'key = value', got {line!r}")
            continue
        if section is None:
            errors.append(f"line {ln}: key outside any section")
            continue
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in _SECTIONS[section]:
            errors.append(f"unknown key {key!r} in section [{section}]")
            continue
        data[section][key] = val.strip() if (section, key) in _TEXT_KEYS else _parse_value(val)
    return data, errors


def _number(value, where: str, errors: list, cast=float, finite=False):
    """``cast(value)``, or None with the problem recorded in ``errors``.

    An integer beyond the float range is a problem; with ``finite``, so
    are inf and nan.
    """
    if cast is int and isinstance(value, float) and not value.is_integer():
        errors.append(f"{where} must be an integer, got {value!r}")
        return None
    try:
        out = cast(value)
    except OverflowError:
        errors.append(f"{where} must be a finite number, got an integer of "
                      f"{len(str(abs(value)))} digits")
        return None
    except (TypeError, ValueError):
        errors.append(f"{where} must be a number, got {value!r}")
        return None
    if finite and not math.isfinite(out):
        errors.append(f"{where} must be a finite number, got {value!r}")
        return None
    return out


def _numbers(raw, where: str, errors: list) -> Optional[tuple]:
    """A finite scalar or list of finite floats as a tuple, or None if any entry is not."""
    vals = [_number(v, where, errors, finite=True)
            for v in (raw if isinstance(raw, list) else [raw])]
    return None if None in vals else tuple(vals)


def _model_numbers(sec: dict, keys: tuple, errors: list) -> Optional[dict]:
    """The ``[model]`` keys among ``keys`` as floats, or None if any is not a finite number."""
    vals = {k: _number(sec[k], f"[model] {k}", errors, finite=True) for k in keys if k in sec}
    return None if None in vals.values() else vals


def _threads(raw, errors: list) -> Optional[int]:
    """``[run] threads``: a count, or ``auto`` for the CPUs this process may run on."""
    if str(raw).lower() == "auto":
        return _usable_cpus()
    return _number(raw, "[run] threads", errors, int)


def _build_custom_model(sec: dict, errors: list) -> Optional[SdeModel]:
    """The ``custom`` family: polynomial drift and diffusion on the full line."""
    need = ("drift_coeffs", "diffusion_coeffs", "recurrence_alpha",
            "recurrence_gamma", "recurrence_radius", "holder_nu", "alpha_bar")
    missing = [k for k in need if k not in sec]
    if missing:
        errors.append(f"[model] custom family requires keys: {', '.join(missing)}")
        return None
    bc = _numbers(sec["drift_coeffs"], "[model] drift_coeffs", errors)
    sc = _numbers(sec["diffusion_coeffs"], "[model] diffusion_coeffs", errors)
    num = _model_numbers(sec, _CUSTOM_SCALARS, errors)
    if bc is None or sc is None or num is None:
        return None
    try:
        return SdeModel(
            drift=Polynomial(bc),
            diffusion=Polynomial(sc),
            recurrence_alpha=num["recurrence_alpha"],
            recurrence_gamma=num["recurrence_gamma"],
            recurrence_radius=num["recurrence_radius"],
            holder_nu=num["holder_nu"],
            drift_growth_alpha_bar=num["alpha_bar"],
            initial_state=num.get("x0", 0.0),
            name="custom",
        )
    except Exception as exc:
        errors.append(f"[model] {exc}")
        return None


def validate(data: dict, pre_errors=()) -> RunConfig:
    """Cross-validate parsed sections and assemble a RunConfig.

    All detected problems are raised together; the schedule/regime
    consistency check quotes the violated inequality.
    """
    errors = list(pre_errors)

    def sec(name):
        return data.get(name, {})

    model = None
    msec = sec("model")
    family = str(msec.get("family", "")).lower()
    if not family:
        errors.append("[model] missing required key 'family'")
    elif family == "custom":
        model = _build_custom_model(msec, errors)
    elif (params := _model_numbers(msec, _BUILTIN_PARAMS, errors)) is not None:
        try:
            model = builtin_model(family, params)
        except KeyError as exc:
            errors.append(f"[model] family {family!r} missing parameter {exc}")
        except Exception as exc:
            errors.append(f"[model] {exc}")

    fsec = sec("functional")
    coeffs = fsec.get("coeffs")
    functional = None
    if coeffs is None:
        errors.append("[functional] missing required key 'coeffs'")
    else:
        try:
            functional = FunctionalSpec.from_polynomial(
                [float(c) for c in coeffs], name=str(fsec.get("name", "poly"))
            )
        except Exception as exc:
            errors.append(f"[functional] {exc}")

    ssec = sec("schedule")
    regime = str(ssec.get("regime", "")).upper()
    if regime not in REGIMES:
        errors.append(f"[schedule] regime must be one of {REGIMES}, got {regime!r}")
    n_errors = len(errors)
    theta = ssec.get("theta")
    if theta is None:
        errors.append("[schedule] missing required key 'theta'")
    else:
        theta = _number(theta, "[schedule] theta", errors, finite=True)
    c_step = _number(ssec.get("c_step", 1.0), "[schedule] c_step", errors, finite=True)
    gamma = ssec.get("gamma_mdp")
    if gamma is not None:
        gamma = _number(gamma, "[schedule] gamma_mdp", errors, finite=True)
    policy = (None if len(errors) > n_errors
              else SchedulePolicy(theta_step=theta, c_step=c_step, gamma_mdp=gamma))

    esec = sec("experiment")
    kind = str(esec.get("kind", "")).upper()
    eps = _numbers(esec.get("epsilon_list", []), "[experiment] epsilon_list", errors)
    horizon = _number(esec.get("horizon", 1.0), "[experiment] horizon", errors,
                      finite=True)
    replicates = _number(esec.get("replicates", 2000), "[experiment] replicates", errors, int)
    levels = _numbers(esec.get("levels", []), "[experiment] levels", errors)
    rsec = sec("run")
    seed = _number(rsec.get("seed", 0), "[run] seed", errors, int)
    threads = _threads(rsec.get("threads", "auto"), errors)
    errors += [f"[{'run' if p.startswith(('seed', 'threads')) else 'experiment'}] {p}"
               for p in spec_problems(kind, eps, horizon, replicates, levels, seed, threads)]

    # cross-field: the schedule must actually be valid for the model/regime
    if model is not None and policy is not None and regime in REGIMES and eps:
        try:
            StepSchedule.from_policy(min(eps), regime, policy, model.holder_nu)
        except Exception as exc:
            errors.append(f"[schedule] {exc}")
    if kind in KINDS and regime in REGIMES and regime != KIND_REGIME[kind]:
        errors.append(
            f"[experiment] kind {kind} requires schedule regime {KIND_REGIME[kind]}, got {regime}"
        )

    if errors:
        raise ConfigError(errors)
    spec = ExperimentSpec(kind=kind, model=model, functional=functional, policy=policy,
                          epsilon_list=eps, horizon=horizon, replicates=replicates,
                          mdp_levels=levels, master_seed=seed, threads=threads)
    return RunConfig(spec=spec, out_dir=str(sec("output").get("directory", "runs")), raw=data)


def parse_config(source: str, inline: bool = False) -> RunConfig:
    """Parse and validate a config file path (or inline text)."""
    if inline:
        text = source
    else:
        with open(source) as fh:
            text = fh.read()
    data, errors = _parse_sections(text)
    return validate(data, errors)
