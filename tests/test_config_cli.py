import dataclasses
import json
import math
import re

import numpy as np
import pytest

import ergosim
from ergosim import cli, config, euler, harness
from ergosim.cli import (EXIT_CONFIG_ERROR, EXIT_PASS, EXIT_RUNTIME_ERROR,
                         EXIT_VERDICT_FAIL, main)
from ergosim.config import ConfigError, parse_config, parse_text, validate

OU_CLT = """
# minimal passing experiment config
[model]
family = ou
kappa = 1.0
mu = 0.0
sigma = 1.4142135623730951

[functional]
coeffs = [0.0, 1.0]

[schedule]
regime = CLT
theta = 2.5

[experiment]
kind = CLT_NORMALITY
epsilon_list = [0.05]
replicates = 600
horizon = 1.0

[run]
seed = 5
threads = 1
"""


def write(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


# ------------------------------------------------------------------ grammar


def test_parse_text_value_types():
    data = parse_text("[run]\nseed = 7\nthreads = auto\n"
                      "[functional]\ncentralize = true\n[output]\ndirectory = out/x\n"
                      "[experiment]\nepsilon_list = [0.1, 0.05]\nhorizon = 2.5\n")
    assert data["run"]["seed"] == 7
    assert data["run"]["threads"] == "auto"
    assert data["functional"]["centralize"] is True
    assert data["output"]["directory"] == "out/x"
    assert data["experiment"]["epsilon_list"] == [0.1, 0.05]
    assert data["experiment"]["horizon"] == 2.5


def test_parse_text_comments_and_blank_lines():
    data = parse_text("# header\n\n[run]\n# inline note line\nseed = 1\n")
    assert data == {"run": {"seed": 1}}


def test_parse_text_unknown_section_and_key():
    with pytest.raises(ConfigError) as ei:
        parse_text("[nope]\nx = 1\n[run]\nbogus = 2\n")
    msgs = "\n".join(ei.value.errors)
    assert "unknown section [nope]" in msgs
    assert "unknown key 'bogus' in section [run]" in msgs


def test_parse_text_key_outside_section_and_missing_equals():
    with pytest.raises(ConfigError) as ei:
        parse_text("seed = 1\n[run]\nnot a pair\n")
    msgs = "\n".join(ei.value.errors)
    assert "outside any section" in msgs
    assert "expected 'key = value'" in msgs


# --------------------------------------------------------------- validation


def test_validate_collects_all_errors(tmp_path):
    bad = OU_CLT.replace("theta = 2.5", "theta = 1.2") \
                .replace("epsilon_list = [0.05]", "epsilon_list = [0.05, 0.1]") \
                .replace("seed = 5", "seed = 5\nbogus = 1")
    with pytest.raises(ConfigError) as ei:
        parse_config(bad, inline=True)
    msgs = "\n".join(ei.value.errors)
    # parse-level and validate-level problems reported together
    assert "unknown key 'bogus'" in msgs
    assert "theta > 1 + 1/nu" in msgs
    assert "strictly decreasing" in msgs


def test_validate_defaults(tmp_path):
    cfg = parse_config(OU_CLT.replace("replicates = 600\n", "")
                             .replace("seed = 5\nthreads = 1\n", ""), inline=True)
    assert cfg.spec.replicates == 2000
    assert cfg.spec.master_seed == 0
    assert cfg.spec.threads >= 1  # auto, resolved where the spec is built
    assert cfg.formats == ("json", "csv")


def test_auto_threads_count_usable_cpus(monkeypatch):
    auto = OU_CLT.replace("threads = 1\n", "")
    monkeypatch.setattr(euler.os, "cpu_count", lambda: 8)
    monkeypatch.setattr(euler.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert parse_config(auto, inline=True).spec.threads == 1
    monkeypatch.delattr(euler.os, "sched_getaffinity")
    assert parse_config(auto, inline=True).spec.threads == 8
    assert parse_config(auto + "threads = 3\n", inline=True).spec.threads == 3


def test_version_single_source():
    assert ergosim.__version__ == harness.__version__ == "0.1.0"


def test_validate_reports_every_non_numeric_value(tmp_path, capsys):
    text = OU_CLT.replace("theta = 2.5", "theta = fast") \
                 .replace("epsilon_list = [0.05]", "epsilon_list = [0.05, small]") \
                 .replace("replicates = 600", "replicates = 2.7") \
                 .replace("seed = 5", "seed = 3.9") \
                 .replace("threads = 1", "threads = two")
    with pytest.raises(ConfigError) as ei:
        parse_config(text, inline=True)
    assert ei.value.errors == ["[schedule] theta must be a number, got 'fast'",
                               "[experiment] epsilon_list must be a number, got 'small'",
                               "[experiment] replicates must be an integer, got 2.7",
                               "[run] seed must be an integer, got 3.9",
                               "[run] threads must be a number, got 'two'"]
    assert main(["--config", write(tmp_path, text), "validate"]) == EXIT_CONFIG_ERROR
    assert "must be a number" in capsys.readouterr().err
    # integral floats are integers
    cfg = parse_config(OU_CLT.replace("replicates = 600", "replicates = 1e5"), inline=True)
    assert cfg.spec.replicates == 100_000 and isinstance(cfg.spec.replicates, int)
    with pytest.raises(ConfigError, match=r"\[run\] threads must be an integer, got 1.5"):
        parse_config(OU_CLT.replace("threads = 1", "threads = 1.5"), inline=True)
    # non-finite values, and integers past the float range, are config
    # errors too, not a bare exception from the schedule later
    for old, new, msg in (
            ("horizon = 1.0", "horizon = 1" + "0" * 400,
             "[experiment] horizon must be a finite number, got an integer of 401 digits"),
            ("horizon = 1.0", "horizon = 1e400",
             "[experiment] horizon must be a finite number, got inf"),
            ("theta = 2.5", "theta = nan", "[schedule] theta must be a finite number, got nan")):
        with pytest.raises(ConfigError) as ei:
            parse_config(OU_CLT.replace(old, new), inline=True)
        assert ei.value.errors == [msg]
        path = write(tmp_path, OU_CLT.replace(old, new))
        assert main(["--config", path, "validate"]) == EXIT_CONFIG_ERROR


def test_validate_names_non_numeric_model_parameters():
    text = OU_CLT.replace("mu = 0.0", "mu = zero").replace("kappa = 1.0", "kappa = fast")
    with pytest.raises(ConfigError) as ei:
        parse_config(text, inline=True)
    assert ei.value.errors == ["[model] kappa must be a number, got 'fast'",
                               "[model] mu must be a number, got 'zero'"]
    text = OU_CLT.replace(
        "family = ou\nkappa = 1.0\nmu = 0.0\nsigma = 1.4142135623730951",
        "family = custom\ndrift_coeffs = [0.0, -1.0]\ndiffusion_coeffs = [1.4142135623730951]\n"
        "recurrence_alpha = one\nrecurrence_gamma = 1.0\nrecurrence_radius = 0.0\n"
        "holder_nu = 1.0\nalpha_bar = 1.0\nx0 = origin",
    )
    with pytest.raises(ConfigError) as ei:
        parse_config(text, inline=True)
    assert ei.value.errors == ["[model] recurrence_alpha must be a number, got 'one'",
                               "[model] x0 must be a number, got 'origin'"]


# each builtin family's [model] parameters, with one of them left open
_BUILTIN_WITH_OPEN_PARAM = {
    "ou": ("mu", "kappa = 1.0\nmu = {v}\nsigma = 1.4142135623730951"),
    "cir": ("kappa", "kappa = {v}\nmu = 1.0\nsigma = 1.0"),
    "gompertz": ("sigma", "kappa = 1.0\nmu = 1.0\nsigma = {v}"),
    "power_drift": ("alpha", "alpha = {v}"),
}


@pytest.mark.parametrize("family", list(_BUILTIN_WITH_OPEN_PARAM))
@pytest.mark.parametrize("bad", ["inf", "nan"])
def test_validate_rejects_non_finite_builtin_parameters(tmp_path, capsys, family, bad):
    key, params = _BUILTIN_WITH_OPEN_PARAM[family]
    text = OU_CLT.replace("family = ou\nkappa = 1.0\nmu = 0.0\nsigma = 1.4142135623730951",
                          f"family = {family}\n" + params.format(v=bad))
    with pytest.raises(ConfigError) as ei:
        parse_config(text, inline=True)
    assert ei.value.errors == [f"[model] {key} must be a finite number, got {bad}"]
    # a config error (exit 2), not a runtime error from the model build
    assert main(["--config", write(tmp_path, text), "--quiet", "--out", str(tmp_path),
                 "experiment"]) == EXIT_CONFIG_ERROR
    assert "must be a finite number" in capsys.readouterr().err


def test_validate_negative_epsilon():
    with pytest.raises(ConfigError, match="positive"):
        parse_config(OU_CLT.replace("[0.05]", "[-0.05]"), inline=True)


def test_validate_kind_regime_mismatch():
    with pytest.raises(ConfigError, match="requires schedule regime"):
        parse_config(OU_CLT.replace("kind = CLT_NORMALITY", "kind = LLN_RATE"),
                     inline=True)


def test_validate_lln_rate_needs_three_epsilons(tmp_path, capsys):
    text = OU_CLT.replace("kind = CLT_NORMALITY", "kind = LLN_RATE") \
                 .replace("regime = CLT", "regime = LLN")
    short = text.replace("[0.05]", "[0.1, 0.05]")
    with pytest.raises(ConfigError) as ei:
        parse_config(short, inline=True)
    assert ei.value.errors == [
        "[experiment] LLN_RATE needs at least 3 epsilons for its slope fit, got 2"]
    # a config error (exit 2), not the harness's runtime error (exit 3)
    assert main(["--config", write(tmp_path, short), "--quiet", "--out", str(tmp_path),
                 "experiment"]) == EXIT_CONFIG_ERROR
    assert "needs at least 3 epsilons" in capsys.readouterr().err
    cfg = parse_config(text.replace("[0.05]", "[0.1, 0.07, 0.05]"), inline=True)
    assert len(cfg.spec.epsilon_list) == harness.LLN_RATE_MIN_EPSILONS


# a valid experiment of each kind that a rule below is broken on
_GOOD_EXPERIMENTS = {
    harness.CLT_NORMALITY: dict(epsilon_list=(0.1, 0.05), horizon=1.0, replicates=600,
                                mdp_levels=()),
    harness.LLN_RATE: dict(epsilon_list=(0.2, 0.1, 0.05), horizon=1.0, replicates=200,
                           mdp_levels=()),
    harness.MDP_TAIL: dict(epsilon_list=(0.16, 0.08), horizon=1.0, replicates=4000,
                           mdp_levels=(1.0,)),
    harness.SCHEDULE_VIOLATION: dict(epsilon_list=(0.1,), horizon=1.0, replicates=300,
                                     mdp_levels=()),
}
_SCHEDULES = {"LLN": "theta = 1.5", "CLT": "theta = 2.5",
              "MDP": "theta = 2.5\ngamma_mdp = 0.35"}


def experiment_config(base, **fields):
    """OU_CLT's model and functional with a good ``base`` experiment, ``fields`` changed."""
    exp = dict(_GOOD_EXPERIMENTS[base], kind=base)
    exp.update(fields)
    regime = harness.KIND_REGIME.get(exp["kind"], "CLT")
    nums = lambda xs: "[" + ", ".join(repr(x) for x in xs) + "]"
    head = OU_CLT[:OU_CLT.index("[schedule]")]
    return (head + f"[schedule]\nregime = {regime}\n{_SCHEDULES[regime]}\n"
            f"[experiment]\nkind = {exp['kind']}\nepsilon_list = {nums(exp['epsilon_list'])}\n"
            f"horizon = {exp['horizon']!r}\nreplicates = {exp['replicates']}\n"
            f"levels = {nums(exp['mdp_levels'])}\n[run]\nseed = 5\nthreads = 1\n")


# one row per experiment rule: a valid kind, the field that breaks the rule, the problem
_BAD_EXPERIMENTS = [
    pytest.param("CLT_NORMALITY", dict(kind="BOGUS"),
                 f"kind must be one of {harness.KINDS}, got 'BOGUS'", id="unknown-kind"),
    pytest.param("CLT_NORMALITY", dict(epsilon_list=()), "epsilon_list must be nonempty",
                 id="no-epsilons"),
    pytest.param("CLT_NORMALITY", dict(epsilon_list=(0.1, -0.05)),
                 "epsilon values must be positive", id="negative-epsilon"),
    pytest.param("CLT_NORMALITY", dict(epsilon_list=(0.05, 0.1)),
                 "epsilon_list must be strictly decreasing", id="increasing-epsilons"),
    pytest.param("LLN_RATE", dict(epsilon_list=(0.1, 0.05)),
                 "LLN_RATE needs at least 3 epsilons for its slope fit, got 2",
                 id="lln-two-epsilons"),
    pytest.param("CLT_NORMALITY", dict(horizon=0.0), "horizon must be positive",
                 id="zero-horizon"),
    pytest.param("SCHEDULE_VIOLATION", dict(replicates=0), "replicates must be >= 1",
                 id="no-replicates"),
    pytest.param("CLT_NORMALITY", dict(replicates=50),
                 "CLT_NORMALITY requires at least 100 replicates, got 50", id="clt-50"),
    pytest.param("MDP_TAIL", dict(replicates=99),
                 "MDP_TAIL requires at least 100 replicates, got 99", id="mdp-99"),
    pytest.param("MDP_TAIL", dict(mdp_levels=()), "MDP_TAIL requires at least one level",
                 id="mdp-no-levels"),
]


@pytest.mark.parametrize("kind, fields, problem", _BAD_EXPERIMENTS)
def test_experiment_rules_agree_in_harness_and_config(kind, fields, problem):
    # the spec refuses the fields ...
    spec = parse_config(experiment_config(kind), inline=True).spec
    with pytest.raises(harness.HarnessError, match=re.escape(problem)):
        dataclasses.replace(spec, **fields)
    # ... and config reports the same problem as its one [experiment] line
    with pytest.raises(ConfigError) as ei:
        parse_config(experiment_config(kind, **fields), inline=True)
    assert [e for e in ei.value.errors if e.startswith("[experiment]")] == [
        f"[experiment] {problem}"]


@pytest.mark.parametrize("kind", ["CLT_NORMALITY", "MDP_TAIL"])
def test_cli_experiment_too_few_replicates_is_a_config_error(tmp_path, capsys, kind):
    out = tmp_path / "runs"
    path = write(tmp_path, experiment_config(kind, replicates=50))
    assert main(["--config", path, "--quiet", "--out", str(out),
                 "experiment"]) == EXIT_CONFIG_ERROR
    assert f"[experiment] {kind} requires at least 100 replicates" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("threads", [0, -1])
def test_cli_threads_below_one_is_a_config_error(tmp_path, capsys, threads):
    # the --threads override gets the check [run] threads gets
    out = tmp_path / "runs"
    path = write(tmp_path, OU_CLT)
    assert main(["--config", path, "--quiet", "--threads", str(threads), "--out", str(out),
                 "experiment"]) == EXIT_CONFIG_ERROR
    assert f"threads must be >= 1, got {threads}" in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(harness.HarnessError, match=f"threads must be >= 1, got {threads}"):
        dataclasses.replace(parse_config(OU_CLT, inline=True).spec, threads=threads)
    # ... stated once, in harness.spec_problems
    with pytest.raises(ConfigError) as ei:
        parse_config(OU_CLT.replace("threads = 1", f"threads = {threads}"), inline=True)
    assert ei.value.errors == [f"[run] threads must be >= 1, got {threads}"]


def test_centralize_false_is_a_config_error(tmp_path, capsys):
    # the Poisson equation is solved for the centred functional only
    text = OU_CLT.replace("coeffs = [0.0, 1.0]", "coeffs = [0.0, 1.0]\ncentralize = false")
    with pytest.raises(ConfigError) as ei:
        parse_config(text, inline=True)
    assert ei.value.errors == ["[functional] centralize must be true: the Poisson equation "
                               "is solved for the centred functional, got False"]
    knots = tmp_path / "knots.csv"
    knots.write_text("t,xi_1\n0.0,0.0\n1.0,0.0\n")
    path = write(tmp_path, text)
    for command in (["poisson"], ["mf"], ["experiment"], ["rate", "--knots", str(knots)]):
        assert main(["--config", path, "--quiet", "--out", str(tmp_path / "runs")]
                    + command) == EXIT_CONFIG_ERROR
        assert "[functional] centralize must be true" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()
    parse_config(text.replace("= false", "= true"), inline=True)  # true still parses


def test_validate_missing_builtin_parameter():
    with pytest.raises(ConfigError, match="missing parameter"):
        parse_config(OU_CLT.replace("sigma = 1.4142135623730951\n", ""), inline=True)


def test_validate_mdp_needs_levels():
    text = OU_CLT.replace("kind = CLT_NORMALITY", "kind = MDP_TAIL") \
                 .replace("regime = CLT", "regime = MDP") \
                 .replace("theta = 2.5", "theta = 2.5\ngamma_mdp = 0.35")
    with pytest.raises(ConfigError, match="at least one level"):
        parse_config(text, inline=True)
    cfg = parse_config(text.replace("horizon = 1.0", "horizon = 1.0\nlevels = [1.5]"),
                       inline=True)
    assert cfg.spec.mdp_levels == (1.5,)


def test_custom_model_family():
    text = OU_CLT.replace(
        "family = ou\nkappa = 1.0\nmu = 0.0\nsigma = 1.4142135623730951",
        "family = custom\ndrift_coeffs = [0.0, -1.0]\ndiffusion_coeffs = [1.4142135623730951]\n"
        "recurrence_alpha = 1.0\nrecurrence_gamma = 1.0\nrecurrence_radius = 0.0\n"
        "holder_nu = 1.0\nalpha_bar = 1.0",
    )
    cfg = parse_config(text, inline=True)
    assert cfg.spec.model.name == "custom"
    # b(2) = -2 for the configured linear drift
    assert abs(float(cfg.spec.model.drift(np.array([2.0]))[0]) + 2.0) < 1e-15
    # support_lo = -inf means no lower bound, as when the key is left out
    with_lo = lambda v: text.replace("alpha_bar = 1.0", f"alpha_bar = 1.0\nsupport_lo = {v}")
    assert (parse_config(with_lo("-inf"), inline=True).spec.model.support
            == (-math.inf, math.inf))
    with pytest.raises(ConfigError) as ei:
        parse_config(with_lo("nan"), inline=True)
    assert ei.value.errors == ["[model] support_lo must be a finite number, got nan"]


def test_custom_model_missing_keys():
    text = OU_CLT.replace(
        "family = ou\nkappa = 1.0\nmu = 0.0\nsigma = 1.4142135623730951",
        "family = custom\ndrift_coeffs = [0.0, -1.0]",
    )
    with pytest.raises(ConfigError, match="custom family requires keys"):
        parse_config(text, inline=True)


# --------------------------------------------------------------------- CLI


def test_cli_validate_pass(tmp_path, capsys):
    rc = main(["--config", write(tmp_path, OU_CLT), "validate"])
    assert rc == EXIT_PASS
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_cli_validate_fails_sign_flipped_drift(tmp_path, capsys):
    # repelling drift b = +x declared recurrent: the audit must catch it
    text = OU_CLT.replace(
        "family = ou\nkappa = 1.0\nmu = 0.0\nsigma = 1.4142135623730951",
        "family = custom\ndrift_coeffs = [0.0, 1.0]\ndiffusion_coeffs = [1.4142135623730951]\n"
        "recurrence_alpha = 1.0\nrecurrence_gamma = 1.0\nrecurrence_radius = 0.0\n"
        "holder_nu = 1.0\nalpha_bar = 1.0",
    )
    rc = main(["--config", write(tmp_path, text), "validate"])
    assert rc == EXIT_VERDICT_FAIL
    assert "FAIL" in capsys.readouterr().out


def test_cli_missing_config_file(tmp_path, capsys):
    rc = main(["--config", str(tmp_path / "absent.cfg"), "validate"])
    assert rc == EXIT_CONFIG_ERROR


def test_cli_invalid_config(tmp_path, capsys):
    rc = main(["--config", write(tmp_path, "[model]\nfamily = ou\n"), "validate"])
    assert rc == EXIT_CONFIG_ERROR
    assert "invalid config" in capsys.readouterr().err


def test_cli_rate_zero_path(tmp_path, capsys):
    knots = tmp_path / "knots.csv"
    knots.write_text("t,xi_1\n0.0,0.0\n1.0,0.0\n")
    rc = main(["--config", write(tmp_path, OU_CLT), "--quiet",
               "rate", "--knots", str(knots)])
    assert rc == EXIT_PASS
    out = capsys.readouterr().out
    assert "I_f(path) = 0" in out


def test_cli_mf_cross_check(tmp_path, capsys):
    rc = main(["--config", write(tmp_path, OU_CLT), "--quiet", "mf",
               "--mf-paths", "20000", "--mf-horizon", "8.0"])
    out = capsys.readouterr().out
    assert rc == EXIT_PASS
    assert "PASS" in out


def test_cli_mf_same_lines_at_any_thread_count(tmp_path, capsys, monkeypatch):
    # --threads, else [run] threads, reaches the autocorrelation route, whose
    # figures do not depend on it
    seen = []
    route = cli.mf_autocorrelation_form
    monkeypatch.setattr(cli, "mf_autocorrelation_form",
                        lambda *a, **kw: (seen.append(kw["threads"]), route(*a, **kw))[1])
    lines = []
    for flags, text in ((["--threads", "1"], OU_CLT), (["--threads", "2"], OU_CLT),
                        ([], OU_CLT.replace("threads = 1", "threads = 3"))):
        rc = main(["--config", write(tmp_path, text), "--quiet", *flags, "mf",
                   "--mf-paths", "20000", "--mf-horizon", "8.0"])
        assert rc == EXIT_PASS
        lines.append(capsys.readouterr().out)
    assert seen == [1, 2, 3]
    assert lines[0] == lines[1] == lines[2]


@pytest.mark.parametrize("option, value", [("--mf-paths", "0"), ("--mf-paths", "1"),
                                           ("--mf-horizon", "-1"), ("--mf-horizon", "nan"),
                                           ("--mf-horizon", "0")])
def test_cli_mf_rejects_bad_arguments(tmp_path, capsys, option, value):
    rc = main(["--config", write(tmp_path, OU_CLT), "--quiet", "mf", option, value])
    assert rc == EXIT_RUNTIME_ERROR
    name = option[len("--mf-"):].replace("paths", "n_paths")
    assert f"VarianceError: {name} must be" in capsys.readouterr().err


def test_cli_experiment_artifacts_and_determinism(tmp_path, capsys):
    cfg = write(tmp_path, OU_CLT)

    def run(outdir, threads):
        rc = main(["--config", cfg, "--quiet", "--seed", "1",
                   "--out", str(tmp_path / outdir),
                   "--threads", str(threads), "experiment"])
        assert rc == EXIT_PASS
        runs = list((tmp_path / outdir).iterdir())
        assert len(runs) == 1
        body = (runs[0] / "report.json").read_text()
        assert (runs[0] / "summary.csv").exists()
        # strip the timestamp line, the only run-dependent content
        stripped = "\n".join(l for l in body.splitlines() if '"timestamp"' not in l)
        return stripped, json.loads(body)

    a, payload = run("run_a", 1)
    b, _ = run("run_b", 3)
    assert a == b
    assert payload["verdicts"]["clt_variance"] is True
    assert payload["seed"] == 1


def test_cli_experiment_failure_marker(tmp_path, capsys):
    # rescaled step h = c_step * eps^1.5 = 3 turns the OU update into a
    # doubling map: every replicate explodes and the runner aborts
    text = OU_CLT.replace("replicates = 600", "replicates = 120") \
                 .replace("[0.05]", "[0.01]") \
                 .replace("theta = 2.5", "theta = 2.5\nc_step = 3000")
    rc = main(["--config", write(tmp_path, text), "--quiet",
               "--out", str(tmp_path / "boom"), "experiment"])
    assert rc == EXIT_RUNTIME_ERROR
    runs = list((tmp_path / "boom").iterdir())
    assert (runs[0] / "FAILED").exists()
