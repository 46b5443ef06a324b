import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergosim.config import parse_config
from ergosim.models import (CentralizationError, ConstantDiffusion,
                            FellerConditionError, FunctionalSpec, ModelError,
                            ModelEvaluationError, NotPositiveRecurrentError, Polynomial,
                            PolynomialFunctional, SdeModel, UNDERFLOW_FLOOR,
                            builtin_model, centralize, invariant_density_1d,
                            validate_conditions)
from ergosim.quadrature import QuadratureError, panel_integral

SQRT2 = math.sqrt(2.0)


def make_ou(kappa=1.0, mu=0.0, sigma=SQRT2):
    return builtin_model("ou", dict(kappa=kappa, mu=mu, sigma=sigma))


# ---------------------------------------------------------------- densities


def normal_pdf(z, mean, var):
    return np.exp(-0.5 * (z - mean) ** 2 / var) / math.sqrt(2 * math.pi * var)


def test_ou_density_is_gaussian():
    m = make_ou()
    pi = invariant_density_1d(m)
    z = np.linspace(-5, 5, 201)
    assert np.max(np.abs(pi.density(z) - normal_pdf(z, 0.0, 1.0))) < 1e-10


def test_ou_density_to_rounding_on_probe_grid():
    m = make_ou()
    pi = invariant_density_1d(m)
    z = m.default_probe_grid()
    assert np.max(np.abs(pi.density(z) - normal_pdf(z, 0.0, 1.0))) < 1e-13


@given(st.floats(0.5, 3.0), st.floats(-1.5, 1.5), st.floats(0.5, 2.0))
@settings(max_examples=10, deadline=None)
def test_ou_density_family(kappa, mu, sigma):
    pi = invariant_density_1d(make_ou(kappa, mu, sigma))
    var = sigma**2 / (2 * kappa)
    z = np.linspace(mu - 4 * math.sqrt(var), mu + 4 * math.sqrt(var), 101)
    assert np.max(np.abs(pi.density(z) - normal_pdf(z, mu, var))) < 1e-8


def test_cir_density_is_gamma():
    m = builtin_model("cir", dict(kappa=1.0, mu=1.0, sigma=1.0))
    pi = invariant_density_1d(m)
    # shape 2*kappa*mu/sigma^2 = 2, rate 2*kappa/sigma^2 = 2
    z = np.linspace(0.01, 8, 300)
    want = 4.0 * z * np.exp(-2.0 * z)  # rate^shape z^(shape-1) e^{-rate z}/Gamma(shape)
    assert np.max(np.abs(pi.density(z) - want)) < 1e-10


def test_gompertz_density_is_lognormal():
    m = builtin_model("gompertz", dict(kappa=1.0, mu=1.0, sigma=1.0))
    pi = invariant_density_1d(m)
    mean, var = 0.5, 0.5
    z = np.linspace(0.05, 12, 300)
    want = np.exp(-0.5 * (np.log(z) - mean) ** 2 / var) / (
        z * math.sqrt(2 * math.pi * var)
    )
    assert np.max(np.abs(pi.density(z) - want)) < 1e-8


def test_density_zero_outside_support():
    m = builtin_model("cir", dict(kappa=1.0, mu=1.0, sigma=1.0))
    pi = invariant_density_1d(m)
    assert pi.density(np.array([-1.0, -0.5]).copy()).tolist() == [0.0, 0.0]


BUILTINS = [
    ("ou", dict(kappa=1.0, mu=0.0, sigma=SQRT2)),
    ("cir", dict(kappa=1.0, mu=1.0, sigma=1.0)),
    ("gompertz", dict(kappa=1.0, mu=1.0, sigma=1.0)),
    ("power_drift", dict(alpha=1.5)),
]


@pytest.mark.parametrize("name, params", BUILTINS)
def test_stored_density_equals_a_fresh_evaluation(name, params):
    pi = invariant_density_1d(builtin_model(name, params))
    for points in (pi.z_nodes, pi._panel_z):
        stored = pi.density(points)
        assert pi.density(points) is stored  # read, not evaluated again
        assert not (stored.flags.writeable or points.flags.writeable)
        assert stored.tobytes() == pi.density(points.copy()).tobytes()


@pytest.mark.parametrize("name, params", BUILTINS)
def test_expectation_has_the_bits_of_the_integrand_on_the_panel_nodes(name, params):
    # the integrand in the working coordinate w, pi evaluated afresh at
    # z(w) and dz/dw computed at w, integrated by the panel rule over w
    pi = invariant_density_1d(builtin_model(name, params))

    def reference(g):
        def gw(w):
            z = pi._z_of_w(w)
            dens = pi.density(np.array(z))
            with np.errstate(over="ignore", invalid="ignore"):
                v = np.asarray(g(z), dtype=float) * dens * pi._dz_dw(w)
            return np.where(np.isfinite(v), v, 0.0)
        return panel_integral(gw, pi._w_nodes)

    # the last g is infinite wherever pi has underflowed, so that the
    # masking of non-finite values is on the path
    for g in (lambda z: z, lambda z: z * z - 3.0 * np.cos(z),
              lambda z: np.where(pi.density(np.array(z)) > UNDERFLOW_FLOOR, z, np.inf)):
        assert pi.expectation(g).hex() == reference(g).hex()


def test_non_recurrent_drift_rejected():
    m = make_ou()
    bad = SdeModel(
        drift=lambda x: +np.asarray(x, dtype=float),  # repelling
        diffusion=m.diffusion,
        recurrence_alpha=1.0, recurrence_gamma=1.0, recurrence_radius=0.0,
        holder_nu=1.0, drift_growth_alpha_bar=1.0,
        initial_state=0.0,
    )
    with pytest.raises(NotPositiveRecurrentError, match="not positive recurrent"):
        invariant_density_1d(bad)


def test_inverse_cdf_sampling_matches_density():
    pi = invariant_density_1d(make_ou())
    rng = np.random.default_rng(5)
    x = pi.sample(rng.random(200_000))
    # moment check against N(0,1)
    assert abs(float(np.mean(x))) < 0.01
    assert abs(float(np.var(x)) - 1.0) < 0.02
    assert abs(float(np.mean(x**4)) - 3.0) < 0.1


# ------------------------------------------------------------- conditions


@pytest.mark.parametrize("name,params", [
    ("ou", dict(kappa=1.0, mu=0.0, sigma=SQRT2)),
    ("cir", dict(kappa=1.0, mu=1.0, sigma=1.0)),
    ("gompertz", dict(kappa=1.0, mu=1.0, sigma=1.0)),
    ("power_drift", dict(alpha=0.5)),
])
def test_builtin_conditions_pass(name, params):
    m = builtin_model(name, params)
    report = validate_conditions(m, m.default_probe_grid())
    assert report.passed, report.summary_lines()


def test_sign_flipped_drift_fails_recurrence():
    m = make_ou()
    bad = SdeModel(
        drift=lambda x: np.asarray(x, dtype=float),
        diffusion=m.diffusion,
        recurrence_alpha=1.0, recurrence_gamma=1.0, recurrence_radius=0.0,
        holder_nu=1.0, drift_growth_alpha_bar=1.0,
        initial_state=0.0,
    )
    report = validate_conditions(bad, np.linspace(-5, 5, 41))
    assert not report["recurrence_drift"].passed
    assert report["recurrence_drift"].margin < 0


def test_degenerate_diffusion_fails_ellipticity():
    m = make_ou()
    bad = SdeModel(
        drift=m.drift,
        diffusion=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        recurrence_alpha=1.0, recurrence_gamma=1.0, recurrence_radius=0.0,
        holder_nu=1.0, drift_growth_alpha_bar=1.0,
        initial_state=0.0,
    )
    report = validate_conditions(bad, np.linspace(-5, 5, 41))
    assert not report["uniform_ellipticity"].passed
    assert report["uniform_ellipticity"].margin == 0.0


def test_overdeclared_smoothness_fails():
    # sqrt-growth drift is Hoelder-1/2, not Lipschitz
    bad = SdeModel(
        drift=lambda x: -np.sign(np.asarray(x, float)) * np.abs(np.asarray(x, float)) ** 0.5,
        diffusion=lambda x: SQRT2 * np.ones_like(np.asarray(x, float)),
        recurrence_alpha=0.5, recurrence_gamma=1.0, recurrence_radius=0.0,
        holder_nu=1.0, drift_growth_alpha_bar=0.5,
        initial_state=0.0,
    )
    report = validate_conditions(bad, np.linspace(-5, 5, 41))
    assert not report["coefficient_smoothness"].passed


@pytest.mark.parametrize("coeff", ["drift", "diffusion"])
def test_non_finite_coefficient_names_its_probe(coeff):
    m = make_ou()
    clean = getattr(m, coeff)

    def poisoned(x):
        # NaN at the one probe 1.5 of the grid, finite everywhere else
        return np.where(np.asarray(x, float) == 1.5, np.nan, clean(x))

    bad = type(m)(**{**m.__dict__, coeff: poisoned})
    with pytest.raises(ModelEvaluationError, match=rf"^{coeff} returned non-finite value at probe 1\.5$"):
        validate_conditions(bad, np.linspace(-5.0, 5.0, 41))


def test_feller_condition_enforced():
    with pytest.raises(FellerConditionError, match="Feller"):
        builtin_model("cir", dict(kappa=1.0, mu=0.1, sigma=1.0))


def test_zero_holder_exponent_rejected():
    m = make_ou()
    with pytest.raises(ModelError, match="holder_nu"):
        SdeModel(
            drift=m.drift, diffusion=m.diffusion,
            recurrence_alpha=1.0, recurrence_gamma=1.0, recurrence_radius=0.0,
            holder_nu=0.0, drift_growth_alpha_bar=1.0,
            initial_state=0.0,
        )


def test_unknown_family():
    with pytest.raises(ModelError, match="unknown model family"):
        builtin_model("heston", {})


# ----------------------------------------------------------- functionals


def test_centralize_zero_mean():
    m = builtin_model("cir", dict(kappa=1.0, mu=1.0, sigma=1.0))
    pi = invariant_density_1d(m)
    f = centralize(FunctionalSpec.from_polynomial([0.0, 1.0]), pi)
    assert f.centralized
    # Gamma(2, 2) mean is 1; x - 1 integrates to 0
    assert abs(pi.expectation(lambda z: f.value(0.0, z))) < 1e-9
    z = np.linspace(0.1, 5, 50)
    assert np.max(np.abs(f.value(0.0, z) - (z - 1.0))) < 1e-9


def test_centralize_idempotent():
    pi = invariant_density_1d(make_ou())
    f1 = centralize(FunctionalSpec.from_polynomial([1.0, 0.0, 1.0]), pi)
    f2 = centralize(f1, pi)
    z = np.linspace(-3, 3, 20)
    assert np.max(np.abs(f1.value(0.0, z) - f2.value(0.0, z))) < 1e-9


def test_centralize_non_integrable():
    pi = invariant_density_1d(make_ou())
    f = FunctionalSpec(value=lambda t, x: np.exp(np.asarray(x, float) ** 2))
    with pytest.raises(CentralizationError, match="not pi-integrable"):
        centralize(f, pi)


def test_expectation_counts_non_finite_points_only_where_density_underflowed():
    # inf where the density is at or below the shared underflow floor is
    # counted as 0; inf where the density is above it still raises
    pi = invariant_density_1d(make_ou(sigma=0.1))
    under = lambda z: pi.density(z) <= UNDERFLOW_FLOOR
    assert np.any(under(pi.z_nodes)) and np.any(~under(pi.z_nodes))
    g = lambda z: np.where(under(z), np.inf, 1.0)
    assert abs(pi.expectation(g) - 1.0) < 1e-12
    with pytest.raises(QuadratureError, match="overflows where the density is positive"):
        pi.expectation(lambda z: np.where(np.abs(z) < 0.05, np.inf, 1.0))


def test_polynomial_degree_metadata():
    f = FunctionalSpec.from_polynomial([3.0, 0.0, 2.0])
    assert f.value(0.0, 2.0) == 11.0


@pytest.mark.parametrize("coeffs", [[1.5], [0.0, 1.0], [0.3, -1.0, 0.5, 0.25], [-0.0, 0.0, -2.0]])
def test_polynomial_values_are_polyval_bitwise(coeffs):
    x = np.array([-np.inf, -3.5, -1.0, -0.0, 0.0, 1e-300, 0.7, 2.0, 1e200, np.inf, np.nan])
    f = FunctionalSpec.from_polynomial(coeffs)
    with np.errstate(over="ignore", invalid="ignore"):
        got = f.value(0.0, x)
        want = np.polynomial.polynomial.polyval(x, coeffs)
        assert got.tobytes() == want.tobytes()
        assert Polynomial(coeffs)(x).tobytes() == want.tobytes()  # the custom model's
        assert f.value(0.0, -1.3) == np.polynomial.polynomial.polyval(-1.3, coeffs)
    with pytest.raises(ValueError, match="at least one coefficient"):
        FunctionalSpec.from_polynomial([])


def test_constant_diffusion_families():
    # the Euler kernel folds these into the noise; CIR's sigma*sqrt(x) it must call
    for name, params in (("ou", dict(kappa=1.0, mu=0.0, sigma=0.5)),
                         ("power_drift", dict(alpha=1.5, sigma=0.5)),
                         ("gompertz", dict(kappa=1.0, mu=1.0, sigma=0.5)),
                         ("cir", dict(kappa=1.0, mu=1.0, sigma=0.5))):
        m = builtin_model(name, params)
        d = m.sim_diffusion or m.diffusion
        assert isinstance(d, ConstantDiffusion) == (name != "cir"), name
        x = np.array([-1.0, 0.0, 2.5])
        if name != "cir":
            assert np.array_equal(d(x), 0.5 * np.ones_like(x)) and d(x).dtype == float


# ------------------------------------------------------------ descriptors

_CUSTOM = """[model]
family = custom
drift_coeffs = [0.5, -1.0, 0.0, -0.2]
diffusion_coeffs = [0.8, 0.0, 0.1]
recurrence_alpha = 1.0
recurrence_gamma = 0.1
recurrence_radius = 3.0
holder_nu = 1.0
alpha_bar = 3.0
[functional]
coeffs = [0.0, 1.0]
[schedule]
regime = CLT
theta = 2.5
[experiment]
kind = CLT_NORMALITY
epsilon_list = [0.1]
"""


@pytest.mark.parametrize("name, params", [
    ("ou", dict(kappa=2.0, mu=1.0, sigma=0.8)),
    ("cir", dict(kappa=2.0, mu=1.0, sigma=0.8)),
    ("gompertz", dict(kappa=1.0, mu=1.0, sigma=0.5)),
    ("power_drift", dict(alpha=1.5)),
    ("custom", None),
])
def test_models_pickle_with_bit_equal_coefficients(name, params):
    m = (parse_config(_CUSTOM, inline=True).spec.model if name == "custom"
         else builtin_model(name, params))
    back = pickle.loads(pickle.dumps(m))
    assert back == m
    x = np.array([-2.5, -0.0, 0.0, 0.3, 1.0, 4.75])
    if m.support[0] == 0.0:
        x = np.abs(x) + 0.1
    with np.errstate(invalid="ignore"):
        for coef in ("drift", "diffusion", "sim_drift", "sim_diffusion", "state_map"):
            if getattr(m, coef) is not None:
                assert getattr(back, coef)(x).tobytes() == getattr(m, coef)(x).tobytes(), coef


def test_centred_polynomial_functional_pickles():
    pi = invariant_density_1d(make_ou(mu=0.4))
    f = centralize(FunctionalSpec.from_polynomial([0.3, -1.0, 0.5]), pi)
    assert isinstance(f.value, PolynomialFunctional) and f.value.c0 != 0.0
    back = pickle.loads(pickle.dumps(f))
    assert back == f
    x = np.array([-np.inf, -3.5, -0.0, 0.0, 0.7, 1e200, np.nan])
    with np.errstate(over="ignore", invalid="ignore"):
        assert back.value(0.0, x).tobytes() == f.value(0.0, x).tobytes()
        # the same bits as the polynomial less its mean
        plain = FunctionalSpec.from_polynomial([0.3, -1.0, 0.5]).value(0.0, x)
        assert f.value(0.0, x).tobytes() == (plain - f.value.c0).tobytes()
