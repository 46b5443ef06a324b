import math
import warnings

import numpy as np
import pytest
from numpy.polynomial.hermite_e import hermeval

from ergosim.models import (FunctionalSpec, builtin_model, centralize,
                            invariant_density_1d)
from ergosim.poisson1d import (ExponentSet, PoissonError, audit_mdp_exponents,
                               exponents_from_solution, fit_tail_exponents,
                               solve_poisson_1d)
from ergosim.quadrature import Antiderivative

SQRT2 = math.sqrt(2.0)


@pytest.fixture(scope="module")
def ou_setup():
    m = builtin_model("ou", dict(kappa=1.0, mu=0.0, sigma=SQRT2))
    return m, invariant_density_1d(m)


def hermite_functional(k):
    c = np.zeros(k + 1)
    c[k] = 1.0
    return FunctionalSpec(
        value=lambda t, x, c=c: hermeval(np.asarray(x, dtype=float), c),
        centralized=True, name=f"He{k}",
    )


def test_ou_identity_u_prime_is_one(ou_setup):
    m, pi = ou_setup
    f = centralize(FunctionalSpec.from_polynomial([0.0, 1.0]), pi)
    sol = solve_poisson_1d(m, pi, f, 0.0, np.linspace(-4, 4, 81))
    assert np.max(np.abs(sol.u_prime - 1.0)) < 1e-6
    assert np.max(np.abs(sol.u - sol.grid)) < 1e-6


def two_sided_u_prime(m, pi, f, t, z, n_panels=6000):
    """u' by the formula that queries both sides of every point and keeps
    one with ``np.where``: -2 F_left / (a pi) up to the anchor, 2 F_right / (a pi)
    beyond it and at NaN, with F the tabulated integral of f pi."""
    def f_pi_w(w):
        x = pi._z_of_w(w)
        return np.asarray(f.value(t, x), dtype=float) * pi.density(x) * pi._dz_dw(w)
    table = Antiderivative(f_pi_w, float(pi._w_nodes[0]), float(pi._w_nodes[-1]), n_panels)
    w = pi._w_of_z(z)
    num = np.where(z <= pi.anchor, -2.0 * table.from_left(w), 2.0 * table.from_right(w))
    with np.errstate(divide="ignore", invalid="ignore"):
        return num / (m.a(z) * pi.density(z))


@pytest.mark.parametrize("family, params", [
    ("ou", dict(kappa=1.0, mu=0.5, sigma=SQRT2)),
    ("cir", dict(kappa=1.0, mu=1.0, sigma=1.0)),
    ("gompertz", dict(kappa=1.0, mu=1.0, sigma=1.0)),
])
def test_u_prime_queries_one_side_with_the_two_sided_bits(family, params):
    m = builtin_model(family, params)
    pi = invariant_density_1d(m)
    f = centralize(FunctionalSpec.from_polynomial([0.0, 1.0, 1.0]), pi)
    sol = solve_poisson_1d(m, pi, f, 0.0, np.linspace(0.2, 3.0, 15))
    a = pi.anchor
    # both sides of the anchor, the anchor itself, its float neighbours and NaN
    z = np.array([0.3 * a, 0.9 * a, np.nextafter(a, -np.inf), a, np.nextafter(a, np.inf),
                  1.1 * a + 0.1, 2.0 * a + 1.0, np.nan])
    got = sol.u_prime_fn(z)
    np.testing.assert_array_equal(got, two_sided_u_prime(m, pi, f, 0.0, z))
    assert np.all(np.isfinite(got[:-1])) and np.isnan(got[-1])


def test_u_prime_is_zero_outside_a_half_line_support():
    m = builtin_model("cir", dict(kappa=1.0, mu=1.0, sigma=1.0))
    pi = invariant_density_1d(m)
    f = centralize(FunctionalSpec.from_polynomial([0.0, 1.0]), pi)
    sol = solve_poisson_1d(m, pi, f, 0.0, m.default_probe_grid(81))
    inside = np.linspace(0.05, 6.0, 37)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no log of z - edge <= 0
        out = sol.u_prime_fn(np.array([-1.0, -0.0, 0.0]))
        mixed = sol.u_prime_fn(np.concatenate([[-3.0, 0.0], inside, [-0.0]]))
    assert out.tobytes() == np.zeros(3).tobytes()
    assert mixed[[0, 1, -1]].tobytes() == np.zeros(3).tobytes()
    # the points inside keep the bits they have on their own
    assert mixed[2:-1].tobytes() == sol.u_prime_fn(inside).tobytes()
    assert np.all(np.isfinite(mixed[2:-1]))


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_hermite_generator_residual(ou_setup, k):
    # L He_k = -k He_k for the standard OU generator, so u = He_k / k
    m, pi = ou_setup
    f = hermite_functional(k)
    sol = solve_poisson_1d(m, pi, f, 0.0, np.linspace(-4, 4, 81))
    resid = 0.5 * m.a(sol.grid) * sol.u_double_prime + m.drift(sol.grid) * sol.u_prime \
        + f.value(0.0, sol.grid)
    assert np.max(np.abs(resid)) < 1e-5
    c = np.zeros(k + 1)
    c[k] = 1.0
    u_exact = (hermeval(sol.grid, c) - hermeval(pi.anchor, c)) / k
    assert np.max(np.abs(sol.u - u_exact)) < 1e-6


def test_hermite_cubic_exponents(ou_setup):
    m, pi = ou_setup
    f = hermite_functional(3)  # x^3 - 3x, already centralized
    sol = solve_poisson_1d(m, pi, f, 0.0, np.linspace(-12, 12, 241))
    fits = fit_tail_exponents(sol)
    assert abs(fits["p1"].exponent - 3.0) < 0.15
    assert abs(fits["p2"].exponent - 2.0) < 0.15


def test_zero_functional_flagged_bounded(ou_setup):
    m, pi = ou_setup
    f = FunctionalSpec(value=lambda t, x: np.zeros_like(np.asarray(x, float)),
                       centralized=True)
    sol = solve_poisson_1d(m, pi, f, 0.0, np.linspace(-12, 12, 241))
    assert fit_tail_exponents(sol)["p1"].bounded


def test_uncentralized_rejected(ou_setup):
    m, pi = ou_setup
    f = FunctionalSpec.from_polynomial([1.0])  # constant 1, not centralized
    with pytest.raises(PoissonError, match="centralized"):
        solve_poisson_1d(m, pi, f, 0.0, np.linspace(-2, 2, 11))


def test_cir_residual():
    m = builtin_model("cir", dict(kappa=1.0, mu=1.0, sigma=1.0))
    pi = invariant_density_1d(m)
    f = centralize(FunctionalSpec.from_polynomial([0.0, 1.0]), pi)
    grid = np.geomspace(0.05, 6.0, 101)
    sol = solve_poisson_1d(m, pi, f, 0.0, grid)
    resid = 0.5 * m.a(sol.grid) * sol.u_double_prime + m.drift(sol.grid) * sol.u_prime \
        + f.value(0.0, sol.grid)
    assert np.max(np.abs(resid)) < 1e-7
    # known solution of (x/2)u'' + (1-x)u' = -(x-1) is u' = 1
    assert np.max(np.abs(sol.u_prime - 1.0)) < 1e-6


def test_gompertz_residual():
    m = builtin_model("gompertz", dict(kappa=1.0, mu=1.0, sigma=1.0))
    pi = invariant_density_1d(m)
    f = centralize(FunctionalSpec.from_polynomial([0.0, 1.0]), pi)
    sol = solve_poisson_1d(m, pi, f, 0.0, np.geomspace(0.3, 8.0, 81))
    resid = 0.5 * m.a(sol.grid) * sol.u_double_prime + m.drift(sol.grid) * sol.u_prime \
        + f.value(0.0, sol.grid)
    assert np.max(np.abs(resid)) < 1e-6


def test_underflow_grid_points_dropped(ou_setup):
    m, pi = ou_setup
    f = centralize(FunctionalSpec.from_polynomial([0.0, 1.0]), pi)
    wide = np.linspace(-60, 60, 121)
    with pytest.warns(UserWarning, match="underflow"):
        sol = solve_poisson_1d(m, pi, f, 0.0, wide)
    assert sol.grid.size < wide.size
    assert sol.grid.size >= 3


def test_csv_export(ou_setup, tmp_path):
    m, pi = ou_setup
    f = centralize(FunctionalSpec.from_polynomial([0.0, 1.0]), pi)
    sol = solve_poisson_1d(m, pi, f, 0.0, np.linspace(-3, 3, 25))
    p = tmp_path / "u.csv"
    sol.to_csv(str(p))
    data = np.loadtxt(p, delimiter=",", skiprows=1)
    assert data.shape == (25, 4)
    assert np.allclose(data[:, 2], 1.0, atol=1e-8)


# ------------------------------------------------------------ audits


def test_ou_audit_boundary():
    # verdict flips between p0 = 1 and p0 = 1.5 at alpha = 1
    ok = audit_mdp_exponents(1.0, ExponentSet(p1=1.0, p2=0.0, p3=None))
    assert ok.verdict_mdp
    bad = audit_mdp_exponents(1.0, ExponentSet(p1=1.5, p2=0.5, p3=None))
    assert not bad.verdict_mdp
    failed = [k for k, v in bad.verdict_detail.items() if not v]
    assert any("p1" in k for k in failed)


def test_audit_waives_p3_for_constant_diffusion():
    a = audit_mdp_exponents(1.0, ExponentSet(p1=0.5, p2=0.0, p3=None))
    assert any("waived" in k for k in a.verdict_detail)


def test_audit_q_group():
    bad = audit_mdp_exponents(1.0, ExponentSet(p1=0.5, p2=0.0, p3=None, q0=3.0))
    assert not bad.verdict_mdp
    assert not bad.verdict_detail["(iii) max(q0/2, q2) <= alpha"]


def test_exponents_from_solution_roundtrip(ou_setup):
    m, pi = ou_setup
    sol = solve_poisson_1d(m, pi, hermite_functional(1), 0.0, np.linspace(-12, 12, 241))
    e = exponents_from_solution(sol, constant_diffusion=True)
    assert e.p3 is None
    assert abs(e.p1 - 1.0) < 0.15
    assert audit_mdp_exponents(1.0, e).verdict_mdp


def test_tail_fit_needs_points(ou_setup):
    m, pi = ou_setup
    f = centralize(FunctionalSpec.from_polynomial([0.0, 1.0]), pi)
    sol = solve_poisson_1d(m, pi, f, 0.0, np.linspace(-3, 3, 25))
    with pytest.raises(PoissonError, match="tail points"):
        fit_tail_exponents(sol)
