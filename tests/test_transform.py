"""Transform-module tests.

Main oracles: with alpha = 1/2 and unit power coefficient the transformed
driver at (y, z) = (1, 2) is 1 + (1/2)(4/1) = 3; the power change of
variables fixes y = 4 (2 sqrt(4) = 4) and sends (1, 3) to (2, 3); the
recursive-utility closed form follows from the substitution u = y^rho, which
linearizes the flow, so u(0) = c^rho + (xi^rho - c^rho) e^{-rho^2/beta} is
exact and everything downstream can be checked against it.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peanobsde.engine import (Deterministic, TerminalSpec, TimeGrid,
                              sample_terminal, simulate_brownian)
from peanobsde.solver import solve_deterministic_ode
from peanobsde.transform import (EZParams, SpecialGenerator,
                                 change_of_variables, ez_closed_form,
                                 ez_to_special, homogeneity_audit,
                                 invert_change_of_variables, solve_special,
                                 special_driver, theta_difference_check,
                                 transformed_generator)

EZ_POINT = 3.164132225855443  # (1 + e^{-1/4})^2


def sqrt_power() -> SpecialGenerator:
    return SpecialGenerator(alpha=0.5, c=1.0, k1=1.0, label="sqrt-power")


def full_pattern(alpha: float) -> SpecialGenerator:
    return SpecialGenerator(alpha=alpha, c=1.0, k1=0.5, k2=-0.25, k3=0.25,
                            k4=0.5, label=f"full-{alpha}")


def det_ensemble(n=800, m=2):
    grid = TimeGrid(horizon=1.0, steps=n)
    return grid, Deterministic(grid, m)


# ---------------------------------------------------------------------------
# generator values
# ---------------------------------------------------------------------------

class TestGeneratorValues:
    def test_all_zero_coefficients(self):
        sg = SpecialGenerator(alpha=0.5, c=1.0)
        assert transformed_generator(sg, 0.3, 3.0, 0.0) == pytest.approx(
            0.0, abs=1e-15)

    def test_power_plus_quadratic(self):
        assert transformed_generator(sqrt_power(), 0.0, 1.0, 2.0) == \
            pytest.approx(3.0, abs=1e-13)

    def test_constant_source_term(self):
        sg = SpecialGenerator(alpha=0.5, c=1.0, k4=1.0)
        assert transformed_generator(sg, 0.0, 4.0, 0.0) == pytest.approx(
            0.5, abs=1e-14)

    def test_linear_coefficient_discounts_the_power(self):
        sg = SpecialGenerator(alpha=0.5, c=1.0, k1=1.0, k2=-0.5)
        assert transformed_generator(sg, 1.0, 1.0, 0.0) == pytest.approx(
            math.exp(-0.25), rel=1e-13)

    def test_two_dimensional_gradient(self):
        sg = SpecialGenerator(alpha=0.5, c=1.0, k3=1.0)
        z = np.array([[3.0, 4.0]])
        got = transformed_generator(sg, 0.0, np.array([5.0]), z)
        assert got[0] == pytest.approx(7.5, abs=1e-13)

    def test_per_path_scalar_gradient_promotes(self):
        sg = sqrt_power()
        y = np.array([1.0, 1.0])
        z = np.array([2.0, 2.0])
        got = transformed_generator(sg, 0.0, y, z)
        assert np.allclose(got, 3.0)

    def test_nonpositive_y_rejected(self):
        with pytest.raises(ValueError, match="y > 0"):
            transformed_generator(sqrt_power(), 0.0, 0.0, 1.0)
        with pytest.raises(ValueError, match="y > 0"):
            transformed_generator(sqrt_power(), 0.0,
                                  np.array([1.0, -2.0]), np.zeros(2))

    def test_original_driver_power_and_linear(self):
        sg = SpecialGenerator(alpha=0.5, c=1.0, k1=1.0, k2=-0.5)
        assert special_driver(sg, 0.0, 4.0, 0.0) == pytest.approx(
            0.0, abs=1e-14)

    def test_original_driver_source_and_gradient(self):
        sg = SpecialGenerator(alpha=0.5, c=1.0, k3=0.5, k4=2.0)
        assert special_driver(sg, 0.0, 9.0, 4.0) == pytest.approx(
            4.0, abs=1e-13)

    def test_alpha_range_enforced(self):
        with pytest.raises(ValueError, match="alpha"):
            SpecialGenerator(alpha=1.0, c=1.0)
        with pytest.raises(ValueError, match="alpha"):
            SpecialGenerator(alpha=0.0, c=1.0)

    def test_bound_constant_enforced(self):
        with pytest.raises(ValueError, match="c must be > 0"):
            SpecialGenerator(alpha=0.5, c=0.0)

    def test_coefficient_ranges_checked_on_grid(self):
        sg = SpecialGenerator(alpha=0.5, c=1.0, k1=-1.0)
        with pytest.raises(ValueError, match="k1"):
            sg.validate_on(np.array([0.0, 0.5]))
        sg2 = SpecialGenerator(alpha=0.5, c=0.1, k2=0.5)
        with pytest.raises(ValueError, match="k2"):
            sg2.validate_on(np.array([0.0]))


# ---------------------------------------------------------------------------
# change of variables
# ---------------------------------------------------------------------------

class TestChangeOfVariables:
    def test_fixed_point_of_the_map(self):
        grid = TimeGrid(horizon=1.0, steps=10)
        y = np.full((11, 3), 4.0)
        z = np.zeros((10, 3, 1))
        tf = change_of_variables(sqrt_power(), grid, y, z)
        assert np.allclose(tf.y, 4.0, atol=1e-14)

    def test_unit_level_with_gradient(self):
        grid = TimeGrid(horizon=1.0, steps=10)
        y = np.ones((11, 3))
        z = np.full((10, 3, 1), 3.0)
        tf = change_of_variables(sqrt_power(), grid, y, z)
        assert np.allclose(tf.y, 2.0, atol=1e-14)
        assert np.allclose(tf.z, 3.0, atol=1e-14)

    def test_quarter_power_level(self):
        grid = TimeGrid(horizon=1.0, steps=4)
        sg = SpecialGenerator(alpha=0.25, c=1.0)
        tf = change_of_variables(sg, grid, np.full((5, 2), 16.0),
                                 np.zeros((4, 2, 1)))
        assert tf.y[0, 0] == pytest.approx(32.0 / 3.0, rel=1e-14)

    def test_discounting_enters_before_the_power(self):
        grid = TimeGrid(horizon=1.0, steps=10)
        sg = SpecialGenerator(alpha=0.5, c=1.0, k2=-0.5)
        tf = change_of_variables(sg, grid, np.full((11, 2), 4.0),
                                 np.zeros((10, 2, 1)))
        # at t=1: 2 sqrt(4 e^{-1/2}) = 4 e^{-1/4}
        assert tf.y[-1, 0] == pytest.approx(4.0 * math.exp(-0.25), rel=1e-13)

    def test_roundtrip_with_time_varying_discount(self):
        grid = TimeGrid(horizon=1.0, steps=16)
        ens = simulate_brownian(grid, paths=5, seed=3)
        sg = SpecialGenerator(alpha=0.35, c=1.0,
                              k2=lambda t: -0.3 * t + 0.1 * math.sin(t))
        y = 4.0 * np.exp(0.2 * ens.cumulative[:, :, 0])
        z = 0.5 * np.random.default_rng(0).normal(size=(16, 5, 1))
        back_y, back_z = invert_change_of_variables(
            sg, change_of_variables(sg, grid, y, z))
        assert np.max(np.abs(back_y - y) / y) < 1e-12
        assert np.max(np.abs(back_z - z)) < 1e-12

    def test_nonpositive_level_rejected(self):
        grid = TimeGrid(horizon=1.0, steps=4)
        y = np.ones((5, 2))
        y[2, 1] = 0.0
        with pytest.raises(ValueError, match="Y > 0"):
            change_of_variables(sqrt_power(), grid, y, np.zeros((4, 2, 1)))

    @given(alpha=st.floats(min_value=0.05, max_value=0.95),
           level=st.floats(min_value=1e-6, max_value=1e6))
    @settings(max_examples=80, deadline=None)
    def test_scalar_power_map_inverts(self, alpha, level):
        mapped = level ** (1.0 - alpha) / (1.0 - alpha)
        back = ((1.0 - alpha) * mapped) ** (1.0 / (1.0 - alpha))
        assert back == pytest.approx(level, rel=1e-12)


# ---------------------------------------------------------------------------
# two-route solve
# ---------------------------------------------------------------------------

class TestSolveSpecial:
    def test_sqrt_power_deterministic(self):
        grid, ens = det_ensemble()
        res = solve_special(sqrt_power(), np.ones(2), ens)
        # the transformed driver is constant 1, so that route is exact
        assert res.via_transform.y0_mean == pytest.approx(2.25, abs=1e-9)
        assert res.direct.y0_mean == pytest.approx(2.25, abs=2e-3)
        assert res.max_discrepancy < 1e-3
        assert res.interior_discrepancy == res.max_discrepancy
        assert res.excluded_fraction == 0.0

    def test_pure_source_deterministic(self):
        grid, ens = det_ensemble()
        sg = SpecialGenerator(alpha=0.5, c=1.0, k4=1.0)
        res = solve_special(sg, np.ones(2), ens)
        # constant drift integrates exactly on the direct side
        assert res.direct.y0_mean == pytest.approx(2.0, abs=1e-10)
        assert res.max_discrepancy < 1e-3

    def test_deterministic_matrix_stays_tight(self):
        grid, ens = det_ensemble()
        for alpha in (0.25, 0.5, 0.75):
            for sg in (SpecialGenerator(alpha=alpha, c=1.0, k1=1.0),
                       full_pattern(alpha)):
                res = solve_special(sg, np.ones(2), ens)
                assert res.max_discrepancy < 1e-3, (alpha, sg.label)

    def test_stochastic_routes_agree_inside_the_sample(self):
        grid = TimeGrid(horizon=1.0, steps=50)
        ens = simulate_brownian(grid, paths=2000, seed=5)
        xi = sample_terminal(TerminalSpec("lognormal",
                                          {"mean": 1.0, "sigma": 0.5}), ens)
        res = solve_special(sqrt_power(), xi, ens)
        assert res.interior_relative_gap < 0.02
        assert 0.0 < res.excluded_fraction < 0.03
        rel_y0 = abs(res.direct.y0_mean - res.via_transform.y0_mean) \
            / res.direct.y0_mean
        assert rel_y0 < 0.02

    def test_custom_gauge_matches_default_in_one_dimension(self):
        grid = TimeGrid(horizon=1.0, steps=40)
        ens = simulate_brownian(grid, paths=500, seed=8)
        xi = sample_terminal(TerminalSpec("lognormal",
                                          {"mean": 1.0, "sigma": 0.3}), ens)
        base = SpecialGenerator(alpha=0.5, c=1.0, k1=0.5, k3=0.3)
        l1 = SpecialGenerator(alpha=0.5, c=1.0, k1=0.5, k3=0.3,
                              z_norm=lambda z: np.abs(z).sum(axis=-1))
        a = solve_special(base, xi, ens)
        b = solve_special(l1, xi, ens)
        assert b.direct.y0_mean == pytest.approx(a.direct.y0_mean, rel=1e-14)

    def test_bad_gauge_rejected_before_solving(self):
        grid, ens = det_ensemble(n=10)
        sg = SpecialGenerator(alpha=0.5, c=1.0, k1=1.0,
                              z_norm=lambda z: (z ** 2).sum(axis=-1))
        with pytest.raises(ValueError, match="homogeneous"):
            solve_special(sg, np.ones(2), ens)

    def test_terminal_positivity_required(self):
        grid, ens = det_ensemble(n=10)
        with pytest.raises(ValueError, match="positive terminal"):
            solve_special(sqrt_power(), np.array([1.0, 0.0]), ens)

    def test_terminal_shape_checked(self):
        grid, ens = det_ensemble(n=10)
        with pytest.raises(ValueError, match="paths"):
            solve_special(sqrt_power(), np.ones(3), ens)

    def test_coefficient_violation_surfaces(self):
        grid, ens = det_ensemble(n=10)
        sg = SpecialGenerator(alpha=0.5, c=0.1, k2=-0.9)
        with pytest.raises(ValueError, match="k2"):
            solve_special(sg, np.ones(2), ens)


# ---------------------------------------------------------------------------
# one-sided convexity comparison
# ---------------------------------------------------------------------------

class TestThetaDifference:
    THETAS = (0.5, 0.9, 0.99)

    def test_power_instance_clean(self):
        rep = theta_difference_check(sqrt_power(), self.THETAS,
                                     sample_budget=100_000, seed=0)
        assert rep["max_violation"] <= 1e-9
        assert rep["passed"]
        assert rep["samples"] == 100_000
        assert set(rep["per_theta"]) == set(self.THETAS)

    def test_all_terms_together_clean(self):
        sg = SpecialGenerator(alpha=0.5, c=1.0, k1=0.7, k2=-0.2, k3=0.25,
                              k4=0.3)
        rep = theta_difference_check(sg, self.THETAS,
                                     sample_budget=100_000, seed=2)
        assert rep["max_violation"] <= 1e-9

    def test_two_dimensional_gradients_clean(self):
        rep = theta_difference_check(full_pattern(0.5), self.THETAS,
                                     sample_budget=60_000, seed=4, dim=2)
        assert rep["max_violation"] <= 1e-9

    def test_concave_intruder_flagged(self):
        rep = theta_difference_check(lambda t, y, z: np.sqrt(y), self.THETAS,
                                     sample_budget=100_000, seed=0)
        assert rep["max_violation"] >= 1e-2
        assert not rep["passed"]

    def test_theta_grid_validated(self):
        with pytest.raises(ValueError, match="theta"):
            theta_difference_check(sqrt_power(), [0.5, 1.2])
        with pytest.raises(ValueError, match="theta"):
            theta_difference_check(sqrt_power(), [])

    def test_budget_validated(self):
        with pytest.raises(ValueError, match="budget"):
            theta_difference_check(sqrt_power(), [0.5], sample_budget=0)


class TestHomogeneityAudit:
    def test_euclidean_passes(self):
        homogeneity_audit(lambda z: np.linalg.norm(z, axis=-1), dim=3)

    def test_l1_passes(self):
        homogeneity_audit(lambda z: np.abs(z).sum(axis=-1), dim=2)

    def test_quadratic_fails_scaling(self):
        with pytest.raises(ValueError, match="homogeneous"):
            homogeneity_audit(lambda z: (z ** 2).sum(axis=-1), dim=1)

    def test_shifted_fails_at_zero(self):
        with pytest.raises(ValueError, match="vanish"):
            homogeneity_audit(
                lambda z: np.linalg.norm(z, axis=-1) + 1.0, dim=1)

    def test_negative_fails(self):
        with pytest.raises(ValueError, match="nonnegative"):
            homogeneity_audit(lambda z: -np.linalg.norm(z, axis=-1), dim=1)

    def test_homogeneous_but_nonconvex_fails(self):
        with pytest.raises(ValueError, match="convexity"):
            homogeneity_audit(
                lambda z: 2.0 * np.abs(z).min(axis=-1), dim=2)


# ---------------------------------------------------------------------------
# recursive-utility parameterization
# ---------------------------------------------------------------------------

class TestEZMapping:
    def test_reference_point(self):
        sg = ez_to_special(EZParams(beta=1.0, c=1.0, rho=0.5))
        assert sg.alpha == pytest.approx(0.5, abs=1e-15)
        assert sg.k1(0.0) == pytest.approx(0.25, abs=1e-15)
        assert sg.k2(0.3) == pytest.approx(-0.5, abs=1e-15)
        assert sg.k3(0.0) == 0.0 and sg.k4(0.0) == 0.0

    def test_zero_endowment(self):
        sg = ez_to_special(EZParams(beta=0.5, c=0.0, rho=0.5))
        assert sg.k1(0.0) == 0.0
        assert sg.k2(0.0) == pytest.approx(-1.0, abs=1e-15)

    def test_driver_identity(self):
        ez = EZParams(beta=1.0, c=1.0, rho=0.5)
        sg = ez_to_special(ez)
        y = np.geomspace(1e-4, 50.0, 400)
        mapped = special_driver(sg, 0.2, y, np.zeros((400, 1)))
        direct = (ez.rho / ez.beta) * (ez.c ** ez.rho * y ** (1 - ez.rho) - y)
        assert np.max(np.abs(mapped - direct)) < 1e-12

    def test_parameter_validation(self):
        for rho in (1.0, 0.0, -0.5, 1.5):
            with pytest.raises(ValueError, match="rho"):
                EZParams(beta=1.0, c=1.0, rho=rho)
        with pytest.raises(ValueError, match="beta"):
            EZParams(beta=0.0, c=1.0, rho=0.5)
        with pytest.raises(ValueError, match="c must be >= 0"):
            EZParams(beta=1.0, c=-1.0, rho=0.5)


class TestEZClosedForm:
    def test_stationary_endowment(self):
        ez = EZParams(beta=1.0, c=1.0, rho=0.5)
        for t in (0.0, 0.37, 1.0):
            assert ez_closed_form(ez, 1.0, t) == pytest.approx(1.0,
                                                               abs=1e-14)

    def test_reference_value(self):
        ez = EZParams(beta=1.0, c=1.0, rho=0.5)
        assert ez_closed_form(ez, 4.0, 0.0) == pytest.approx(EZ_POINT,
                                                             rel=1e-12)

    def test_zero_endowment_decay(self):
        ez = EZParams(beta=1.0, c=0.0, rho=0.5)
        assert ez_closed_form(ez, 1.0, 0.0) == pytest.approx(
            math.exp(-0.5), rel=1e-13)

    def test_terminal_consistency(self):
        ez = EZParams(beta=2.0, c=0.7, rho=0.3)
        assert ez_closed_form(ez, 5.0, 1.0) == pytest.approx(5.0, rel=1e-13)

    def test_against_high_order_integration(self):
        ez = EZParams(beta=1.0, c=1.0, rho=0.5)
        grid = TimeGrid(horizon=1.0, steps=64)

        def g(t, y):
            y = max(y, 0.0)
            return (ez.rho / ez.beta) * (ez.c ** ez.rho
                                         * y ** (1 - ez.rho) - y)

        path = solve_deterministic_ode(g, 4.0, grid)
        expected = np.array([ez_closed_form(ez, 4.0, t)
                             for t in grid.nodes])
        assert np.max(np.abs(path - expected)) < 1e-9

    def test_domain_validation(self):
        ez = EZParams(beta=1.0, c=1.0, rho=0.5)
        with pytest.raises(ValueError, match="terminal"):
            ez_closed_form(ez, -1.0, 0.0)
        with pytest.raises(ValueError, match="outside"):
            ez_closed_form(ez, 1.0, 2.0)

    def test_full_pipeline_matches_closed_form(self):
        ez = EZParams(beta=1.0, c=1.0, rho=0.5)
        grid, ens = det_ensemble()
        res = solve_special(ez_to_special(ez), np.full(2, 4.0), ens)
        assert res.direct.y0_mean == pytest.approx(EZ_POINT, abs=1e-3)
        assert res.max_discrepancy < 1e-3


# ---------------------------------------------------------------------------
# structural inequalities
# ---------------------------------------------------------------------------

class TestStructuralInequalities:
    @given(alpha=st.floats(min_value=0.05, max_value=0.95),
           k1=st.floats(min_value=0.0, max_value=10.0),
           y=st.floats(min_value=0.0, max_value=10.0))
    @settings(max_examples=200, deadline=None)
    def test_young_domination(self, alpha, k1, y):
        assert k1 ** (1 - alpha) * y ** alpha <= \
            (1 - alpha) * k1 + alpha * y + 1e-10

    def test_young_domination_bulk(self):
        rng = np.random.default_rng(0)
        k1 = rng.uniform(0.0, 10.0, size=100_000)
        y = rng.uniform(0.0, 10.0, size=100_000)
        for alpha in (0.25, 0.5, 0.75):
            gap = k1 ** (1 - alpha) * y ** alpha \
                - ((1 - alpha) * k1 + alpha * y)
            assert float(gap.max()) <= 1e-10

    def test_midpoint_convexity_of_transformed_driver(self):
        sg = SpecialGenerator(alpha=0.5, c=1.0, k1=0.7, k2=-0.2, k3=0.25,
                              k4=0.3)
        rng = np.random.default_rng(3)
        y1 = 10.0 ** rng.uniform(-2, 1, size=50_000)
        y2 = 10.0 ** rng.uniform(-2, 1, size=50_000)
        z1 = rng.normal(0, 2, size=(50_000, 1))
        z2 = rng.normal(0, 2, size=(50_000, 1))
        mid = transformed_generator(sg, 0.4, 0.5 * (y1 + y2),
                                    0.5 * (z1 + z2))
        avg = 0.5 * (transformed_generator(sg, 0.4, y1, z1)
                     + transformed_generator(sg, 0.4, y2, z2))
        assert float(np.max(mid - avg)) <= 1e-10


# ---------------------------------------------------------------------------
# per-step driver factories
# ---------------------------------------------------------------------------

def _per_call_special(sg, t, y, z):
    # reference: the formula evaluated in full on every call
    y = np.clip(y, 0.0, None)
    a = sg.alpha
    out = (sg.k1(t) ** (1.0 - a)) * y ** a + sg.k2(t) * y + sg.k4(t)
    k3 = sg.k3(t)
    if k3 != 0.0:
        out = out + k3 * sg.gauge(z)
    return out


def _per_call_transformed(sg, t, y, z, k2_integral):
    # reference: the formula evaluated in full on every call
    a = sg.alpha
    growth = math.exp(k2_integral)
    kbar1 = growth * sg.k1(t)
    ktilde4 = (1.0 - a) ** (-a / (1.0 - a)) * growth * sg.k4(t)
    gz = sg.gauge(z)
    out = kbar1 ** (1.0 - a) + a / (2.0 * (1.0 - a)) * gz ** 2 / y
    k3 = sg.k3(t)
    if k3 != 0.0:
        out = out + k3 * gz
    if ktilde4 != 0.0:
        out = out + ktilde4 * y ** (-a / (1.0 - a))
    return out


@pytest.mark.parametrize("pattern", ["k1_only", "all_terms"])
@pytest.mark.parametrize("alpha", [0.25, 0.75])
def test_step_factories_match_per_call_drivers_bitwise(alpha, pattern):
    from peanobsde import cli
    from peanobsde.transform import (_k2_cumulative, special_step,
                                     transformed_step)

    sg = cli._matrix_instance(alpha, pattern)
    grid = TimeGrid(horizon=1.0, steps=100)
    integ = _k2_cumulative(sg, grid)
    rng = np.random.default_rng(17)
    m = 301
    for i in (0, 41, 99):
        t = float(grid.nodes[i])
        y = 10.0 ** rng.uniform(-3.0, 1.0, m)
        z = rng.normal(0.0, 2.0, (m, 1))
        g_dir = special_step(sg, t, z)(y)
        assert np.array_equal(g_dir, special_driver(sg, t, y, z))
        assert np.array_equal(g_dir, _per_call_special(sg, t, y, z))
        g_tr = transformed_step(sg, t, z, float(integ[i]))(y)
        assert np.array_equal(g_tr, transformed_generator(
            sg, t, y, z, k2_integral=float(integ[i])))
        assert np.array_equal(g_tr, _per_call_transformed(
            sg, t, y, z, float(integ[i])))
