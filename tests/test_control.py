"""Controlled-value, duality, certificate, and moment-report tests.

The sqrt driver with unit terminal data is the workhorse: its controlled
value under a constant control q on [0, 1] has the closed form
    F(q) = e^q + (e^q - 1) / (4 q^2),
its solution is (1 + (T - t)/2)^2, and the slope control along that path is
1/(2 + (T - t)). These give machine-checkable oracles for every operation.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from peanobsde.control import (CertificateReport, ControlProcess,
                               DualityReport, InadmissibleControlError,
                               NonpositiveSolutionError,
                               _closed_form_controlled, _engine_controlled,
                               admissibility_check, constant_control,
                               duality_gap, f_star, feedback_control,
                               lower_bound_certificate, solve_controlled)
from peanobsde.engine import (Deterministic, TerminalSpec, TimeGrid,
                              sample_terminal, simulate_brownian)
from peanobsde.peano import DivergentIntegralError, make_family
from peanobsde.solver import (GeneratorSpec, SolutionField, SolverOptions,
                              solve_backward_euler, spec_from_family,
                              spec_power, spec_sqrt, spec_sqrt_plus_time,
                              spec_zero)

def curve_value(q: float, xi_const: float = 1.0) -> float:
    return math.exp(q) * xi_const + (math.exp(q) - 1.0) / (4.0 * q * q)


def make_ensemble(n=100, m=8, seed=7, horizon=1.0):
    grid = TimeGrid(horizon=horizon, steps=n)
    return grid, simulate_brownian(grid, paths=m, dim=1, seed=seed)


def det_ensemble(n=100, m=8, horizon=1.0):
    grid = TimeGrid(horizon=horizon, steps=n)
    return grid, Deterministic(grid, m)


def exact_sqrt_field(grid: TimeGrid, m: int,
                     xi_const: float = 1.0) -> SolutionField:
    y_path = (math.sqrt(xi_const) + (grid.horizon - grid.nodes) / 2.0) ** 2
    y = np.tile(y_path[:, None], (1, m))
    z = np.zeros((grid.steps, m, 1))
    return SolutionField(grid=grid, y=y, z=z)


def shifted_sqrt_spec() -> GeneratorSpec:
    base = spec_sqrt()
    return replace(base,
                   concave_fn=lambda t, y: 1.0 + np.sqrt(np.clip(y, 0, None)),
                   floor_fn=lambda t: 1.0, cap_fn=lambda t: 1.5, c=1.0,
                   label="1+sqrt")


# ---------------------------------------------------------------------------
# partial conjugate
# ---------------------------------------------------------------------------

class TestConjugate:
    def test_sqrt_at_half(self):
        assert f_star(spec_sqrt(), 0.0, 0.5) == pytest.approx(0.5, abs=1e-12)

    def test_sqrt_at_quarter(self):
        assert f_star(spec_sqrt(), 0.0, 0.25) == pytest.approx(1.0, abs=1e-12)

    def test_additive_constant_shifts_value(self):
        assert f_star(shifted_sqrt_spec(), 0.0, 0.5) == pytest.approx(
            1.5, abs=1e-12)

    def test_time_offset_enters_through_the_floor(self):
        assert f_star(spec_sqrt_plus_time(), 0.3, 0.5) == pytest.approx(
            0.8, abs=1e-12)

    def test_zero_control_is_infinite(self):
        assert math.isinf(f_star(spec_sqrt(), 0.0, 0.0))

    def test_negative_control_rejected(self):
        with pytest.raises(ValueError):
            f_star(spec_sqrt(), 0.0, -0.1)

    def test_numeric_search_matches_analytic_value(self):
        # concave part 2*sqrt(y) deliberately disagrees with phi, forcing the
        # bracketed search; sup(2 sqrt(y) - q y) = 1/q
        base = spec_sqrt()
        spec = replace(base,
                       concave_fn=lambda t, y: 2.0 * np.sqrt(np.clip(y, 0, None)),
                       cap_fn=lambda t: 1.0, beta=1.0)
        got = f_star(spec, 0.0, 0.75)
        assert got == pytest.approx(1.0 / 0.75, rel=1e-8)

    def test_trivial_driver_keeps_value_at_origin(self):
        assert f_star(spec_zero(), 0.2, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_structure_probed_once_per_spec(self):
        base = spec_sqrt()
        calls = []

        def counted(t, y):
            calls.append(t)
            return base.concave_fn(t, y)

        spec = replace(base, concave_fn=counted)
        for k in range(1000):
            f_star(spec, 0.01 * (k % 97), 0.25 + 0.001 * k)
        assert len(calls) <= 3

    def test_replaced_concave_part_is_probed_afresh(self):
        base = spec_sqrt()
        assert base.shifted_modulus is True
        spec = replace(base,
                       concave_fn=lambda t, y: 2.0 * np.sqrt(np.clip(y, 0, None)))
        assert spec.shifted_modulus is False


# ---------------------------------------------------------------------------
# control containers
# ---------------------------------------------------------------------------

class TestControlProcess:
    def test_constant_builder_shape(self):
        grid = TimeGrid(horizon=1.0, steps=20)
        ctrl = constant_control(grid, paths=5, value=0.4)
        assert ctrl.values.shape == (20, 5)
        assert ctrl.deterministic
        assert ctrl.label == "q=0.4"

    def test_negative_constant_rejected(self):
        grid = TimeGrid(horizon=1.0, steps=20)
        with pytest.raises(ValueError):
            constant_control(grid, paths=5, value=-0.1)

    def test_negative_values_rejected(self):
        grid = TimeGrid(horizon=1.0, steps=4)
        with pytest.raises(ValueError):
            ControlProcess(grid=grid, values=-np.ones((4, 2)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_values_rejected(self, bad):
        # NaN slips past the sign check, so finiteness is its own check
        grid = TimeGrid(horizon=1.0, steps=4)
        vals = np.full((4, 2), 0.5)
        vals[1, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            ControlProcess(grid=grid, values=vals)



# ---------------------------------------------------------------------------
# controlled values, closed form
# ---------------------------------------------------------------------------

class TestClosedForm:
    # frozen values of e^q + (e^q - 1)/(4 q^2) on the standard grid
    CURVE = {0.3: 2.3216888286204565,
             0.4: 2.2603007877057546,
             0.5: 2.2974425414002564,
             0.6: 2.3930346339950289}

    @pytest.mark.parametrize("q", [0.3, 0.4, 0.5, 0.6])
    def test_constant_control_curve(self, q):
        grid, ens = det_ensemble(n=50, m=8)
        xi = np.ones(8)
        ctrl = constant_control(grid, paths=8, value=q)
        sol = solve_controlled(spec_sqrt(), ctrl, xi, ens)
        assert sol.diagnostics["scheme"] == "controlled_closed_form"
        assert sol.y0_mean == pytest.approx(self.CURVE[q], rel=1e-9)
        assert sol.y0_mean == pytest.approx(curve_value(q), rel=1e-9)

    def test_half_control_identity(self):
        # e^{1/2} + (e^{1/2} - 1) collapses to 2 e^{1/2} - 1
        grid, ens = det_ensemble(n=50, m=8)
        ctrl = constant_control(grid, paths=8, value=0.5)
        sol = solve_controlled(spec_sqrt(), ctrl, np.ones(8), ens)
        assert sol.y0_mean == pytest.approx(2.0 * math.exp(0.5) - 1.0,
                                            rel=1e-9)

    def test_terminal_four(self):
        grid, ens = det_ensemble(n=50, m=8)
        ctrl = constant_control(grid, paths=8, value=0.5)
        sol = solve_controlled(spec_sqrt(), ctrl, np.full(8, 4.0), ens)
        assert sol.y0_mean == pytest.approx(5.0 * math.exp(0.5) - 1.0,
                                            rel=1e-9)
        assert sol.y0_mean > 6.25

    def test_time_dependent_offset_integrates_exactly(self):
        # driver sqrt(y) + t, q = 1/2, xi = 1:
        # e^{1/2} + int_0^1 e^{s/2}(s + 1/2) ds = e^{1/2} + 3 - e^{1/2} = 3
        grid, ens = det_ensemble(n=40, m=4)
        ctrl = constant_control(grid, paths=4, value=0.5)
        sol = solve_controlled(spec_sqrt_plus_time(), ctrl, np.ones(4), ens)
        assert sol.y0_mean == pytest.approx(3.0, rel=1e-9)

    def test_regression_route_on_constant_terminal(self):
        # polynomial regression reproduces a constant payoff exactly, so the
        # stochastic-conditioning closed form hits the same curve value
        grid, ens = make_ensemble(n=50, m=200, seed=3)
        ctrl = constant_control(grid, paths=200, value=0.4)
        sol = solve_controlled(spec_sqrt(), ctrl, np.ones(200), ens)
        assert sol.y0_mean == pytest.approx(self.CURVE[0.4], rel=1e-9)

    def test_zero_control_inadmissible(self):
        grid, ens = det_ensemble(n=20, m=4)
        ctrl = constant_control(grid, paths=4, value=0.0)
        with pytest.raises(InadmissibleControlError):
            solve_controlled(spec_sqrt(), ctrl, np.ones(4), ens)

    def test_mismatched_control_rejected(self):
        grid, ens = det_ensemble(n=20, m=4)
        other = TimeGrid(horizon=1.0, steps=30)
        ctrl = constant_control(other, paths=4, value=0.5)
        with pytest.raises(ValueError):
            solve_controlled(spec_sqrt(), ctrl, np.ones(4), ens)



# ---------------------------------------------------------------------------
# controlled values, engine route
# ---------------------------------------------------------------------------

class TestEngineRoute:
    def test_zero_control_inadmissible(self):
        grid, ens = det_ensemble(n=20, m=4)
        ctrl = constant_control(grid, paths=4, value=0.0)
        with pytest.raises(InadmissibleControlError):
            _engine_controlled(spec_sqrt(), ctrl, np.ones(4), ens,
                               SolverOptions())

    def test_agreement_with_closed_form_on_lognormal_terminal(self):
        grid, ens = make_ensemble(n=50, m=4000, seed=11)
        xi = sample_terminal(TerminalSpec("lognormal",
                                          {"mean": 1.0, "sigma": 0.5}), ens)
        ctrl = constant_control(grid, paths=4000, value=0.5)
        closed = _closed_form_controlled(spec_sqrt(), ctrl, xi, ens,
                                         SolverOptions())
        engine = _engine_controlled(spec_sqrt(), ctrl, xi, ens,
                                    SolverOptions())
        assert engine.y0_mean == pytest.approx(closed.y0_mean, rel=0.02)
        assert engine.diagnostics["scheme"] == "controlled_engine"

    def test_stochastic_feedback_control_goes_through_engine(self):
        # a path-dependent terminal value makes Y, and hence the slope
        # control, genuinely random, forcing the engine route
        grid, ens = make_ensemble(n=50, m=2000, seed=5)
        xi = sample_terminal(TerminalSpec("lognormal",
                                          {"mean": 1.0, "sigma": 0.3}), ens)
        primal = solve_backward_euler(spec_sqrt(), xi, ens)
        ctrl = feedback_control(spec_sqrt(), primal)
        assert not ctrl.deterministic
        sol = solve_controlled(spec_sqrt(), ctrl, xi, ens)
        assert sol.diagnostics["scheme"] == "controlled_engine"
        # tangency: the linearized equation reproduces the primal value
        assert sol.y0_mean == pytest.approx(primal.y0_mean, rel=0.02)


# ---------------------------------------------------------------------------
# feedback control
# ---------------------------------------------------------------------------

class TestFeedback:
    def test_slope_along_exact_path(self):
        grid = TimeGrid(horizon=1.0, steps=200)
        field = exact_sqrt_field(grid, m=3)
        ctrl = feedback_control(spec_sqrt(), field)
        assert ctrl.deterministic
        assert ctrl.label == "feedback"
        expect = 1.0 / (2.0 + (1.0 - grid.nodes[:-1]))
        assert np.allclose(ctrl.values[:, 0], expect, rtol=1e-12)

    def test_power_two_thirds_slope(self):
        grid = TimeGrid(horizon=1.0, steps=10)
        y = np.full((11, 2), 8.0)
        field = SolutionField(grid=grid, y=y, z=np.zeros((10, 2, 1)))
        ctrl = feedback_control(spec_power(1.0, 2.0 / 3.0), field)
        assert np.allclose(ctrl.values, 1.0 / 3.0, rtol=1e-12)

    def test_linear_driver_gives_constant_slope(self):
        grid = TimeGrid(horizon=1.0, steps=10)
        y = np.full((11, 2), 2.5)
        field = SolutionField(grid=grid, y=y, z=np.zeros((10, 2, 1)))
        ctrl = feedback_control(spec_from_family("rho1", k=0.7), field)
        assert np.allclose(ctrl.values, 0.7, rtol=1e-12)

    def test_nonpositive_solution_rejected(self):
        grid = TimeGrid(horizon=1.0, steps=10)
        y = np.zeros((11, 2))
        field = SolutionField(grid=grid, y=y, z=np.zeros((10, 2, 1)))
        with pytest.raises(NonpositiveSolutionError):
            feedback_control(spec_sqrt(), field)

    def test_moment_report_attached_and_finite(self):
        grid = TimeGrid(horizon=1.0, steps=100)
        field = exact_sqrt_field(grid, m=2)
        ctrl = feedback_control(spec_sqrt(), field)
        rep = ctrl.moment_report
        assert rep is not None
        assert math.isfinite(rep["exp_moment"])
        assert math.isfinite(rep["conjugate_norm"])
        assert not rep["conjugate_infinite"]
        assert not rep["heavy_tail_flag"]

    def test_feedback_value_recovers_the_solution(self):
        grid, ens = det_ensemble(n=200, m=4)
        field = exact_sqrt_field(grid, m=4)
        ctrl = feedback_control(spec_sqrt(), field)
        sol = solve_controlled(spec_sqrt(), ctrl, np.ones(4), ens)
        assert sol.y0_mean == pytest.approx(2.25, abs=1e-3)
        # weak duality holds exactly for the time-continuous evaluation
        assert sol.y0_mean >= 2.25 - 1e-9

    def test_tangency_identity_along_solution(self):
        spec = spec_sqrt()
        grid = TimeGrid(horizon=1.0, steps=50)
        field = exact_sqrt_field(grid, m=1)
        ctrl = feedback_control(spec, field)
        worst = 0.0
        for i in range(grid.steps):
            t = float(grid.nodes[i])
            yv = float(field.y[i, 0])
            qv = float(ctrl.values[i, 0])
            lhs = math.sqrt(yv)
            rhs = f_star(spec, t, qv) + qv * yv
            worst = max(worst, abs(lhs - rhs))
        assert worst <= 1e-9


# ---------------------------------------------------------------------------
# duality report
# ---------------------------------------------------------------------------

class TestDuality:
    def family(self, grid, m):
        consts = [constant_control(grid, m, q) for q in (0.3, 0.4, 0.5, 0.6)]
        return consts + ["feedback"]

    def test_deterministic_instance_report(self):
        grid, ens = det_ensemble(n=200, m=4)
        primal = exact_sqrt_field(grid, m=4)
        report = duality_gap(spec_sqrt(), np.ones(4), ens,
                             self.family(grid, 4), primal=primal)
        assert report.y0_primal == pytest.approx(2.25, abs=1e-12)
        for q in (0.3, 0.4, 0.5, 0.6):
            got = report.y0_per_control[f"q={q}"]
            assert got == pytest.approx(curve_value(q), rel=1e-9)
            assert got >= 2.25 + 1e-2
        assert report.feedback_match_error is not None
        assert report.feedback_match_error <= 1e-3
        assert report.gap_min >= -1e-9
        assert report.gap_min <= 1e-3

    def test_best_constant_is_inside_the_grid(self):
        # the curve dips between 0.3 and 0.6; q=0.4 wins on this grid
        vals = {q: curve_value(q) for q in (0.3, 0.4, 0.5, 0.6)}
        assert min(vals, key=vals.get) == 0.4
        assert vals[0.4] - 2.25 >= 1e-2

    def test_terminal_four_gaps(self):
        grid, ens = det_ensemble(n=100, m=4)
        primal = exact_sqrt_field(grid, m=4, xi_const=4.0)
        family = [constant_control(grid, 4, q) for q in (0.4, 0.5)]
        report = duality_gap(spec_sqrt(), np.full(4, 4.0), ens, family,
                             primal=primal)
        assert report.y0_primal == pytest.approx(6.25, abs=1e-12)
        # q=0.4 is the tighter of the two: 4e^{0.4} + (e^{0.4}-1)/0.64 - 6.25
        assert report.gap_min == pytest.approx(curve_value(0.4, 4.0) - 6.25,
                                               rel=1e-9)
        assert report.gap_min > 0.4
        assert report.feedback_match_error is None

    def test_empty_family_rejected(self):
        grid, ens = det_ensemble(n=20, m=4)
        with pytest.raises(ValueError):
            duality_gap(spec_sqrt(), np.ones(4), ens, [])

    def test_unknown_string_entry_rejected(self):
        grid, ens = det_ensemble(n=20, m=4)
        primal = exact_sqrt_field(grid, m=4)
        with pytest.raises(ValueError):
            duality_gap(spec_sqrt(), np.ones(4), ens, ["optimal"],
                        primal=primal)


# ---------------------------------------------------------------------------
# lower-bound certificate
# ---------------------------------------------------------------------------

class TestCertificate:
    def test_deterministic_sqrt_is_tight(self):
        grid, ens = det_ensemble(n=100, m=4)
        field = exact_sqrt_field(grid, m=4)
        report = lower_bound_certificate(spec_sqrt(), np.ones(4), ens, field)
        assert report.passed
        assert report.tight_error <= 1e-6
        assert report.bound[0, 0] == pytest.approx(2.25, abs=1e-6)
        assert report.std_error is None

    def test_deterministic_terminal_four(self):
        grid, ens = det_ensemble(n=100, m=4)
        field = exact_sqrt_field(grid, m=4, xi_const=4.0)
        report = lower_bound_certificate(spec_sqrt(), np.full(4, 4.0), ens,
                                         field)
        assert report.passed
        assert report.tight_error <= 1e-6
        assert report.bound[0, 0] == pytest.approx(6.25, abs=1e-6)

    def test_lognormal_terminal_holds_within_three_sigma(self):
        grid, ens = make_ensemble(n=50, m=4000, seed=11)
        xi = sample_terminal(TerminalSpec("lognormal",
                                          {"mean": 1.0, "sigma": 0.5}), ens)
        sol = solve_backward_euler(spec_sqrt(), xi, ens)
        report = lower_bound_certificate(spec_sqrt(), xi, ens, sol)
        assert report.passed
        assert report.worst_violation <= 1e-9
        # only boundary-leverage points are set aside, and not many
        assert report.excluded_fraction < 0.02
        # the bound is strictly below the solution away from the horizon
        assert float(np.mean(report.slack[: grid.steps // 2] >= 0.0)) > 0.95

    def test_quartic_basis_clears_the_tail_bias(self):
        # near the horizon the bound's slack vanishes while a cubic fit
        # bends low in one tail; an even-degree basis follows the convex
        # conditional mean and the kept margins stay nonnegative
        grid, ens = make_ensemble(n=50, m=4000, seed=9)
        xi = sample_terminal(TerminalSpec("lognormal",
                                          {"mean": 1.0, "sigma": 0.5}), ens)
        sol = solve_backward_euler(spec_sqrt(), xi, ens,
                                   SolverOptions(degree=4))
        report = lower_bound_certificate(spec_sqrt(), xi, ens, sol, degree=4)
        assert report.passed
        assert report.worst_violation <= 1e-9

    def test_terminal_node_slack_vanishes(self):
        grid, ens = make_ensemble(n=20, m=16, seed=2)
        xi = sample_terminal(TerminalSpec("lognormal",
                                          {"mean": 1.0, "sigma": 0.3}), ens)
        sol = solve_backward_euler(spec_sqrt(), xi, ens)
        report = lower_bound_certificate(spec_sqrt(), xi, ens, sol)
        assert np.allclose(report.slack[-1], 0.0, atol=1e-12)

    def test_osgood_modulus_without_offset_diverges(self):
        grid, ens = det_ensemble(n=20, m=4)
        spec = spec_from_family("rho2")
        field = SolutionField(grid=grid, y=np.ones((21, 4)),
                              z=np.zeros((20, 4, 1)))
        with pytest.raises(DivergentIntegralError):
            lower_bound_certificate(spec, np.ones(4), ens, field)

    def test_offset_rescues_osgood_modulus(self):
        # with c > 0 the reciprocal integral converges at zero regardless
        grid, ens = det_ensemble(n=20, m=4)
        base = spec_from_family("rho2")
        rho2 = base.phi
        spec = replace(base,
                       concave_fn=lambda t, y, _r=rho2: _r(np.clip(y, 0, None)) + 0.25,
                       floor_fn=lambda t: 0.25,
                       cap_fn=lambda t: base.cap_fn(t) + 0.25, c=0.25)
        y = np.full((21, 4), 5.0)
        field = SolutionField(grid=grid, y=y, z=np.zeros((20, 4, 1)))
        report = lower_bound_certificate(spec, np.full(4, 5.0), ens, field)
        assert report.bound.shape == (21, 4)
        assert math.isfinite(report.worst_violation)

    def test_requires_concave_part(self):
        grid, ens = make_ensemble(n=20, m=4)
        field = SolutionField(grid=grid, y=np.ones((21, 4)),
                              z=np.zeros((20, 4, 1)))
        with pytest.raises(ValueError):
            lower_bound_certificate(spec_zero(), np.ones(4), ens, field)


# ---------------------------------------------------------------------------
# moment reports
# ---------------------------------------------------------------------------

class TestAdmissibility:
    def test_constant_half_exponential_moment_exact(self):
        grid = TimeGrid(horizon=1.0, steps=100)
        ctrl = constant_control(grid, paths=16, value=0.5)
        rep = admissibility_check(ctrl, 4.0, spec_sqrt())
        assert rep["exp_moment"] == pytest.approx(math.e ** 2, rel=1e-12)
        assert rep["conjugate_norm"] == pytest.approx(0.5, rel=1e-9)
        assert not rep["conjugate_infinite"]
        assert not rep["heavy_tail_flag"]

    def test_zero_control_flags_infinite_conjugate(self):
        grid = TimeGrid(horizon=1.0, steps=50)
        ctrl = constant_control(grid, paths=8, value=0.0)
        rep = admissibility_check(ctrl, 2.0, spec_sqrt())
        assert rep["conjugate_infinite"]
        assert math.isinf(rep["conjugate_norm"])
        assert rep["heavy_tail_flag"]
        assert rep["exp_moment"] == pytest.approx(1.0, abs=1e-12)

    def test_p_bar_validated(self):
        grid = TimeGrid(horizon=1.0, steps=10)
        ctrl = constant_control(grid, paths=2, value=0.5)
        with pytest.raises(ValueError):
            admissibility_check(ctrl, 0.0, spec_sqrt())

