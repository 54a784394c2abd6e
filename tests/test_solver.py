import math

import numpy as np
import pytest

from peanobsde import engine as E
from peanobsde import solver as S
from peanobsde.peano import DivergentSupremumError


def grid(n=100, horizon=1.0):
    return E.TimeGrid(horizon, n)


def ensemble(n=100, m=4000, seed=0, horizon=1.0):
    return E.simulate_brownian(grid(n, horizon), m, 1, seed)


# --- audit -------------------------------------------------------------------

def test_sqrt_spec_passes_audit():
    rep = S.assumption_audit(S.spec_sqrt(), 2000)
    assert rep.passed, rep.slacks


def test_power_and_family_specs_pass_audit():
    assert S.assumption_audit(S.spec_power(2.0, 0.3), 2000).passed
    assert S.assumption_audit(S.spec_from_family("rho8"), 2000).passed
    assert S.assumption_audit(S.spec_sqrt_plus_time(), 2000).passed
    assert S.assumption_audit(S.spec_zero(), 2000).passed


def test_decreasing_monotone_part_passes():
    fbar = lambda t, y: np.clip(1.0 - np.sqrt(np.clip(y, 0.0, None)), 0.0, None)
    spec = S.with_monotone_part(S.spec_sqrt(), fbar, beta_bar=0.0,
                                cap_fn=lambda t: 1.0)
    rep = S.assumption_audit(spec, 2000)
    assert rep.passed, rep.slacks


def test_understated_lipschitz_constant_fails_with_unit_slack():
    fn = lambda t, y, z: 2.0 * y + np.linalg.norm(z, axis=-1)
    spec = S.with_lipschitz_part(S.spec_sqrt(), fn, beta_tilde=1.0, gamma=1.0)
    rep = S.assumption_audit(spec, 4000, box=S.AuditBox(y_max=1.0))
    assert not rep.passed
    name, slack = rep.worst
    assert name == "lipschitz_modulus"
    assert 0.8 <= slack <= 1.05


def test_audit_budget_validation():
    with pytest.raises(ValueError):
        S.assumption_audit(S.spec_sqrt(), 999)


# --- backward Euler ----------------------------------------------------------

def test_zero_driver_recovers_conditional_expectation():
    ens = ensemble(n=50, m=10_000, seed=1)
    xi = ens.terminal[:, 0] ** 2
    sol = S.solve_backward_euler(S.spec_zero(), xi, ens)
    assert abs(sol.y0_mean - 1.0) < 0.03
    assert np.array_equal(sol.y[-1], xi)


def test_sqrt_driver_matches_closed_form():
    ens = ensemble(n=100, m=4000, seed=2)
    sol = S.solve_backward_euler(S.spec_sqrt(), np.ones(4000), ens)
    assert abs(sol.y0_mean - 2.25) < 0.025


def test_sqrt_driver_deterministic_mode():
    sol = S.solve_backward_euler(S.spec_sqrt(), np.ones(1),
                                 E.Deterministic(grid(200)))
    # implicit Euler on the reduced equation, first-order accurate
    assert abs(sol.y0_mean - 2.25) < 2e-2
    assert np.all(sol.z == 0.0)


def test_time_dependent_driver_against_ode_oracle():
    g = grid(200)
    sol = S.solve_backward_euler(S.spec_sqrt_plus_time(), np.ones(1),
                                 E.Deterministic(g))
    oracle = S.solve_deterministic_ode(lambda t, y: math.sqrt(max(y, 0.0)) + t,
                                       1.0, g)
    assert abs(sol.y0_mean - oracle[0]) / oracle[0] < 0.01


def test_scheme_order_at_least_one():
    errs = []
    for n in (50, 100):
        sol = S.solve_backward_euler(S.spec_sqrt(), np.ones(1),
                                     E.Deterministic(grid(n)))
        errs.append(abs(sol.y0_mean - 2.25))
    assert errs[0] / errs[1] > 1.7


def test_comparison_monotonicity():
    ens = ensemble(n=50, m=3000, seed=6)
    xi = E.sample_terminal(E.TerminalSpec("lognormal",
                                          {"mean": 1.0, "sigma": 0.5}), ens)
    lo = S.solve_backward_euler(S.spec_sqrt(), xi, ens)
    hi = S.solve_backward_euler(S.spec_sqrt(), xi + 0.5, ens)
    assert float(np.min(hi.y - lo.y)) > -1e-8


def test_positivity_floor_from_terminal():
    ens = ensemble(n=50, m=3000, seed=7)
    xi = E.sample_terminal(
        E.TerminalSpec("floored_lognormal",
                       {"mean": 1.0, "sigma": 0.5, "floor": 0.5}), ens)
    sol = S.solve_backward_euler(S.spec_sqrt(), xi, ens)
    # driver is nonnegative and beta_tilde = 0, so the terminal floor persists
    assert float(sol.y.min()) > 0.5 - 0.05


def test_regression_lower_bound_for_sqrt_driver():
    ens = ensemble(n=50, m=4000, seed=8)
    xi = E.sample_terminal(
        E.TerminalSpec("floored_lognormal",
                       {"mean": 1.0, "sigma": 0.5, "floor": 0.5}), ens)
    sol = S.solve_backward_euler(S.spec_sqrt(), xi, ens)
    nodes = ens.grid.nodes
    viols = []
    for i in range(ens.grid.steps + 1):
        if i == ens.grid.steps:
            cond_root = np.sqrt(xi)
        else:
            cond_root = E.conditional_expectation(ens, np.sqrt(xi), i)
        bound = (cond_root + 0.5 * (1.0 - nodes[i])) ** 2
        viols.append(bound - sol.y[i])
    v = np.concatenate(viols)
    # violations are regression-tail noise: tiny on average, rare in bulk
    assert float(np.clip(v, 0.0, None).mean()) < 5e-3
    assert float(np.quantile(v, 0.99)) < 0.05


def test_negative_terminal_rejected():
    ens = ensemble(n=10, m=100, seed=9)
    with pytest.raises(ValueError):
        S.solve_backward_euler(S.spec_sqrt(), np.full(100, -1.0), ens)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_terminal_rejected(bad):
    # NaN slips past the sign check, so finiteness is its own check
    ens = ensemble(n=10, m=100, seed=9)
    xi = np.ones(100)
    xi[3] = bad
    with pytest.raises(ValueError, match="finite"):
        S.solve_backward_euler(S.spec_sqrt(), xi, ens)


def test_fixed_point_divergence_reports_step():
    ens = E.Deterministic(E.TimeGrid(1.0, 2))
    stiff = S.GeneratorSpec(concave_fn=lambda t, y: 10.0 * y, phi=None,
                            floor_fn=lambda t: 0.0, cap_fn=lambda t: 0.0,
                            beta=10.0, lam=1.0, c=0.0)
    with pytest.raises(S.FixedPointDivergenceError) as err:
        S.solve_backward_euler(stiff, np.ones(1), ens,
                               S.SolverOptions(max_inner=3))
    assert err.value.step == 1


def _primal_route(ens, xi, opts):
    return [S.solve_backward_euler(S.spec_sqrt(), xi, ens, opts)]


def _control_route(ens, xi, opts):
    from peanobsde.control import _engine_controlled, constant_control
    ctrl = constant_control(ens.grid, ens.paths, 1.0)
    return [_engine_controlled(S.spec_sqrt(), ctrl, xi, ens, opts)]


def _transform_route(ens, xi, opts):
    from peanobsde.transform import SpecialGenerator, solve_special
    res = solve_special(SpecialGenerator(alpha=0.5, c=1.0, k1=1.0), xi, ens,
                        opts)
    return [res.direct, res.via_transform]


@pytest.mark.parametrize("route", [_primal_route, _control_route,
                                   _transform_route],
                         ids=["primal", "control", "transform"])
def test_backward_kernel_contract_is_shared(route):
    ens = ensemble(n=5, m=200, seed=15)
    xi = np.ones(200)
    with pytest.raises(S.FixedPointDivergenceError) as err:
        route(ens, xi, S.SolverOptions(max_inner=1))
    assert err.value.step == ens.grid.steps - 1
    for fld in route(ens, xi, S.SolverOptions()):
        for key in ("max_inner_iterations", "floor_hits",
                    "degraded_regressions"):
            assert key in fld.diagnostics, (fld.diagnostics, key)


@pytest.mark.parametrize("route", [_primal_route, _control_route,
                                   _transform_route],
                         ids=["primal", "control", "transform"])
def test_backward_kernel_on_a_noiseless_ensemble(route):
    ens = E.Deterministic(grid(5), paths=3, dim=2)
    for fld in route(ens, np.ones(3), S.SolverOptions()):
        assert fld.z.shape == (5, 3, 2)
        assert not fld.z.any()
        assert fld.diagnostics["degraded_regressions"] == 0
        assert np.all(fld.y == fld.y[:, :1])


# --- copy count of a noiseless ensemble -------------------------------------
# Each case solves on Deterministic(grid, m) and returns (fields, scalars):
# arrays whose axis 1 runs over the copies, and path-free results.

def _copies_backward_euler(ens):
    sol = S.solve_backward_euler(S.spec_sqrt(), np.ones(ens.paths), ens)
    return [sol.y, sol.z], [sol.y0_mean]


def _copies_maximal_solution(ens):
    sol = S.maximal_solution(S.spec_sqrt(), np.zeros(ens.paths), ens,
                             n_schedule=(2, 4, 8),
                             opts=S.SolverOptions(max_inner=60))
    # the extrapolation averages its level gaps over every copy
    assert sol.diagnostics["extrapolated"]
    return [sol.y], [sol.y0_mean, sol.diagnostics["y0_by_level"]]


def _copies_special(ens):
    from peanobsde.transform import SpecialGenerator, solve_special
    sg = SpecialGenerator(alpha=0.5, c=1.0, k1=0.5, k2=-0.25, k3=0.25,
                          k4=0.5)
    res = solve_special(sg, np.ones(ens.paths), ens)
    return ([res.direct.y, res.via_transform.y],
            [res.max_discrepancy, res.interior_relative_gap])


def _copies_duality_feedback(ens):
    from peanobsde.control import constant_control, duality_gap
    family = [constant_control(ens.grid, ens.paths, 0.5), "feedback"]
    rep = duality_gap(S.spec_sqrt(), np.ones(ens.paths), ens, family)
    return [], [rep.y0_per_control, rep.gap_min, rep.feedback_match_error]


def _copies_certificate(ens):
    from peanobsde.control import lower_bound_certificate
    g, m = ens.grid, ens.paths
    level = (1.0 + (g.horizon - g.nodes) / 2.0) ** 2
    exact = S.SolutionField(grid=g, y=np.tile(level[:, None], (1, m)),
                            z=np.zeros((g.steps, m, 1)))
    cert = lower_bound_certificate(S.spec_sqrt(), np.ones(m), ens, exact)
    return [cert.bound], [cert.tight_error, cert.worst_violation]


@pytest.mark.parametrize("case", [
    _copies_backward_euler, _copies_maximal_solution, _copies_special,
    _copies_duality_feedback, _copies_certificate,
], ids=["backward_euler", "maximal_solution", "special", "duality_feedback",
        "certificate"])
def test_one_copy_equals_column_zero_of_two(case):
    one_fields, one_scalars = case(E.Deterministic(grid(20), paths=1))
    two_fields, two_scalars = case(E.Deterministic(grid(20), paths=2))
    for one, two in zip(one_fields, two_fields, strict=True):
        assert one.shape[1] == 1 and two.shape[1] == 2
        assert np.array_equal(one[:, 0], two[:, 0])
    assert one_scalars == two_scalars


# --- deterministic ODE and the multiplicity family ---------------------------

def test_ode_sqrt_closed_form():
    y = S.solve_deterministic_ode(lambda t, v: math.sqrt(max(v, 0.0)), 1.0,
                                  grid(64))
    nodes = grid(64).nodes
    expect = (1.0 + 0.5 * (1.0 - nodes)) ** 2
    assert float(np.max(np.abs(y - expect))) < 1e-9


def test_ode_zero_terminal_minimal_branch():
    y = S.solve_deterministic_ode(lambda t, v: math.sqrt(max(v, 0.0)), 0.0,
                                  grid(32))
    assert np.all(y == 0.0)


def test_ode_stationary_power_driver():
    g = lambda t, v: 0.5 * (max(v, 0.0) ** 0.5 - v)
    y = S.solve_deterministic_ode(g, 1.0, grid(32))
    assert float(np.max(np.abs(y - 1.0))) < 1e-10


def test_ode_negative_terminal_rejected():
    with pytest.raises(ValueError):
        S.solve_deterministic_ode(lambda t, v: 0.0, -1.0, grid(4))


def test_multiplicity_family_values():
    g = grid(100)
    y = S.multiplicity_family(1.0, g)
    assert y[0] == 0.25
    assert y[-1] == 0.0
    assert np.all(S.multiplicity_family(0.0, g) == 0.0)
    half = S.multiplicity_family(0.5, g)
    assert half[50] == 0.0  # node t = 0.5
    assert np.all(half[50:] == 0.0)


def test_multiplicity_family_out_of_range():
    with pytest.raises(ValueError):
        S.multiplicity_family(1.5, grid(10))
    with pytest.raises(ValueError):
        S.multiplicity_family(-0.1, grid(10))


# --- envelopes and the extremal field ----------------------------------------

def test_envelope_pinned_values():
    g = lambda u: np.sqrt(np.clip(u, 0.0, None))
    env1 = S.lipschitz_envelope(g, 1.0)
    assert float(env1(0.0)) == pytest.approx(0.25, abs=1e-9)
    env_big = S.lipschitz_envelope(g, 1e6)
    assert float(env_big(1.0)) == pytest.approx(1.0, abs=1e-9)


def test_envelope_is_identity_past_corner_for_lines():
    g = lambda u: 2.0 * np.asarray(u, dtype=float)
    env = S.lipschitz_envelope(g, 3.0)
    xs = np.linspace(0.0, 5.0, 11)
    assert np.allclose(env(xs), g(xs), atol=1e-10)


def test_envelope_diverges_below_asymptotic_slope():
    g = lambda u: 2.0 * np.asarray(u, dtype=float)
    with pytest.raises(DivergentSupremumError):
        S.lipschitz_envelope(g, 1.0)


def test_envelope_lipschitz_dominates_and_decreases():
    g = lambda u: np.sqrt(np.clip(u, 0.0, None))
    xs = np.linspace(0.0, 4.0, 81)
    prev = None
    for n in (1.0, 2.0, 4.0):
        env = S.lipschitz_envelope(g, n)
        vals = env(xs)
        assert np.all(vals >= g(xs) - 1e-12)
        diffs = np.abs(np.diff(vals)) / (xs[1] - xs[0])
        assert float(diffs.max()) <= n + 1e-9
        if prev is not None:
            assert np.all(vals <= prev + 1e-12)
        prev = vals


def test_maximal_solution_zero_terminal_deterministic():
    sol = S.maximal_solution(S.spec_sqrt(), np.zeros(1),
                             E.Deterministic(grid(800)))
    levels = sol.diagnostics["y0_by_level"]
    # value at the deepest level before extrapolation, from the exact
    # piecewise integration of the envelope equation (plus O(dt) scheme bias)
    assert levels[-1] == pytest.approx(
        (1.0 / 64.0 + 0.5 * (1.0 - math.log(2.0) / 32.0)) ** 2, abs=3e-3)
    assert 0.24 <= sol.y0_mean <= 0.26
    assert np.all(np.diff(levels) < 0.0)
    assert not sol.diagnostics["nonmonotone_flag"]


def test_maximal_solution_unique_case_matches_unit_terminal():
    ens = ensemble(n=50, m=2000, seed=16)
    sol = S.maximal_solution(S.spec_sqrt(), np.ones(2000), ens)
    assert abs(sol.y0_mean - 2.25) / 2.25 < 0.02


def test_maximal_solution_rejects_mixed_spec():
    ens = ensemble(n=5, m=10, seed=17)
    spec = S.with_lipschitz_part(S.spec_sqrt(), lambda t, y, z: 0.0 * y,
                                 0.0, 0.0)
    with pytest.raises(ValueError):
        S.maximal_solution(spec, np.zeros(10), ens)


def test_indicator_terminal_between_deterministic_brackets():
    # terminal 1_{B_T > 0}: glueing the zero branch before T/2 onto the
    # positive branch after gives deterministic envelopes for the start value
    ens = ensemble(n=50, m=4000, seed=18)
    xi = E.sample_terminal(E.TerminalSpec("indicator",
                                          {"threshold": 0.0, "shift": 0.0}),
                           ens)
    # dt * 32 = 0.64 makes the deepest-level fixed point converge slowly
    sol = S.maximal_solution(S.spec_sqrt(), xi, ens,
                             opts=S.SolverOptions(max_inner=60))
    lower = 0.5 * (1.0 + 0.25)  # mean of branch values (1+T/2-t/2)^2, 0 at t=0
    upper = (math.sqrt(0.5 * 1.5 ** 2 + 0.5 * 0.25) + 0.5) ** 2
    assert lower < sol.y0_mean < upper


@pytest.mark.parametrize("field, value", [
    ("max_inner", 0), ("max_inner", -2), ("degree", 0),
])
def test_solver_options_reject_bad_fields(field, value):
    with pytest.raises(ValueError, match=field):
        S.SolverOptions(**{field: value})
