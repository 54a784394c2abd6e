"""End-to-end acceptance checks, one per contract item.

Each test prints a single [PASS]/[FAIL] line with the measured value and
the stated tolerance, then asserts. Capture is lifted around the print so
the lines stream to the real stdout and land in piped logs.
"""

import math
import os
import time

import numpy as np
import pytest

import peanobsde.cli as cli
from peanobsde.cli import main as cli_main, parse_config
from peanobsde.control import (constant_control, feedback_control,
                               lower_bound_certificate, solve_controlled)
from peanobsde.engine import (Deterministic, TerminalSpec, TimeGrid,
                              conditional_expectation, sample_terminal,
                              simulate_brownian)
from peanobsde.peano import (classify, growth_bound_check, inf_representation,
                             integral_H, make_family, tangent_control)
from peanobsde.solver import (SolutionField, SolverOptions, maximal_solution,
                              multiplicity_family, solve_backward_euler,
                              solve_deterministic_ode, spec_sqrt,
                              with_lipschitz_part, with_monotone_part)
from peanobsde.transform import (EZParams, ez_closed_form, ez_to_special,
                                 solve_special, theta_difference_check)

HERE = os.path.dirname(os.path.abspath(__file__))
CONFIGS = os.path.join(HERE, "..", "configs")

_CAPSYS = None


@pytest.fixture(autouse=True)
def _live_lines(capsys):
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def check(name, value, tolerance, ok):
    tag = "PASS" if ok else "FAIL"
    line = f"[{tag}] {name}: value {value!r}, tolerance {tolerance!r}"
    with _CAPSYS.disabled():
        print(line, flush=True)
    assert ok, line


def sqrt_driver(t, y):
    return math.sqrt(max(y, 0.0))


def exact_parabola_field(grid, paths, terminal=1.0):
    level = (math.sqrt(terminal) + (grid.horizon - grid.nodes) / 2.0) ** 2
    return SolutionField(grid=grid, y=np.tile(level[:, None], (1, paths)),
                         z=np.zeros((grid.steps, paths, 1)),
                         diagnostics={"scheme": "closed_form"})


def test_01_closed_form_square_root_instance():
    started = time.perf_counter()
    det = solve_deterministic_ode(sqrt_driver, 1.0, TimeGrid(1.0, 200))
    det_err = abs(float(det[0]) - 2.25)

    grid = TimeGrid(horizon=1.0, steps=200)
    ens = simulate_brownian(grid, paths=10_000, seed=42)
    sol = solve_backward_euler(spec_sqrt(), np.ones(10_000), ens)
    stoch_rel = abs(sol.y0_mean - 2.25) / 2.25
    wall = time.perf_counter() - started

    check("unit-terminal square-root value 2.25 "
          "(ode error, mc relative error, seconds)",
          (det_err, stoch_rel, round(wall, 2)), (1e-8, 0.01, 60.0),
          det_err <= 1e-8 and stoch_rel <= 0.01 and wall <= 60.0)


def test_02_zero_terminal_multiplicity_family():
    started = time.perf_counter()
    grid = TimeGrid(horizon=1.0, steps=200)
    dt = grid.dt
    worst_resid = 0.0
    for c in (0.0, 0.25, 0.5, 1.0):
        curve = multiplicity_family(c, grid)
        assert curve[-1] == 0.0
        assert abs(curve[0] - c * c / 4.0) <= 4.0 * dt * dt
        root = np.sqrt(curve)
        resid = np.abs(np.diff(curve) + dt * 0.5 * (root[:-1] + root[1:]))
        worst_resid = max(worst_resid, float(resid.max()))

    top = maximal_solution(spec_sqrt(), np.zeros(2), Deterministic(grid, 2),
                           n_schedule=(2, 4, 8, 16, 32))
    y0 = top.y0_mean
    wall = time.perf_counter() - started

    check("zero-terminal solution family (worst step residual, "
          "largest-solution value, seconds)",
          (worst_resid, y0, round(wall, 2)),
          (4.0 * dt * dt, (0.24, 0.26), 60.0),
          worst_resid <= 4.0 * dt * dt and 0.24 <= y0 <= 0.26
          and wall <= 60.0)


def test_03_constant_and_feedback_control_bounds():
    grid = TimeGrid(horizon=1.0, steps=400)
    paths = 8
    ens = Deterministic(grid, paths)
    xi = np.ones(paths)
    spec = spec_sqrt()
    primal = exact_parabola_field(grid, paths)

    uppers = {}
    for q in (0.3, 0.4, 0.5, 0.6):
        ctrl = constant_control(grid, paths=paths, value=q)
        uppers[q] = float(solve_controlled(spec, ctrl, xi, ens)
                          .y[0].mean())
    fb = feedback_control(spec, primal)
    fb_value = float(solve_controlled(spec, fb, xi, ens).y[0].mean())

    floor_margin = min(min(uppers.values()), fb_value) - (2.25 - 1e-3)
    const_excess = min(v - 2.25 for v in uppers.values())
    fb_gap = abs(fb_value - 2.25)

    check("controlled values dominate the primal "
          "(floor margin, constant excess, feedback gap)",
          (floor_margin, const_excess, fb_gap), (0.0, 1e-2, 1e-3),
          floor_margin >= 0.0 and const_excess >= 1e-2 and fb_gap <= 1e-3)


def test_04_pathwise_lower_bound_certificate():
    grid = TimeGrid(horizon=1.0, steps=100)
    ens = simulate_brownian(grid, paths=10_000, seed=13)
    xi = sample_terminal(TerminalSpec("lognormal",
                                      {"mean": 1.0, "sigma": 0.5}), ens)
    # quartic basis on both sides: an odd leading term biases the tail
    # fit low exactly where the bound's slack vanishes near the horizon
    sol = solve_backward_euler(spec_sqrt(), xi, ens, SolverOptions(degree=4))
    cert = lower_bound_certificate(spec_sqrt(), xi, ens, sol, degree=4)

    det_cert = lower_bound_certificate(spec_sqrt(), np.ones(2),
                                       Deterministic(grid, 2),
                                       exact_parabola_field(grid, 2))

    check("pathwise lower bound (worst kept violation, excluded fraction, "
          "deterministic tightness)",
          (cert.worst_violation, cert.excluded_fraction,
           det_cert.tight_error),
          (1e-9, 0.02, 1e-6),
          cert.passed and cert.worst_violation <= 1e-9
          and cert.excluded_fraction <= 0.02
          and det_cert.tight_error <= 1e-6)


def test_05_two_route_transform_equivalence():
    cfg = parse_config(os.path.join(CONFIGS, "transform_crosscheck.ini"))
    result = cli._scenario_transform(cfg)
    by_name = {v.name: v for v in result.verdicts}
    det = next(v for n, v in by_name.items() if n.startswith("deterministic"))
    stoch = next(v for n, v in by_name.items()
                 if n.startswith("stochastic interior"))
    excl = next(v for n, v in by_name.items()
                if n.startswith("boundary-leverage"))

    check("two-route agreement over the six-instance matrix "
          "(det sup, interior relative, excluded fraction)",
          (det.value, stoch.value, excl.value), (1e-3, 0.02, 0.02),
          det.passed and stoch.passed and excl.passed)


def test_06_convexity_difference_inequality():
    thetas = (0.5, 0.9, 0.99)
    worst = 0.0
    for alpha in (0.25, 0.5, 0.75):
        sg = cli._matrix_instance(alpha, "k1_only")
        rep = theta_difference_check(sg, thetas, sample_budget=100_000,
                                     seed=0)
        worst = max(worst, rep["max_violation"])

    intruder = theta_difference_check(
        lambda t, y, z: np.sqrt(np.clip(y, 0.0, None)), thetas,
        sample_budget=20_000, seed=1)

    check("one-sided convexity comparison "
          "(max violation, concave-control violation)",
          (worst, intruder["max_violation"]), (1e-9, 1e-2),
          worst <= 1e-9 and intruder["max_violation"] >= 1e-2)


def test_07_recursive_utility_value():
    ez = EZParams(beta=1.0, c=1.0, rho=0.5)
    closed = ez_closed_form(ez, 4.0, 0.0)
    pinned_rel = abs(closed - 3.168) / 3.168

    def aggregator(t, y):
        yy = max(y, 0.0)
        return (ez.rho / ez.beta) * (ez.c ** ez.rho * yy ** (1.0 - ez.rho)
                                     - yy)
    rk = solve_deterministic_ode(aggregator, 4.0, TimeGrid(1.0, 800))
    rk_err = abs(float(rk[0]) - closed)

    sg = ez_to_special(ez)
    grid = TimeGrid(horizon=1.0, steps=800)
    ens = Deterministic(grid, 2)
    res = solve_special(sg, np.full(2, 4.0), ens)
    solver_err = abs(res.direct.y0_mean - closed)

    stat = solve_special(sg, np.full(2, ez.c), ens)
    stationary_err = abs(stat.direct.y0_mean - ez.c)

    check("aggregator value via the power substitution "
          "(pinned relative error, integrator error, solver error, "
          "stationary error)",
          (pinned_rel, rk_err, solver_err, stationary_err),
          (0.01, 1e-9, 1e-3, 1e-8),
          pinned_rel <= 0.01 and rk_err <= 1e-9 and solver_err <= 1e-3
          and stationary_err <= 1e-8)


def test_08_modulus_classification_and_properties():
    expected = {"rho1": "lipschitz", "rho2": "osgood", "rho3": "osgood",
                "rho4": "peano", "rho5": "peano", "rho6": "peano",
                "rho7": "peano", "rho8": "peano", "rho9": "peano",
                "rho10": "peano"}
    labels_ok = all(classify(make_family(name)).label == want
                    for name, want in expected.items())

    rng = np.random.default_rng(17)
    worst_sweep = 0.0
    for name in expected:
        fn = make_family(name)
        x = rng.uniform(0.0, 50.0, 10_000)
        y = rng.uniform(0.0, 50.0, 10_000)
        dom = np.abs(fn(x) - fn(y)) - fn(np.abs(x - y))
        worst_sweep = max(worst_sweep, float(
            (dom / np.maximum(1.0, fn(np.abs(x - y)))).max()))

        lam = rng.uniform(0.0, 1.0, 10_000)
        xs = rng.uniform(1e-6, 100.0, 10_000)
        sup = lam * fn(xs) - fn(lam * xs)
        worst_sweep = max(worst_sweep, float(
            (sup / np.maximum(1.0, fn(xs))).max()))

        gr = np.geomspace(1e-8, 1e3, 10_000)
        ratio = fn(gr) / gr
        worst_sweep = max(worst_sweep, float(
            (np.diff(ratio) / ratio[:-1]).max()))

    worst_biconj = 0.0
    for k, alpha in ((1.0, 0.5), (2.0, 0.25), (0.5, 0.75)):
        fn = make_family("rho6", k=k, alpha=alpha)
        for x in np.geomspace(1e-6, 1e3, 40):
            grid = list(np.geomspace(1e-4, 1e4, 17)) + \
                [tangent_control(fn, float(x))]
            rep = inf_representation(fn, float(x), grid)
            worst_biconj = max(worst_biconj,
                               abs(rep - float(fn(x)))
                               / max(float(fn(x)), 1e-30))

    growth_ok = True
    for name in expected:
        fn = make_family(name)
        for trial in range(5):
            c = float(rng.uniform(0.05, 1.0))
            k1 = integral_H(fn, c, 1.0) + float(rng.uniform(0.0, 2.0))
            rep = growth_bound_check(fn, c, k1,
                                     float(rng.uniform(0.05, 2.0)),
                                     float(rng.uniform(0.05, 2.0)))
            growth_ok = growth_ok and rep.passed

    check("modulus catalogue (classes exact, sweep violation, "
          "biconjugacy error, growth domination)",
          (labels_ok, worst_sweep, worst_biconj, growth_ok),
          (True, 1e-9, 1e-9, True),
          labels_ok and worst_sweep <= 1e-9 and worst_biconj <= 1e-9
          and growth_ok)


def test_09_comparison_monotonicity_three_decompositions():
    grid = TimeGrid(horizon=1.0, steps=50)
    ens = simulate_brownian(grid, paths=3000, seed=6)
    xi_low = sample_terminal(TerminalSpec("lognormal",
                                          {"mean": 1.0, "sigma": 0.5}), ens)
    xi_high = xi_low + 0.5

    def fbar(t, y):
        return np.clip(1.0 - np.sqrt(np.clip(y, 0.0, None)), 0.0, None)

    def fz(t, y, z):
        return 0.5 * y + 0.25 * np.linalg.norm(z, axis=-1)

    specs = {
        "concave": spec_sqrt(),
        "concave+monotone": with_monotone_part(spec_sqrt(), fbar,
                                               beta_bar=0.0,
                                               cap_fn=lambda t: 1.0),
        "concave+monotone+lipschitz": with_lipschitz_part(
            spec_sqrt(), fz, beta_tilde=0.5, gamma=0.25),
    }
    worst_margin = np.inf
    for spec in specs.values():
        hi = solve_backward_euler(spec, xi_high, ens)
        lo = solve_backward_euler(spec, xi_low, ens)
        diff = hi.y - lo.y
        for i in range(grid.steps):
            _, info = conditional_expectation(ens, hi.y[i + 1] - lo.y[i + 1],
                                              i, full_output=True)
            se = info.residual_std * np.sqrt(np.maximum(info.leverage, 0.0))
            worst_margin = min(worst_margin,
                               float((diff[i] + 3.0 * se).min()))
        worst_margin = min(worst_margin, float(diff[-1].min()))

    check("shifted terminal keeps the solution above, three driver "
          "decompositions (worst pathwise margin with 3 SE)",
          worst_margin, 0.0, worst_margin >= 0.0)


def test_10_csv_reproducibility(tmp_path):
    cfg = os.path.join(CONFIGS, "uniqueness_convergence.ini")
    a = str(tmp_path / "a")
    b = str(tmp_path / "b")
    assert cli_main(["run", "--config", cfg, "--out", a]) == 0
    assert cli_main(["run", "--config", cfg, "--out", b]) == 0

    names = sorted(n for n in os.listdir(a) if n.endswith(".csv"))
    assert names
    identical = 0
    for name in names:
        with open(os.path.join(a, name), "rb") as fh:
            blob_a = fh.read()
        with open(os.path.join(b, name), "rb") as fh:
            blob_b = fh.read()
        identical += int(blob_a == blob_b)

    check("rerun reproduces every CSV byte for byte "
          "(identical files / total)",
          (identical, len(names)), "all",
          identical == len(names))
