"""Config-driven experiment runner.

Seven named scenarios bind the modulus library, the path engine, the
backward solvers, the control machinery, and the power transform into
reproducible batch runs. Configs are flat INI files; outputs are CSV tables
(floats via repr, so reruns diff byte for byte) plus a JSON report whose
verdicts each name the invariant and the tolerance they tested.

Exit codes: 0 all verdicts pass, 1 some verdict failed, 2 config parse
error, 3 audit failure, 4 solver failure.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from .control import (constant_control, duality_gap, lower_bound_certificate)
from .engine import (Deterministic, TerminalSpec, TimeGrid, sample_terminal,
                     simulate_brownian)
from .peano import FAMILY_NAMES, classify, make_family
from .solver import (GeneratorSpec, SolutionField, SolverError, SolverOptions,
                     assumption_audit, maximal_solution, multiplicity_family,
                     solve_backward_euler, solve_deterministic_ode,
                     spec_from_family, spec_power, spec_sqrt,
                     spec_sqrt_plus_time, spec_zero, with_lipschitz_part)
from .transform import (EZParams, SpecialGenerator, ez_closed_form,
                        ez_to_special, solve_special, theta_difference_check)

__all__ = [
    "ConfigError",
    "AuditFailureError",
    "Verdict",
    "ExperimentConfig",
    "ScenarioResult",
    "SCENARIO_ORDER",
    "parse_config",
    "build_generator",
    "build_terminal",
    "list_scenarios",
    "validate",
    "run",
    "main",
    "EXIT_OK",
    "EXIT_VERDICT",
    "EXIT_CONFIG",
    "EXIT_AUDIT",
    "EXIT_SOLVER",
]

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_CONFIG = 2
EXIT_AUDIT = 3
EXIT_SOLVER = 4


class ConfigError(Exception):
    pass


class AuditFailureError(Exception):
    pass


@dataclass
class Verdict:
    name: str         # states the invariant, with its tolerance
    value: float
    tolerance: float
    passed: bool

    def as_dict(self) -> dict:
        return {"name": self.name, "value": self.value,
                "tolerance": self.tolerance, "passed": self.passed}

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return (f"[{tag}] {self.name}: value {self.value!r}, "
                f"tolerance {self.tolerance!r}")


@dataclass
class ExperimentConfig:
    scenario: str
    generator: dict
    terminal: dict
    horizon: float
    steps: int
    paths: int
    dim: int
    seed: int
    params: dict
    out_dir: str

    def grid(self) -> TimeGrid:
        return TimeGrid(horizon=self.horizon, steps=self.steps)


@dataclass
class ScenarioResult:
    verdicts: list
    tables: dict = field(default_factory=dict)  # name -> (header, rows)
    summary: dict = field(default_factory=dict)


# the catalogue order is the contract: reports and listings never reshuffle
SCENARIO_ORDER = (
    "uniqueness_convergence",
    "multiplicity_zoo",
    "duality_frontier",
    "transform_crosscheck",
    "ez_utility",
    "assumption_audit",
    "lower_bound",
)

SCENARIO_ANCHORS = {
    "uniqueness_convergence":
        "square-root driver with unit terminal: Y(t) = (1 + (T-t)/2)^2, "
        "Y0 = 2.25",
    "multiplicity_zoo":
        "zero-terminal square-root equation: every y(t) = ((c-t)^+)^2/4 "
        "solves it",
    "duality_frontier":
        "constant-control values e^{qT} + (e^{qT}-1)/(4q^2) stay above the "
        "primal value",
    "transform_crosscheck":
        "discounting plus the power map u^{1-a}/(1-a) turns the concave "
        "power driver into a convex one",
    "ez_utility":
        "u = y^rho linearizes the aggregator: u(t) = c^rho + "
        "(xi^rho - c^rho) e^{-(rho^2/beta)(T-t)}",
    "assumption_audit":
        "ten moduli: one Lipschitz, two with convergent reciprocal integral, "
        "seven divergent",
    "lower_bound":
        "floor = inverse reciprocal-integral transform of the conditional "
        "mean plus remaining time",
}


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def _as_float(section: str, key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key} = {raw!r} is not a number")


def _as_int(section: str, key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key} = {raw!r} is not an integer")


def parse_config(path: str, seed_override: int | None = None,
                 out_override: str | None = None) -> ExperimentConfig:
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}")
    if not read:
        raise ConfigError(f"config file not found: {path}")

    if not parser.has_section("scenario") or \
            not parser.has_option("scenario", "name"):
        raise ConfigError("missing [scenario] name")
    scenario = parser.get("scenario", "name").strip()
    if scenario not in SCENARIO_ORDER:
        raise ConfigError(f"unknown scenario {scenario!r}; valid: "
                          f"{', '.join(SCENARIO_ORDER)}")

    generator = dict(parser.items("generator")) \
        if parser.has_section("generator") else {}
    terminal = dict(parser.items("terminal")) \
        if parser.has_section("terminal") else {}

    horizon = 1.0
    steps = 200
    if parser.has_section("grid"):
        if parser.has_option("grid", "horizon"):
            horizon = _as_float("grid", "horizon",
                                parser.get("grid", "horizon"))
        if parser.has_option("grid", "steps"):
            steps = _as_int("grid", "steps", parser.get("grid", "steps"))
    if horizon <= 0.0 or steps < 1:
        raise ConfigError(f"bad grid: horizon {horizon}, steps {steps}")

    paths, dim, seed = 4000, 1, 0
    if parser.has_section("ensemble"):
        ens = dict(parser.items("ensemble"))
        if "paths" in ens:
            paths = _as_int("ensemble", "paths", ens["paths"])
        if "dim" in ens:
            dim = _as_int("ensemble", "dim", ens["dim"])
        if "seed" in ens:
            seed = _as_int("ensemble", "seed", ens["seed"])
    if seed_override is not None:
        seed = seed_override
    if not 0 <= seed < 2 ** 64:
        raise ConfigError(f"seed must be an unsigned 64-bit value, "
                          f"got {seed}")
    if paths < 1 or not 1 <= dim <= 8:
        raise ConfigError(f"bad ensemble: paths {paths}, dim {dim}")

    out_dir = f"out/{scenario}"
    if parser.has_option("output", "dir"):
        out_dir = parser.get("output", "dir")
    if out_override is not None:
        out_dir = out_override

    params = dict(parser.items("params")) \
        if parser.has_section("params") else {}

    return ExperimentConfig(scenario=scenario, generator=generator,
                            terminal=terminal, horizon=horizon, steps=steps,
                            paths=paths, dim=dim, seed=seed, params=params,
                            out_dir=out_dir)


def build_generator(generator: dict) -> GeneratorSpec:
    """GeneratorSpec from the [generator] section.

    family selects a builder; an optional gradient term gradient_coeff*|z|
    can be attached, with declared_gamma available to understate the true
    modulus (the audit is expected to catch that).
    """
    g = dict(generator)
    family = g.pop("family", "sqrt").strip()
    grad = g.pop("gradient_coeff", None)
    declared_gamma = g.pop("declared_gamma", None)
    declared_beta_tilde = g.pop("declared_beta_tilde", None)
    numeric = {}
    for key, raw in g.items():
        numeric[key] = _as_float("generator", key, raw)
    try:
        if family == "sqrt":
            spec = spec_sqrt()
        elif family == "sqrt_plus_time":
            spec = spec_sqrt_plus_time()
        elif family == "zero":
            spec = spec_zero()
        elif family == "power":
            spec = spec_power(k=numeric.pop("k", 1.0),
                              alpha=numeric.pop("alpha", 0.5))
        elif family in FAMILY_NAMES:
            spec = spec_from_family(family, **numeric)
        else:
            raise ConfigError(f"unknown generator family {family!r}")
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError(f"generator family {family!r}: {exc}")
    if grad is not None:
        coeff = _as_float("generator", "gradient_coeff", grad)
        gamma = coeff if declared_gamma is None else \
            _as_float("generator", "declared_gamma", declared_gamma)
        beta_tilde = 0.0 if declared_beta_tilde is None else \
            _as_float("generator", "declared_beta_tilde",
                      declared_beta_tilde)
        spec = with_lipschitz_part(
            spec,
            lambda t, y, z, _c=coeff: _c * np.linalg.norm(z, axis=-1),
            beta_tilde=beta_tilde, gamma=gamma)
    return spec


def build_terminal(terminal: dict) -> TerminalSpec:
    t = dict(terminal)
    kind = t.pop("kind", "constant").strip()
    params = {k: _as_float("terminal", k, v) for k, v in t.items()}
    try:
        return TerminalSpec(kind, params)
    except ValueError as exc:
        raise ConfigError(f"terminal spec: {exc}")


def _param_float(cfg: ExperimentConfig, key: str, default: float) -> float:
    if key not in cfg.params:
        return default
    return _as_float("params", key, cfg.params[key])


def _param_int(cfg: ExperimentConfig, key: str, default: int) -> int:
    if key not in cfg.params:
        return default
    return _as_int("params", key, cfg.params[key])


def _param_list(cfg: ExperimentConfig, key: str, default: str) -> list:
    raw = cfg.params.get(key, default)
    try:
        return [float(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(f"[params] {key} = {raw!r} is not a number list")


def _sqrt_closed_form(cfg: ExperimentConfig) -> float | None:
    """Exact value when the instance is the square-root one, else None."""
    family = cfg.generator.get("family", "sqrt").strip()
    kind = cfg.terminal.get("kind", "constant").strip()
    if family != "sqrt" or kind != "constant" or \
            "gradient_coeff" in cfg.generator:
        return None
    v = _as_float("terminal", "value", cfg.terminal.get("value", "1.0"))
    return (math.sqrt(v) + cfg.horizon / 2.0) ** 2


def _exact_sqrt_field(grid: TimeGrid, terminal: float,
                      dim: int) -> SolutionField:
    """The square-root equation's closed-form solution on one copy."""
    level = (math.sqrt(terminal) + (grid.horizon - grid.nodes) / 2.0) ** 2
    return SolutionField(grid=grid, y=level[:, None],
                         z=np.zeros((grid.steps, 1, dim)),
                         diagnostics={"scheme": "closed_form"})


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------

def _scenario_uniqueness(cfg: ExperimentConfig) -> ScenarioResult:
    spec = build_generator(cfg.generator)
    term = build_terminal(cfg.terminal)
    table_steps = [int(n) for n in
                   _param_list(cfg, "steps_table", "25,50,100,200")]
    det_tol = _param_float(cfg, "det_tolerance", 1e-8)
    stoch_tol = _param_float(cfg, "stochastic_tolerance", 0.01)
    reference = cfg.params.get("reference_y0")
    ref = float(reference) if reference is not None \
        else _sqrt_closed_form(cfg)

    fine = TimeGrid(horizon=cfg.horizon, steps=max(table_steps))

    def g_scalar(t, y):
        return float(spec(t, np.array([max(y, 0.0)]),
                          np.zeros((1, cfg.dim)))[0])

    ode_y0 = float(solve_deterministic_ode(g_scalar, _terminal_constant(cfg),
                                           fine)[0])

    rows = []
    stoch_last = None
    det_errs = []
    for n in sorted(table_steps):
        grid = TimeGrid(horizon=cfg.horizon, steps=n)
        ens = simulate_brownian(grid, paths=cfg.paths, dim=cfg.dim,
                                seed=cfg.seed)
        xi = sample_terminal(term, ens)
        stoch = solve_backward_euler(spec, xi, ens).y0_mean
        det = solve_backward_euler(spec, _terminal_constant(cfg),
                                   Deterministic(grid, dim=cfg.dim)).y0_mean
        rows.append((n, stoch, det, ode_y0))
        stoch_last = stoch
        if ref is not None:
            det_errs.append(abs(det - ref))

    verdicts = []
    if ref is not None:
        verdicts.append(Verdict(
            name=f"deterministic ODE value within {det_tol!r} of the "
                 f"closed form {ref!r}",
            value=abs(ode_y0 - ref), tolerance=det_tol,
            passed=abs(ode_y0 - ref) <= det_tol))
        rel = abs(stoch_last - ref) / abs(ref)
        verdicts.append(Verdict(
            name=f"stochastic Y0 at N={max(table_steps)} within "
                 f"{stoch_tol:.0%} of the closed form",
            value=rel, tolerance=stoch_tol, passed=rel <= stoch_tol))
        verdicts.append(Verdict(
            name="deterministic Euler error does not grow from the coarsest "
                 "to the finest grid",
            value=det_errs[-1] - det_errs[0], tolerance=0.0,
            passed=det_errs[-1] <= det_errs[0] + 1e-12))

    header = ["steps", "y0_stochastic", "y0_deterministic", "y0_ode"]
    return ScenarioResult(
        verdicts=verdicts,
        tables={"convergence": (header, rows)},
        summary={"reference_y0": ref, "ode_y0": ode_y0,
                 "y0_finest": stoch_last})


def _terminal_constant(cfg: ExperimentConfig) -> float:
    kind = cfg.terminal.get("kind", "constant").strip()
    if kind == "zero":
        return 0.0
    if kind != "constant":
        raise ConfigError(f"this check needs a constant terminal, "
                          f"got {kind!r}")
    return _as_float("terminal", "value", cfg.terminal.get("value", "1.0"))


def _scenario_multiplicity(cfg: ExperimentConfig) -> ScenarioResult:
    kind = cfg.terminal.get("kind", "zero").strip()
    if kind not in ("zero", "constant") or \
            (kind == "constant" and _terminal_constant(cfg) != 0.0):
        raise ConfigError("the multiplicity family needs zero terminal data")
    c_grid = _param_list(cfg, "c_grid", "0,0.25,0.5,1")
    schedule = tuple(int(v) for v in
                     _param_list(cfg, "maximal_levels", "2,4,8,16,32"))
    lo = _param_float(cfg, "bracket_low", 0.24)
    hi = _param_float(cfg, "bracket_high", 0.26)
    grid = cfg.grid()
    dt = grid.dt

    rows = []
    worst_resid = 0.0
    for c in c_grid:
        y = multiplicity_family(c, grid)
        mid = 0.5 * (grid.nodes[:-1] + grid.nodes[1:])
        resid = float(np.max(np.abs(
            y[:-1] - y[1:] - 0.5 * np.clip(c - mid, 0.0, None) * dt))) \
            if grid.steps else 0.0
        worst_resid = max(worst_resid, resid)
        rows.append((c, float(y[0]), resid))

    spec = spec_sqrt()
    # integrating upward from zero data stays on the zero branch; the
    # implicit Euler iteration would drift to the positive one instead
    minimal = solve_deterministic_ode(
        lambda t, v: math.sqrt(max(v, 0.0)), 0.0, grid)
    minimal_sup = float(np.max(np.abs(minimal)))
    extremal = maximal_solution(
        spec, 0.0, Deterministic(grid, dim=cfg.dim),
        n_schedule=schedule, opts=SolverOptions(max_inner=60))
    level_rows = list(zip(extremal.diagnostics["schedule"],
                          extremal.diagnostics["y0_by_level"]))

    verdicts = [
        Verdict(name=f"family quadrature residual is second order "
                     f"(<= 4 dt^2 = {4 * dt * dt!r})",
                value=worst_resid, tolerance=4 * dt * dt,
                passed=worst_resid <= 4 * dt * dt),
        Verdict(name="minimal solution is identically zero (tolerance 1e-12)",
                value=minimal_sup, tolerance=1e-12,
                passed=minimal_sup <= 1e-12),
        Verdict(name=f"maximal-solution limit Y0 inside [{lo!r}, {hi!r}] "
                     f"at level {schedule[-1]}",
                value=extremal.y0_mean, tolerance=hi - lo,
                passed=lo <= extremal.y0_mean <= hi),
    ]
    return ScenarioResult(
        verdicts=verdicts,
        tables={"family": (["c_param", "y0", "residual_max"], rows),
                "envelope_levels": (["level", "y0"], level_rows)},
        summary={"maximal_y0": extremal.y0_mean,
                 "minimal_sup": minimal_sup,
                 "extrapolated": extremal.diagnostics["extrapolated"]})


def _scenario_duality(cfg: ExperimentConfig) -> ScenarioResult:
    spec = build_generator(cfg.generator)
    q_grid = _param_list(cfg, "control_grid", "0.3,0.4,0.5,0.6")
    weak_tol = _param_float(cfg, "weak_tolerance", 1e-3)
    excess = _param_float(cfg, "strict_excess", 1e-2)
    fb_tol = _param_float(cfg, "feedback_tolerance", 1e-3)
    grid = cfg.grid()
    ens = Deterministic(grid, dim=cfg.dim)
    xi = _terminal_constant(cfg)

    ref = _sqrt_closed_form(cfg)
    primal = (_exact_sqrt_field(grid, xi, cfg.dim)
              if ref is not None else None)

    family = [constant_control(grid, 1, q) for q in q_grid]
    family.append("feedback")
    report = duality_gap(spec, xi, ens, family, primal=primal)

    const_gaps = [report.y0_per_control[f"q={q}"] - report.y0_primal
                  for q in q_grid]
    rows = [(label, value, value - report.y0_primal)
            for label, value in sorted(report.y0_per_control.items())]

    verdicts = [
        Verdict(name=f"weak duality: every controlled value >= primal - "
                     f"{weak_tol!r}",
                value=report.gap_min, tolerance=weak_tol,
                passed=report.gap_min >= -weak_tol),
        Verdict(name=f"constant controls exceed the primal value by >= "
                     f"{excess!r}",
                value=min(const_gaps), tolerance=excess,
                passed=min(const_gaps) >= excess),
        Verdict(name=f"feedback control reproduces the primal value within "
                     f"{fb_tol!r}",
                value=report.feedback_match_error, tolerance=fb_tol,
                passed=report.feedback_match_error <= fb_tol),
    ]
    return ScenarioResult(
        verdicts=verdicts,
        tables={"frontier": (["control", "value", "gap_vs_primal"], rows)},
        summary=report.to_dict())


_MATRIX_PATTERNS = ("k1_only", "all_terms")


def _matrix_instance(alpha: float, pattern: str) -> SpecialGenerator:
    if pattern == "k1_only":
        return SpecialGenerator(alpha=alpha, c=1.0, k1=1.0,
                                label=f"a{alpha}-k1")
    return SpecialGenerator(alpha=alpha, c=1.0, k1=0.5, k2=-0.25, k3=0.25,
                            k4=0.5, label=f"a{alpha}-full")


def _scenario_transform(cfg: ExperimentConfig) -> ScenarioResult:
    alphas = _param_list(cfg, "alphas", "0.25,0.5,0.75")
    det_steps = _param_int(cfg, "det_steps", 800)
    det_tol = _param_float(cfg, "det_tolerance", 1e-3)
    stoch_tol = _param_float(cfg, "stochastic_tolerance", 0.02)
    excl_tol = _param_float(cfg, "exclusion_tolerance", 0.02)

    det_grid = TimeGrid(horizon=cfg.horizon, steps=det_steps)
    det_ens = Deterministic(det_grid, dim=cfg.dim)
    stoch_grid = cfg.grid()
    stoch_ens = simulate_brownian(stoch_grid, paths=cfg.paths, dim=cfg.dim,
                                  seed=cfg.seed)

    rows = []
    worst_det = worst_rel = worst_excl = 0.0
    for alpha in alphas:
        sigma = 0.25 if alpha >= 0.7 else 0.5
        xi = sample_terminal(TerminalSpec("lognormal",
                                          {"mean": 1.0, "sigma": sigma}),
                             stoch_ens)
        for pattern in _MATRIX_PATTERNS:
            sg = _matrix_instance(alpha, pattern)
            det = solve_special(sg, 1.0, det_ens)
            stoch = solve_special(sg, xi, stoch_ens)
            worst_det = max(worst_det, det.max_discrepancy)
            worst_rel = max(worst_rel, stoch.interior_relative_gap)
            worst_excl = max(worst_excl, stoch.excluded_fraction)
            rows.append((sg.label, alpha, det.direct.y0_mean,
                         det.max_discrepancy, stoch.direct.y0_mean,
                         stoch.via_transform.y0_mean,
                         stoch.max_discrepancy, stoch.interior_discrepancy,
                         stoch.interior_relative_gap,
                         stoch.excluded_fraction))

    # one-sided convexity sweep on the power-only instances; the pure
    # concave square root is the negative control
    theta_budget = _param_int(cfg, "theta_budget", 100_000)
    thetas = tuple(_param_list(cfg, "theta_grid", "0.5,0.9,0.99"))
    worst_theta = 0.0
    for alpha in alphas:
        rep = theta_difference_check(_matrix_instance(alpha, "k1_only"),
                                     thetas, sample_budget=theta_budget,
                                     seed=cfg.seed)
        worst_theta = max(worst_theta, rep["max_violation"])
    intruder = theta_difference_check(
        lambda t, y, z: np.sqrt(y), thetas, sample_budget=theta_budget,
        seed=cfg.seed)["max_violation"]

    verdicts = [
        Verdict(name=f"deterministic two-route sup discrepancy <= "
                     f"{det_tol!r} on every instance",
                value=worst_det, tolerance=det_tol,
                passed=worst_det <= det_tol),
        Verdict(name=f"stochastic interior discrepancy <= {stoch_tol:.0%} "
                     f"of Y0 on every instance",
                value=worst_rel, tolerance=stoch_tol,
                passed=worst_rel <= stoch_tol),
        Verdict(name=f"boundary-leverage exclusions <= {excl_tol:.0%} of "
                     f"path-nodes",
                value=worst_excl, tolerance=excl_tol,
                passed=worst_excl <= excl_tol),
        Verdict(name="one-sided convexity violation <= 1e-09 over the "
                     "theta sweep",
                value=worst_theta, tolerance=1e-9,
                passed=worst_theta <= 1e-9),
        Verdict(name="concave negative control violates the comparison "
                     "by >= 0.01",
                value=intruder, tolerance=1e-2, passed=intruder >= 1e-2),
    ]
    header = ["instance", "alpha", "y0_det", "det_discrepancy",
              "y0_stoch_direct", "y0_stoch_transform", "stoch_raw_sup",
              "stoch_interior_sup", "stoch_interior_rel",
              "excluded_fraction"]
    return ScenarioResult(
        verdicts=verdicts,
        tables={"matrix": (header, rows)},
        summary={"worst_det": worst_det, "worst_interior_rel": worst_rel,
                 "worst_excluded_fraction": worst_excl,
                 "worst_theta_violation": worst_theta,
                 "intruder_violation": intruder})


def _ez_from_params(cfg: ExperimentConfig) -> tuple:
    beta = _param_float(cfg, "beta", 1.0)
    c = _param_float(cfg, "c", 1.0)
    rho = _param_float(cfg, "rho", 0.5)
    xi = _param_float(cfg, "xi", 4.0)
    return EZParams(beta=beta, c=c, rho=rho), xi


def _scenario_ez(cfg: ExperimentConfig) -> ScenarioResult:
    ez, xi_const = _ez_from_params(cfg)
    pct = _param_float(cfg, "tolerance_pct", 0.01)
    stat_tol = _param_float(cfg, "stationary_tolerance", 1e-8)
    det_steps = _param_int(cfg, "det_steps", 800)

    closed = ez_closed_form(ez, xi_const, 0.0, cfg.horizon)
    grid = TimeGrid(horizon=cfg.horizon, steps=det_steps)
    res = solve_special(ez_to_special(ez), xi_const,
                        Deterministic(grid, dim=cfg.dim))

    # fourth-order integration as an independent cross-check
    check_grid = TimeGrid(horizon=cfg.horizon, steps=64)

    def g(t, y):
        y = max(y, 0.0)
        return (ez.rho / ez.beta) * (ez.c ** ez.rho * y ** (1 - ez.rho) - y)

    rk_path = solve_deterministic_ode(g, xi_const, check_grid)
    curve = np.array([ez_closed_form(ez, xi_const, t, cfg.horizon)
                      for t in check_grid.nodes])
    rk_err = float(np.max(np.abs(rk_path - curve)))

    stationary_err = abs(ez_closed_form(ez, ez.c, 0.0, cfg.horizon) - ez.c) \
        if ez.c > 0.0 else 0.0
    rel = abs(res.direct.y0_mean - closed) / abs(closed)

    verdicts = [
        Verdict(name=f"deterministic value within {pct:.0%} of the "
                     f"substitution closed form {closed!r}",
                value=rel, tolerance=pct, passed=rel <= pct),
        Verdict(name=f"stationary endowment xi = c reproduces itself within "
                     f"{stat_tol!r}",
                value=stationary_err, tolerance=stat_tol,
                passed=stationary_err <= stat_tol),
        Verdict(name="fourth-order integration matches the closed form "
                     "within 1e-09",
                value=rk_err, tolerance=1e-9, passed=rk_err <= 1e-9),
        Verdict(name="two-route discrepancy <= 0.001 on the aggregator "
                     "instance",
                value=res.max_discrepancy, tolerance=1e-3,
                passed=res.max_discrepancy <= 1e-3),
    ]
    rows = list(zip([float(t) for t in check_grid.nodes],
                    [float(v) for v in curve],
                    [float(v) for v in rk_path]))
    return ScenarioResult(
        verdicts=verdicts,
        tables={"utility_curve": (["t", "closed_form", "integrated"], rows)},
        summary={"closed_form_y0": closed, "solver_y0": res.direct.y0_mean,
                 "relative_error": rel})


_EXPECTED_CLASS = {name: ("lipschitz" if name == "rho1" else
                          "osgood" if name in ("rho2", "rho3") else "peano")
                   for name in FAMILY_NAMES}


def _scenario_audit(cfg: ExperimentConfig) -> ScenarioResult:
    budget = _param_int(cfg, "sample_budget", 4000)
    rows = []
    mismatches = 0
    worst_slack = -math.inf
    for name in FAMILY_NAMES:
        rho = make_family(name)
        got = classify(rho).label
        expected = _EXPECTED_CLASS[name]
        mismatches += int(got != expected)
        report = assumption_audit(spec_from_family(name),
                                  sample_budget=budget)
        _, slack = report.worst
        worst_slack = max(worst_slack, slack)
        rows.append((name, expected, got, slack, report.passed))

    spec = build_generator(cfg.generator)
    own = assumption_audit(spec, sample_budget=budget)
    own_name, own_slack = own.worst

    verdicts = [
        Verdict(name="classification matches the expected class for all "
                     "ten moduli (0 mismatches)",
                value=float(mismatches), tolerance=0.0,
                passed=mismatches == 0),
        Verdict(name="decomposition audit passes for all ten moduli "
                     "(worst slack <= 1e-09)",
                value=worst_slack, tolerance=1e-9,
                passed=worst_slack <= 1e-9),
        Verdict(name=f"configured generator passes its audit (worst "
                     f"inequality: {own_name})",
                value=own_slack, tolerance=1e-9, passed=own.passed),
    ]
    return ScenarioResult(
        verdicts=verdicts,
        tables={"families": (["family", "expected_class", "class",
                              "worst_slack", "audit_passed"], rows)},
        summary={"mismatches": mismatches, "worst_slack": worst_slack,
                 "generator_slack": own_slack})


def _regression_degree(cfg: ExperimentConfig) -> int:
    # even basis degree: the lognormal conditional mean is convex in the
    # state, and an odd leading term biases the tail fit low right where
    # the bound's slack vanishes
    degree = _param_int(cfg, "regression_degree", 4)
    if degree < 1:
        raise ConfigError(f"[params] regression_degree must be >= 1, "
                          f"got {degree}")
    return degree


def _scenario_lower_bound(cfg: ExperimentConfig) -> ScenarioResult:
    spec = build_generator(cfg.generator)
    term = build_terminal(cfg.terminal)
    tight_tol = _param_float(cfg, "tight_tolerance", 1e-6)
    excl_tol = _param_float(cfg, "exclusion_tolerance", 0.02)
    sigma_tol = _param_float(cfg, "sigma_tolerance", 3.0)
    degree = _regression_degree(cfg)
    grid = cfg.grid()

    ens = simulate_brownian(grid, paths=cfg.paths, dim=cfg.dim, seed=cfg.seed)
    xi = sample_terminal(term, ens)
    solution = solve_backward_euler(spec, xi, ens, SolverOptions(degree=degree))
    cert = lower_bound_certificate(spec, xi, ens, solution,
                                   sigma_tolerance=sigma_tol, degree=degree)

    verdicts = [
        Verdict(name=f"lower bound holds at every interior node within "
                     f"{sigma_tol!r} standard errors (margin >= -1e-09)",
                value=cert.worst_violation, tolerance=1e-9,
                passed=cert.passed),
        Verdict(name=f"boundary-leverage exclusions <= {excl_tol:.0%} of "
                     f"path-nodes",
                value=cert.excluded_fraction, tolerance=excl_tol,
                passed=cert.excluded_fraction <= excl_tol),
    ]

    summary = {"worst_violation": cert.worst_violation,
               "excluded_fraction": cert.excluded_fraction,
               "worst_excluded": cert.worst_excluded,
               "y0_mean": solution.y0_mean}

    # deterministic companion: with constant data and the square-root
    # modulus the bound chain collapses to an equality, so the certificate
    # must reproduce the closed-form parabola to within tight_tol
    family = cfg.generator.get("family", "sqrt").strip()
    tight_err = None
    if family == "sqrt" and "gradient_coeff" not in cfg.generator:
        level_terminal = _param_float(cfg, "tight_terminal", 1.0)
        exact = _exact_sqrt_field(grid, level_terminal, cfg.dim)
        det_cert = lower_bound_certificate(
            spec, level_terminal, Deterministic(grid, dim=cfg.dim), exact,
            sigma_tolerance=sigma_tol)
        tight_err = det_cert.tight_error
        verdicts.append(Verdict(
            name=f"certificate is tight to {tight_tol!r} on the "
                 f"deterministic closed-form instance",
            value=tight_err, tolerance=tight_tol,
            passed=tight_err <= tight_tol))
        summary["tight_error"] = tight_err

    nodes = grid.nodes
    slack_min = cert.slack.min(axis=1)
    slack_mean = cert.slack.mean(axis=1)
    bound_mean = cert.bound.mean(axis=1)
    se_max = (cert.std_error.max(axis=1) if cert.std_error is not None
              else np.zeros_like(nodes))
    rows = list(zip([float(t) for t in nodes],
                    [float(v) for v in bound_mean],
                    [float(v) for v in slack_mean],
                    [float(v) for v in slack_min],
                    [float(v) for v in se_max]))
    return ScenarioResult(
        verdicts=verdicts,
        tables={"certificate": (["t", "bound_mean", "slack_mean",
                                 "slack_min", "se_max"], rows)},
        summary=summary)


_SCENARIO_FUNCS = {
    "uniqueness_convergence": _scenario_uniqueness,
    "multiplicity_zoo": _scenario_multiplicity,
    "duality_frontier": _scenario_duality,
    "transform_crosscheck": _scenario_transform,
    "ez_utility": _scenario_ez,
    "assumption_audit": _scenario_audit,
    "lower_bound": _scenario_lower_bound,
}


# ---------------------------------------------------------------------------
# audit-only pass
# ---------------------------------------------------------------------------

def validate(cfg: ExperimentConfig) -> list:
    """Run the pre-flight audits without solving anything.

    Returns verdicts; parsing problems raise ConfigError upstream, audit
    failures come back as failed verdicts.
    """
    verdicts = []
    build_terminal(cfg.terminal)  # raises ConfigError on bad kinds
    if cfg.scenario == "lower_bound":
        _regression_degree(cfg)

    if cfg.scenario == "ez_utility":
        try:
            ez, _ = _ez_from_params(cfg)
            verdicts.append(Verdict(
                name="aggregator parameters inside their ranges "
                     "(beta > 0, c >= 0, 0 < rho < 1)",
                value=ez.rho, tolerance=0.0, passed=True))
        except ValueError as exc:
            verdicts.append(Verdict(
                name=f"aggregator parameters inside their ranges ({exc})",
                value=math.nan, tolerance=0.0, passed=False))
        return verdicts

    if cfg.scenario == "transform_crosscheck":
        for alpha in _param_list(cfg, "alphas", "0.25,0.5,0.75"):
            for pattern in _MATRIX_PATTERNS:
                sg = _matrix_instance(alpha, pattern)
                sg.validate_on(cfg.grid().nodes)
        verdicts.append(Verdict(
            name="matrix coefficients inside their declared ranges on the "
                 "grid",
            value=0.0, tolerance=0.0, passed=True))
        return verdicts

    spec = build_generator(cfg.generator)
    report = assumption_audit(spec,
                              sample_budget=_param_int(cfg, "sample_budget",
                                                       4000))
    worst_name, worst_slack = report.worst
    verdicts.append(Verdict(
        name=f"generator decomposition audit (worst inequality "
             f"{worst_name}, slack tolerance 1e-09)",
        value=worst_slack, tolerance=report.tolerance,
        passed=report.passed))
    return verdicts


# ---------------------------------------------------------------------------
# orchestration and output
# ---------------------------------------------------------------------------

def _write_csv(path, header, rows) -> None:
    # floats go through the builtin repr: shortest roundtrip text, '.'
    # decimal, no dependence on numpy scalar repr
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v))
                             if isinstance(v, (float, np.floating)) else v
                             for v in row])


def run(cfg: ExperimentConfig) -> tuple:
    """Execute the scenario; returns (report dict, all-verdicts-passed)."""
    started = time.perf_counter()
    try:
        pre = validate(cfg)
    except ValueError as exc:
        raise AuditFailureError(str(exc))
    failed_audits = [v for v in pre if not v.passed]
    if failed_audits:
        raise AuditFailureError("; ".join(v.name for v in failed_audits))

    try:
        result = _SCENARIO_FUNCS[cfg.scenario](cfg)
    except (ValueError, ArithmeticError) as exc:
        # scenario-level domain problems are audit-grade, not solver crashes
        raise AuditFailureError(str(exc))
    wall = time.perf_counter() - started

    os.makedirs(cfg.out_dir, exist_ok=True)
    written = []
    for name, (header, rows) in sorted(result.tables.items()):
        _write_csv(os.path.join(cfg.out_dir, f"{name}.csv"), header, rows)
        written.append(f"{name}.csv")

    all_passed = all(v.passed for v in result.verdicts)
    report = {
        "scenario": cfg.scenario,
        "seed": cfg.seed,
        "wall_clock_seconds": wall,
        "verdicts": [v.as_dict() for v in result.verdicts],
        "pre_flight": [v.as_dict() for v in pre],
        "summary": result.summary,
        "tables_written": written,
        "all_passed": all_passed,
    }
    with open(os.path.join(cfg.out_dir, "report.json"), "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")
    return report, all_passed


def list_scenarios() -> list:
    """Stable catalogue of scenario names with one-line anchors."""
    return [(name, SCENARIO_ANCHORS[name]) for name in SCENARIO_ORDER]


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="peanobsde",
        description="scenario runner for backward equations with "
                    "non-Lipschitz drivers")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="INI config path")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed (unsigned 64-bit)")
        p.add_argument("--out", default=None, help="override output dir")

    add_common(sub.add_parser("run", help="execute a scenario"))
    add_common(sub.add_parser("validate", help="audit without solving"))
    sub.add_parser("list-scenarios", help="print the scenario catalogue")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "list-scenarios":
        for name, anchor in list_scenarios():
            print(f"{name}: {anchor}")
        return EXIT_OK

    try:
        cfg = parse_config(args.config, seed_override=args.seed,
                           out_override=args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    if args.command == "validate":
        try:
            verdicts = validate(cfg)
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        except ValueError as exc:
            print(f"audit failure: {exc}", file=sys.stderr)
            return EXIT_AUDIT
        for v in verdicts:
            print(v.line())
        return EXIT_OK if all(v.passed for v in verdicts) else EXIT_AUDIT

    try:
        report, all_passed = run(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except AuditFailureError as exc:
        print(f"audit failure: {exc}", file=sys.stderr)
        return EXIT_AUDIT
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER

    for v in report["verdicts"]:
        print(Verdict(**v).line())
    print(f"wall clock: {report['wall_clock_seconds']:.2f}s, "
          f"seed {report['seed']}, outputs in {cfg.out_dir}")
    return EXIT_OK if all_passed else EXIT_VERDICT


if __name__ == "__main__":
    sys.exit(main())
