"""Control-representation machinery for concave drivers.

The concave part of the driver is traded for its partial conjugate: every
nonnegative control process q prices the terminal value at least as high as
the original equation, and the tangency choice q = f'(t, Y_t) closes the gap.
This module evaluates controlled values (closed form for deterministic
controls, regression engine otherwise), the feedback control, duality gaps,
the controlled lower-bound certificate, and moment-based admissibility
estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate, optimize
from scipy.interpolate import PchipInterpolator

from .engine import (Deterministic, PathEnsemble, TimeGrid,
                     conditional_expectation, extrapolated_nodes,
                     girsanov_weights)
from .peano import conjugate, integral_H, inverse_H, scale_function
from .solver import (GeneratorSpec, SolutionField, SolverError, SolverOptions,
                     backward_kernel)

__all__ = [
    "InadmissibleControlError",
    "NonpositiveSolutionError",
    "ControlProcess",
    "DualityReport",
    "CertificateReport",
    "constant_control",
    "f_star",
    "solve_controlled",
    "feedback_control",
    "duality_gap",
    "lower_bound_certificate",
    "admissibility_check",
]


class InadmissibleControlError(SolverError):
    pass


class NonpositiveSolutionError(SolverError):
    pass


@dataclass
class ControlProcess:
    """Nonnegative control values, constant on each grid step.

    values has shape (N, M) or (N, 1). Adaptedness holds by construction
    for the provided builders (constants, and the feedback control read off
    the solution at the left node).
    """

    grid: TimeGrid
    values: np.ndarray
    label: str = ""
    moment_report: dict | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2 or self.values.shape[0] != self.grid.steps:
            raise ValueError(f"control values must have shape (N, M), "
                             f"got {self.values.shape}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("control values must be finite")
        if np.any(self.values < 0.0):
            raise ValueError("control values must be nonnegative")

    @property
    def deterministic(self) -> bool:
        """True when every step's spread across paths is below 1e-12."""
        return bool(np.all(np.ptp(self.values, axis=1) < 1e-12))


def constant_control(grid: TimeGrid, paths: int, value: float,
                     label: str | None = None) -> ControlProcess:
    if value < 0.0:
        raise ValueError(f"control constant must be >= 0, got {value}")
    vals = np.full((grid.steps, paths), float(value))
    return ControlProcess(grid=grid, values=vals, label=label or f"q={value}")


# ---------------------------------------------------------------------------
# partial conjugate of the concave part
# ---------------------------------------------------------------------------

_SEARCH_LIMIT = 1.0e8


def f_star(spec: GeneratorSpec, t: float, q: float) -> float:
    """sup over y >= 0 of (concave_part(t, y) - q*y); inf when unbounded."""
    if q < 0.0:
        raise ValueError(f"f_star requires q >= 0, got {q}")
    if spec.phi is None:
        # concave part is zero; the sup sits at y = 0
        return float(np.asarray(spec.concave_fn(t, np.zeros(1)))[0])
    if spec.shifted_modulus:
        cv = conjugate(spec.phi, q)
        if cv.is_infinite:
            return math.inf
        return float(spec.floor_fn(t)) + cv.value

    def obj(y):
        return float(np.asarray(spec.concave_fn(t, np.asarray([y])))[0]) - q * y

    hi = 1.0
    while obj(2.0 * hi) > obj(hi):
        hi *= 2.0
        if hi > _SEARCH_LIMIT:
            return math.inf
    res = optimize.minimize_scalar(lambda y: -obj(y), bounds=(0.0, 2.0 * hi),
                                   method="bounded", options={"xatol": 1e-13})
    return max(float(-res.fun), obj(0.0))


def _f_star_row(spec: GeneratorSpec, t: float, q: np.ndarray) -> np.ndarray:
    """f_star at every entry of q, evaluated once per distinct value."""
    uniq, inv = np.unique(q, return_inverse=True)
    return np.array([f_star(spec, t, float(u)) for u in uniq])[inv]


def _concave_derivative(spec: GeneratorSpec, t: float,
                        y: np.ndarray) -> np.ndarray:
    if spec.shifted_modulus:
        return np.asarray(spec.phi.deriv(y), dtype=float)
    h = 1e-7 * np.maximum(np.abs(y), 1e-4)
    h = np.minimum(h, 0.49 * np.maximum(y, 1e-300))
    up = np.asarray(spec.concave_fn(t, y + h), dtype=float)
    dn = np.asarray(spec.concave_fn(t, y - h), dtype=float)
    return (up - dn) / (2.0 * h)


# ---------------------------------------------------------------------------
# controlled value
# ---------------------------------------------------------------------------

def _closed_form_controlled(spec: GeneratorSpec, control: ControlProcess,
                            xi: np.ndarray,
                            ensemble: PathEnsemble | Deterministic,
                            opts: SolverOptions) -> SolutionField:
    """Discounted representation for deterministic q and purely concave f.

    Per-step growth factors use the exact integral of the step-constant
    control; the running conjugate term integrates f*(s, q_i) over each step
    by quadrature so time-dependent offsets stay exact.
    """
    grid = ensemble.grid
    n, m, d = grid.steps, ensemble.paths, ensemble.dim
    dt = grid.dt
    nodes = grid.nodes
    q_step = control.values[:, 0]

    accrual = np.zeros(n + 1)   # accrual[i] = value of the running f* term
    growth = np.exp(q_step * dt)
    for i in range(n - 1, -1, -1):
        qi = float(q_step[i])
        if math.isinf(f_star(spec, nodes[i], qi)):
            raise InadmissibleControlError(
                f"conjugate diverges on step {i} (q={qi})")
        piece, _ = integrate.quad(
            lambda s: math.exp(qi * (s - nodes[i])) * f_star(spec, s, qi),
            nodes[i], nodes[i + 1], epsabs=1e-13, epsrel=1e-12, limit=200)
        accrual[i] = piece + growth[i] * accrual[i + 1]
    discount_to_T = np.concatenate([np.cumprod(growth[::-1])[::-1], [1.0]])

    y = np.empty((n + 1, m))
    y[n] = xi
    degraded = 0
    for i in range(n - 1, -1, -1):
        cond, bad = ensemble.condition(xi, i, opts.degree)
        degraded += int(bad)
        y[i] = discount_to_T[i] * cond + accrual[i]
    diag = {"scheme": "controlled_closed_form", "control": control.label,
            "degraded_regressions": degraded}
    return SolutionField(grid=grid, y=y, z=np.zeros((n, m, d)),
                         diagnostics=diag)


def _engine_controlled(spec: GeneratorSpec, control: ControlProcess,
                       xi: np.ndarray, ensemble: PathEnsemble | Deterministic,
                       opts: SolverOptions) -> SolutionField:
    """Backward-Euler engine on the q-linearized driver, for any control."""
    grid = ensemble.grid
    n, m = grid.steps, ensemble.paths
    qv = control.values
    if qv.shape[1] == 1 and m > 1:
        qv = np.broadcast_to(qv, (n, m))
    star_vals = np.empty((n, m))
    nodes = grid.nodes
    for i in range(n):
        star_vals[i] = _f_star_row(spec, nodes[i], qv[i])
        if np.isinf(star_vals[i]).any():
            raise InadmissibleControlError(
                f"conjugate diverges at step {i}: control takes a value "
                f"with infinite f*")

    def driver(i, t, zv):
        q, star = qv[i], star_vals[i]

        def g(yv):
            out = q * yv + star
            if spec.monotone_fn is not None:
                out = out + spec.monotone_fn(t, yv)
            if spec.lipschitz_fn is not None:
                out = out + spec.lipschitz_fn(t, yv, zv)
            return out

        return g

    y, z, diag = backward_kernel(driver, xi, ensemble, opts)
    diag.update(scheme="controlled_engine", control=control.label)
    return SolutionField(grid=grid, y=y, z=z, diagnostics=diag)


def solve_controlled(spec: GeneratorSpec, control: ControlProcess,
                     xi: np.ndarray, ensemble: PathEnsemble | Deterministic,
                     opts: SolverOptions | None = None) -> SolutionField:
    """Value of the q-linearized equation.

    Deterministic controls on purely concave drivers take the closed form,
    every other control the backward-Euler engine. Controls whose conjugate
    is infinite anywhere they are used are inadmissible.
    """
    opts = opts or SolverOptions()
    n, m = ensemble.grid.steps, ensemble.paths
    if control.grid.steps != n or control.values.shape[1] not in (1, m):
        raise ValueError("control does not match the ensemble")
    xi = np.asarray(xi, dtype=float).reshape(-1)
    pure_concave = spec.monotone_fn is None and spec.lipschitz_fn is None
    if pure_concave and control.deterministic:
        return _closed_form_controlled(spec, control, xi, ensemble, opts)
    return _engine_controlled(spec, control, xi, ensemble, opts)


# ---------------------------------------------------------------------------
# feedback control and duality gap
# ---------------------------------------------------------------------------

def feedback_control(spec: GeneratorSpec, solution: SolutionField,
                     p_bar: float = 2.0) -> ControlProcess:
    """Tangency control: the concave part's slope along the solution."""
    y = solution.y
    if float(y.min()) <= 0.0:
        raise NonpositiveSolutionError(
            f"solution reaches {y.min():.3e}; the slope control needs Y > 0")
    grid = solution.grid
    nodes = grid.nodes
    n = grid.steps
    vals = np.empty((n, y.shape[1]))
    for i in range(n):
        vals[i] = _concave_derivative(spec, nodes[i], y[i])
    vals = np.clip(vals, 0.0, None)
    ctrl = ControlProcess(grid=grid, values=vals, label="feedback")
    ctrl.moment_report = admissibility_check(ctrl, p_bar, spec)
    return ctrl


@dataclass
class DualityReport:
    y0_primal: float
    y0_per_control: dict
    gap_min: float
    feedback_match_error: float | None

    def to_dict(self) -> dict:
        return {"y0_primal": self.y0_primal,
                "y0_per_control": self.y0_per_control,
                "gap_min": self.gap_min,
                "feedback_match_error": self.feedback_match_error}


def duality_gap(spec: GeneratorSpec, xi: np.ndarray,
                ensemble: PathEnsemble | Deterministic, control_family: list,
                opts: SolverOptions | None = None,
                primal: SolutionField | None = None) -> DualityReport:
    """Evaluate Y^q_0 over a finite control family against the primal Y_0.

    Entries are ControlProcess objects or the string "feedback", which is
    built from the primal solution. Controls are evaluated independently of
    one another (order cannot matter). A precomputed primal solution may be
    supplied; otherwise one backward-Euler solve provides it.
    """
    if not control_family:
        raise ValueError("control family is empty")
    opts = opts or SolverOptions()
    from .solver import solve_backward_euler
    if primal is None:
        primal = solve_backward_euler(spec, xi, ensemble, opts)
    y0 = primal.y0_mean
    per_control: dict[str, float] = {}
    feedback_err = None
    for entry in control_family:
        if isinstance(entry, str):
            if entry != "feedback":
                raise ValueError(f"unknown control entry {entry!r}")
            ctrl = feedback_control(spec, primal)
        else:
            ctrl = entry
        val = solve_controlled(spec, ctrl, xi, ensemble, opts).y0_mean
        per_control[ctrl.label] = val
        if ctrl.label == "feedback":
            feedback_err = abs(val - y0)
    gap_min = min(v - y0 for v in per_control.values())
    return DualityReport(y0_primal=y0, y0_per_control=per_control,
                         gap_min=gap_min, feedback_match_error=feedback_err)


# ---------------------------------------------------------------------------
# lower-bound certificate
# ---------------------------------------------------------------------------

@dataclass
class CertificateReport:
    bound: np.ndarray          # (N+1, M)
    slack: np.ndarray          # Y - bound
    std_error: np.ndarray | None
    passed: bool
    worst_violation: float
    tight_error: float
    excluded_fraction: float = 0.0
    worst_excluded: float = 0.0


class _MonotoneTransform:
    """Tabulated reciprocal-integral transform and its inverse.

    Evaluating the transform per path per node by quadrature is far too slow
    (an M=10^4 certificate needs ~10^6 inversions), so the strictly
    increasing map is sampled once on a geometric grid by incremental
    quadrature and interpolated monotonically. Relative interpolation error
    on the tabulated range is ~1e-10, well inside the 1e-6 tightness budget.
    """

    def __init__(self, phi_bar, c_bar: float, u_max: float):
        u_max = max(float(u_max), 1e-6)
        anchor = min(1e-8, u_max * 1e-10)
        pts = np.geomspace(anchor, u_max, 4000)
        grid = np.concatenate([[0.0], pts])
        vals = np.empty_like(grid)
        vals[0] = 0.0
        # first cell owns the integrable singularity at zero
        vals[1] = integral_H(phi_bar, c_bar, grid[1])

        def integrand(x):
            return 1.0 / (float(phi_bar(np.asarray([x]))[0]) + c_bar)

        for k in range(2, grid.size):
            seg, _ = integrate.quad(integrand, grid[k - 1], grid[k],
                                    epsabs=1e-14, epsrel=1e-11, limit=100)
            vals[k] = vals[k - 1] + seg
        self._fwd = PchipInterpolator(grid, vals)
        self._inv = PchipInterpolator(vals, grid)
        self.u_max = u_max
        self.v_max = float(vals[-1])

    def fwd(self, u: np.ndarray) -> np.ndarray:
        return self._fwd(np.clip(u, 0.0, self.u_max))

    def inv(self, v: np.ndarray) -> np.ndarray:
        return self._inv(np.clip(v, 0.0, self.v_max))


def _drift_from_lipschitz(spec: GeneratorSpec, solution: SolutionField,
                          ensemble: PathEnsemble) -> np.ndarray:
    """Per-step slope of the z-part along the solution, capped at gamma."""
    n, m, d = ensemble.increments.shape
    b = np.zeros((n, m, d))
    if spec.lipschitz_fn is None or spec.gamma == 0.0:
        return b
    nodes = ensemble.grid.nodes
    for i in range(n):
        zi = solution.z[i]
        znorm = np.linalg.norm(zi, axis=-1)
        safe = np.maximum(znorm, 1e-300)
        diff = (np.asarray(spec.lipschitz_fn(nodes[i], solution.y[i], zi))
                - np.asarray(spec.lipschitz_fn(nodes[i], solution.y[i],
                                               np.zeros_like(zi))))
        ratio = np.where(znorm > 1e-12, diff / safe, 0.0)
        direction = np.where(znorm[:, None] > 1e-12, zi / safe[:, None], 0.0)
        b[i] = ratio[:, None] * direction
    return b


def lower_bound_certificate(spec: GeneratorSpec, xi: np.ndarray,
                            ensemble: PathEnsemble | Deterministic,
                            solution: SolutionField,
                            sigma_tolerance: float = 3.0,
                            degree: int = 3) -> CertificateReport:
    """Certified floor for the solution via the reciprocal-integral transform.

    The concave modulus and the offset are discounted by e^{-beta_tilde*T},
    the discounted terminal data is pushed through the transform, conditioned
    under the drift-absorbing measure, advanced by the remaining time, pulled
    back through the inverse, and discounted once more. Violations beyond
    sigma_tolerance regression standard errors fail the certificate. On a
    Deterministic ensemble nothing is regressed or reweighted: the bound
    must hold to 1e-6 outright and std_error is None.

    Pathwise assertions are restricted to points whose regression leverage
    is at most 10x the node average. Beyond that the fitted values are
    polynomial extrapolations at the sample boundary whose model bias no
    residual-based standard error can bound; those points are excluded from
    the verdict and surfaced through excluded_fraction / worst_excluded.

    degree sets the regression basis order and must match the one used to
    produce `solution`, else the two fits disagree at the sample edges for
    basis reasons alone. Prefer an even degree for terminal data whose
    conditional mean is convex in the state: an odd leading term bends the
    fit downward in one tail, and near the horizon the bound's slack
    shrinks to zero so that bias alone can trip the verdict.
    """
    if spec.phi is None:
        raise ValueError("certificate needs a nontrivial concave part")
    grid = ensemble.grid
    n, m = grid.steps, ensemble.paths
    xi = np.asarray(xi, dtype=float).reshape(-1)
    nodes = grid.nodes
    horizon = grid.horizon
    damp = math.exp(-spec.beta_tilde * horizon)
    phi_bar = scale_function(spec.phi, damp) if damp != 1.0 else spec.phi
    c_bar = damp * spec.c

    xi_bar = damp * xi
    xi_top = float(xi_bar.max(initial=0.0))
    # size the table so every conditioned-and-advanced value stays interior
    v_need = integral_H(phi_bar, c_bar, max(xi_top, 1e-9)) + 1.5 * horizon + 0.1
    u_max = 1.02 * inverse_H(phi_bar, c_bar, v_need)
    table = _MonotoneTransform(phi_bar, c_bar, max(u_max, 2.0 * xi_top))
    txi = table.fwd(xi_bar)
    t_cap = float(txi.max(initial=0.0))

    deterministic = isinstance(ensemble, Deterministic)
    if not deterministic:
        w_T = girsanov_weights(ensemble, _drift_from_lipschitz(
            spec, solution, ensemble), bound=max(spec.gamma, 1e-12)).weights

    bound = np.empty((n + 1, m))
    # at the horizon the transform and its inverse cancel exactly
    bound[n] = damp * xi_bar
    se = None if deterministic else np.zeros((n + 1, m))
    for i in range(n):
        remaining = horizon - nodes[i]
        if deterministic:
            bound[i] = damp * table.inv(txi + remaining)
            continue
        num, info_n = conditional_expectation(ensemble, w_T * txi, i,
                                              degree=degree,
                                              full_output=True)
        den = conditional_expectation(ensemble, w_T, i, degree=degree)
        den = np.maximum(den, 1e-12)
        cond = np.clip(num / den, 0.0, t_cap)
        se[i] = (info_n.residual_std
                 * np.sqrt(np.maximum(info_n.leverage, 0.0)) / den)
        arg = table.inv(cond + remaining)
        bound[i] = damp * arg
        # delta method: the inverse's slope at the point is phi_bar + c_bar
        se_bound = damp * (np.asarray(phi_bar(arg)) + c_bar) * se[i]
        # the compared solution is itself a regression estimate; its
        # one-step fit noise dominates at high-leverage paths and must
        # enter the margin or tail paths fail spuriously
        _, info_y = conditional_expectation(ensemble, solution.y[i + 1],
                                            i, degree=degree,
                                            full_output=True)
        se_y = (info_y.residual_std
                * np.sqrt(np.maximum(info_y.leverage, 0.0)))
        se[i] = np.hypot(se_bound, se_y)
    slack = solution.y - bound
    if deterministic:
        worst = float(np.max(-slack))
        return CertificateReport(bound=bound, slack=slack, std_error=None,
                                 passed=bool(worst <= 1e-6),
                                 worst_violation=worst,
                                 tight_error=float(np.max(np.abs(slack))))
    margin = slack + sigma_tolerance * se
    # leverage depends only on the shared design. Row 0's design is the
    # constant column, whose leverage is 1/M on every path up to rounding,
    # so row 0 is never excluded.
    extrapolated = extrapolated_nodes(ensemble, degree)
    kept = np.where(extrapolated, np.inf, margin)
    worst = float(np.max(-kept))
    if extrapolated.any():
        worst_excluded = float(np.max(-margin[extrapolated]))
    else:
        worst_excluded = 0.0
    return CertificateReport(bound=bound, slack=slack, std_error=se,
                             passed=bool(worst <= 1e-9),
                             worst_violation=worst,
                             tight_error=float(np.max(np.abs(slack))),
                             excluded_fraction=float(extrapolated[:n].mean()),
                             worst_excluded=worst_excluded)


# ---------------------------------------------------------------------------
# admissibility moment report
# ---------------------------------------------------------------------------

def admissibility_check(control: ControlProcess, p_bar: float,
                        spec: GeneratorSpec, p: float = 2.0) -> dict:
    """Path-average estimates of the exponential and conjugate moments.

    Report-only: finiteness of these moments is an instance hypothesis that
    sampling cannot certify, so the output carries heavy-tail flags instead
    of a verdict.
    """
    if p_bar <= 0.0:
        raise ValueError(f"p_bar must be > 0, got {p_bar}")
    grid = control.grid
    dt = grid.dt
    nodes = grid.nodes
    q = control.values
    integral_q = q.sum(axis=0) * dt
    exp_samples = np.exp(p_bar * integral_q)
    exp_moment = float(np.mean(exp_samples))

    star = np.array([_f_star_row(spec, nodes[i], q[i])
                     for i in range(q.shape[0])])
    infinite = bool(np.isinf(star).any())
    star_integral = star.sum(axis=0) * dt
    if infinite:
        star_norm = math.inf
    else:
        star_norm = float(np.mean(star_integral ** p) ** (1.0 / p))

    def top_share(samples: np.ndarray) -> float:
        if not np.all(np.isfinite(samples)):
            return 1.0
        total = float(samples.sum())
        if total <= 0.0:
            return 0.0
        k = max(1, int(0.01 * samples.size))
        return float(np.sort(samples)[-k:].sum()) / total

    exp_share = top_share(exp_samples)
    star_share = (1.0 if infinite else top_share(star_integral ** p))
    return {
        "exp_moment": exp_moment,
        "conjugate_norm": star_norm,
        "p_bar": p_bar,
        "p": p,
        "conjugate_infinite": infinite,
        "heavy_tail_flag": bool(exp_share > 0.5 or star_share > 0.5),
        "top_percent_share": {"exp": exp_share, "conjugate": star_share},
    }

