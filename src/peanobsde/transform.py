"""Change of variables between the concave-power driver and its convex twin.

A driver of the form k1(t)^{1-a} y^a + k2(t) y + k3(t)|z| + k4(t) is concave
in y and not Lipschitz at zero. Discounting by the running k2 integral and
mapping y through u -> u^{1-a}/(1-a) turns it into a jointly convex driver
that is quadratic in z, where the theta-difference comparison applies. This
module provides both drivers, the (invertible) field transform, a solver that
runs the two routes and reports their discrepancy, the theta-difference
sampler, and the recursive-utility parameterization with its closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import integrate

from .engine import Deterministic, PathEnsemble, TimeGrid, extrapolated_nodes
from .solver import SolutionField, SolverOptions, backward_kernel

__all__ = [
    "SpecialGenerator",
    "EZParams",
    "TransformedField",
    "SpecialSolveResult",
    "special_driver",
    "special_step",
    "transformed_generator",
    "transformed_step",
    "change_of_variables",
    "invert_change_of_variables",
    "solve_special",
    "theta_difference_check",
    "ez_to_special",
    "ez_closed_form",
]


def _as_time_fn(v) -> Callable[[float], float]:
    if callable(v):
        return v
    const = float(v)
    return lambda t: const


def _euclidean(z: np.ndarray) -> np.ndarray:
    return np.linalg.norm(np.asarray(z, dtype=float), axis=-1)


def _promote_gradient(y: np.ndarray, z) -> np.ndarray:
    """Make the last axis of z the Brownian dimension.

    Scalar z means a single one-dimensional gradient; z matching y's shape
    means one scalar gradient per path.
    """
    z = np.asarray(z, dtype=float)
    if z.ndim == 0:
        return z[None]
    if y.ndim >= 1 and z.ndim == y.ndim:
        return z[..., None]
    return z


@dataclass(frozen=True)
class SpecialGenerator:
    """Coefficients of the concave-power driver.

    k1..k4 accept constants or deterministic functions of time. c bounds the
    linear and gradient coefficients: k2 in [-c, c], k3 in [0, c]; k1, k4
    stay nonnegative. z_norm replaces |z| with any positive-homogeneous
    convex gauge (audited in solve_special when supplied).
    """

    alpha: float
    c: float
    k1: Callable | float = 0.0
    k2: Callable | float = 0.0
    k3: Callable | float = 0.0
    k4: Callable | float = 0.0
    z_norm: Callable | None = None
    label: str = ""

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if not self.c > 0.0:
            raise ValueError(f"c must be > 0, got {self.c}")
        for name in ("k1", "k2", "k3", "k4"):
            object.__setattr__(self, name, _as_time_fn(getattr(self, name)))

    def gauge(self, z: np.ndarray) -> np.ndarray:
        fn = self.z_norm if self.z_norm is not None else _euclidean
        return np.asarray(fn(np.asarray(z, dtype=float)), dtype=float)

    def validate_on(self, times: np.ndarray) -> None:
        """Pointwise coefficient-range check on a time grid."""
        for t in np.asarray(times, dtype=float):
            k1, k2 = self.k1(t), self.k2(t)
            k3, k4 = self.k3(t), self.k4(t)
            if k1 < 0.0 or k4 < 0.0:
                raise ValueError(f"k1, k4 must be >= 0; at t={t} got "
                                 f"k1={k1}, k4={k4}")
            if abs(k2) > self.c + 1e-12:
                raise ValueError(f"k2 must lie in [-c, c]; at t={t} got {k2}")
            if not -1e-12 <= k3 <= self.c + 1e-12:
                raise ValueError(f"k3 must lie in [0, c]; at t={t} got {k3}")


def _k2_cumulative(sg: SpecialGenerator, grid: TimeGrid) -> np.ndarray:
    """I[i] = integral of k2 from 0 to t_i, one quadrature per step."""
    nodes = grid.nodes
    out = np.zeros(grid.steps + 1)
    for i in range(grid.steps):
        seg, _ = integrate.quad(sg.k2, nodes[i], nodes[i + 1],
                                epsabs=1e-13, epsrel=1e-12, limit=100)
        out[i + 1] = out[i] + seg
    return out


def special_step(sg: SpecialGenerator, t: float, z: np.ndarray) -> Callable:
    """The original driver at fixed (t, z) as a function of y.

    z carries the Brownian dimension on its last axis. Every factor that
    depends only on t or z is computed here, once.
    """
    a = sg.alpha
    c1 = sg.k1(t) ** (1.0 - a)
    k2, k4, k3 = sg.k2(t), sg.k4(t), sg.k3(t)
    kz = k3 * sg.gauge(z) if k3 != 0.0 else None

    def g(y):
        y = np.clip(np.asarray(y, dtype=float), 0.0, None)
        out = c1 * y ** a + k2 * y + k4
        if kz is not None:
            out = out + kz
        return out

    return g


def special_driver(sg: SpecialGenerator, t: float, y: np.ndarray,
                   z: np.ndarray) -> np.ndarray:
    """Original driver k1^{1-a} y^a + k2 y + k3|z| + k4 (y clipped at 0)."""
    y = np.asarray(y, dtype=float)
    return special_step(sg, t, _promote_gradient(y, z))(y)


def transformed_step(sg: SpecialGenerator, t: float, z: np.ndarray,
                     k2_integral: float) -> Callable:
    """The convex driver at fixed (t, z) as a function of y > 0.

    z carries the Brownian dimension on its last axis; k2_integral is the
    k2 integral from 0 to t. Every factor that depends only on t or z is
    computed here, once.
    """
    a = sg.alpha
    growth = math.exp(k2_integral)
    kbar1 = growth * sg.k1(t)
    ktilde4 = (1.0 - a) ** (-a / (1.0 - a)) * growth * sg.k4(t)
    gz = sg.gauge(z)
    c0 = kbar1 ** (1.0 - a)
    quad_z = a / (2.0 * (1.0 - a)) * gz ** 2
    k3 = sg.k3(t)
    kz = k3 * gz if k3 != 0.0 else None
    power = -a / (1.0 - a)

    def g(y):
        y = np.asarray(y, dtype=float)
        if np.any(y <= 0.0):
            raise ValueError("transformed driver needs y > 0")
        out = c0 + quad_z / y
        if kz is not None:
            out = out + kz
        if ktilde4 != 0.0:
            out = out + ktilde4 * y ** power
        return out

    return g


def transformed_generator(sg: SpecialGenerator, t: float, y: np.ndarray,
                          z: np.ndarray,
                          k2_integral: float | None = None) -> np.ndarray:
    """Convex driver after discounting and the power change of variables.

    Value: kbar1^{1-a} + k3*|z| + [a/(2(1-a))] |z|^2 / y + ktilde4 * y^{-a/(1-a)}
    with kbar1 = e^{int k2} k1 and ktilde4 = (1-a)^{-a/(1-a)} e^{int k2} k4.
    The k2 integral from 0 to t is computed on demand when not supplied.
    """
    y = np.asarray(y, dtype=float)
    if k2_integral is None:
        k2_integral, _ = integrate.quad(sg.k2, 0.0, t,
                                        epsabs=1e-13, epsrel=1e-12, limit=100)
    return transformed_step(sg, t, _promote_gradient(y, z), k2_integral)(y)


# ---------------------------------------------------------------------------
# field transform
# ---------------------------------------------------------------------------

@dataclass
class TransformedField:
    grid: TimeGrid
    y: np.ndarray             # (N+1, M)
    z: np.ndarray             # (N, M, d)
    k2_integral: np.ndarray   # (N+1,)


def change_of_variables(sg: SpecialGenerator, grid: TimeGrid, y: np.ndarray,
                        z: np.ndarray) -> TransformedField:
    """Discount by the running k2 integral, then map through u^{1-a}/(1-a)."""
    y = np.asarray(y, dtype=float)
    if float(y.min()) <= 0.0:
        raise ValueError(f"change of variables needs Y > 0, min is {y.min()}")
    z = np.asarray(z, dtype=float)
    a = sg.alpha
    integ = _k2_cumulative(sg, grid)
    growth = np.exp(integ)
    y_bar = growth[:, None] * y
    y_t = y_bar ** (1.0 - a) / (1.0 - a)
    # z is indexed by the left node of each step
    z_bar = growth[:-1, None, None] * z
    z_t = z_bar / y_bar[:-1, :, None] ** a
    return TransformedField(grid=grid, y=y_t, z=z_t, k2_integral=integ)


def invert_change_of_variables(sg: SpecialGenerator,
                               tf: TransformedField) -> tuple:
    """Inverse map; exact up to floating rounding."""
    a = sg.alpha
    growth = np.exp(tf.k2_integral)
    y_bar = ((1.0 - a) * tf.y) ** (1.0 / (1.0 - a))
    y = y_bar / growth[:, None]
    z_bar = tf.z * y_bar[:-1, :, None] ** a
    z = z_bar / growth[:-1, None, None]
    return y, z


# ---------------------------------------------------------------------------
# two-route solve
# ---------------------------------------------------------------------------

@dataclass
class SpecialSolveResult:
    """Two-route comparison.

    max_discrepancy is the raw sup of |Y difference| over grid x paths.
    Regression-conditioned estimates at sample-boundary path-nodes (leverage
    above ten times the node mean) extrapolate the fitted basis and carry
    model bias that no residual statistic bounds; interior_discrepancy is
    the same sup with those nodes excluded, and excluded_fraction reports
    how many they were. On a Deterministic ensemble the two sups coincide.
    """

    direct: SolutionField
    via_transform: SolutionField
    max_discrepancy: float
    relative_discrepancy: float   # raw sup scaled by the solution's sup norm
    interior_discrepancy: float
    interior_relative_gap: float  # interior sup scaled by |y0|
    excluded_fraction: float

    def summary(self) -> dict:
        return {
            "y0_direct": self.direct.y0_mean,
            "y0_via_transform": self.via_transform.y0_mean,
            "max_discrepancy": self.max_discrepancy,
            "relative_discrepancy": self.relative_discrepancy,
            "interior_discrepancy": self.interior_discrepancy,
            "interior_relative_gap": self.interior_relative_gap,
            "excluded_fraction": self.excluded_fraction,
        }


def solve_special(sg: SpecialGenerator, xi: np.ndarray,
                  ensemble: PathEnsemble | Deterministic,
                  opts: SolverOptions | None = None) -> SpecialSolveResult:
    """Backward Euler on the original driver and on its convex transform.

    The transform route solves for the mapped field and is pulled back
    through the inverse change of variables before comparison. Terminal data
    must be strictly positive per path, since the transform divides by
    powers of the solution.
    """
    opts = opts or SolverOptions()
    grid = ensemble.grid
    n, m, d = grid.steps, ensemble.paths, ensemble.dim
    xi = np.asarray(xi, dtype=float).reshape(-1)
    if xi.shape[0] != m:
        raise ValueError(f"terminal data has {xi.shape[0]} paths, "
                         f"ensemble has {m}")
    if float(xi.min()) <= 0.0:
        raise ValueError("solve_special needs strictly positive terminal "
                         f"data, min is {xi.min()}")
    sg.validate_on(grid.nodes)
    if sg.z_norm is not None:
        homogeneity_audit(sg.z_norm, dim=d)

    # center the slope target: the quadratic-in-z driver turns regression
    # variance into positive bias if left uncentered
    y_dir, z_dir, diag_dir = backward_kernel(
        lambda i, t, z: special_step(sg, t, z), xi, ensemble, opts,
        centre_z=True)
    diag_dir.update(scheme="special_direct", label=sg.label)
    direct = SolutionField(grid=grid, y=y_dir, z=z_dir, diagnostics=diag_dir)

    integ = _k2_cumulative(sg, grid)
    a = sg.alpha
    xi_t = (math.exp(integ[n]) * xi) ** (1.0 - a) / (1.0 - a)
    # the kernel floors y at a positive constant before each driver call,
    # so the y > 0 guard holds
    y_tr, z_tr, diag_tr = backward_kernel(
        lambda i, t, z: transformed_step(sg, t, z, float(integ[i])), xi_t,
        ensemble, opts, centre_z=True)
    diag_tr.update(scheme="special_via_transform", label=sg.label)
    tf = TransformedField(grid=grid, y=y_tr, z=z_tr, k2_integral=integ)
    y_back, z_back = invert_change_of_variables(sg, tf)
    via = SolutionField(grid=grid, y=y_back, z=z_back, diagnostics=diag_tr)
    # leverage depends only on the shared design, so one mask serves both
    # routes (all false on a Deterministic ensemble: nothing is regressed)
    extrap = (np.zeros((n + 1, m), dtype=bool)
              if isinstance(ensemble, Deterministic)
              else extrapolated_nodes(ensemble, opts.degree))

    dy = np.abs(direct.y - via.y)
    gap = float(dy.max())
    scale = max(float(np.max(np.abs(direct.y))), 1e-12)
    interior = float(np.where(extrap, 0.0, dy).max())
    y0_scale = max(abs(direct.y0_mean), 1e-12)
    return SpecialSolveResult(
        direct=direct, via_transform=via,
        max_discrepancy=gap, relative_discrepancy=gap / scale,
        interior_discrepancy=interior,
        interior_relative_gap=interior / y0_scale,
        excluded_fraction=float(extrap[1:n].mean()) if n > 1 else 0.0)


# ---------------------------------------------------------------------------
# theta-difference convexity sampler
# ---------------------------------------------------------------------------

def theta_difference_check(target, theta_grid, sample_budget: int = 100_000,
                           seed: int = 0, dim: int = 1,
                           horizon: float = 1.0) -> dict:
    """Max violation of the one-sided convexity comparison.

    For each sampled (t, y1, y2, z1, z2) with positive y and each theta, the
    quantity 1_{y1 > theta y2} (g(t,y1,z1) - theta g(t,y2,z2)) must not
    exceed (1-theta) g(t, (y1-theta y2)/(1-theta), (z1-theta z2)/(1-theta)).
    target is a SpecialGenerator (checked through its transformed driver) or
    a raw callable (t, y, z) -> values; raw callables serve as negative
    controls. Returns per-theta maxima and the overall worst violation.
    """
    theta_grid = [float(th) for th in theta_grid]
    if not theta_grid or not all(0.0 < th < 1.0 for th in theta_grid):
        raise ValueError("theta grid must lie inside (0, 1)")
    if sample_budget < 1:
        raise ValueError("sample budget must be positive")
    if isinstance(target, SpecialGenerator):
        def fn(t, y, z):
            return transformed_generator(target, t, y, z)
    else:
        fn = target

    rng = np.random.default_rng(seed)
    per_theta: dict[float, float] = {}
    worst = 0.0
    chunk = 20_000
    done = 0
    while done < sample_budget:
        k = min(chunk, sample_budget - done)
        done += k
        t = float(rng.uniform(0.0, horizon))
        y1 = 10.0 ** rng.uniform(-3.0, 1.0, size=k)
        y2 = 10.0 ** rng.uniform(-3.0, 1.0, size=k)
        z1 = rng.normal(0.0, 2.0, size=(k, dim))
        z2 = rng.normal(0.0, 2.0, size=(k, dim))
        g1 = np.asarray(fn(t, y1, z1), dtype=float)
        g2 = np.asarray(fn(t, y2, z2), dtype=float)
        for th in theta_grid:
            active = y1 > th * y2
            if not np.any(active):
                per_theta.setdefault(th, 0.0)
                continue
            yd = (y1[active] - th * y2[active]) / (1.0 - th)
            zd = (z1[active] - th * z2[active]) / (1.0 - th)
            lhs = g1[active] - th * g2[active]
            rhs = (1.0 - th) * np.asarray(fn(t, yd, zd), dtype=float)
            v = float(np.max(lhs - rhs))
            per_theta[th] = max(per_theta.get(th, 0.0), v)
            worst = max(worst, v)
    return {"max_violation": worst,
            "per_theta": per_theta,
            "samples": done,
            "passed": bool(worst <= 1e-9)}


def homogeneity_audit(fn: Callable, dim: int = 1, budget: int = 2000,
                      seed: int = 1) -> None:
    """Reject gauges that are not positive-homogeneous convex with fn(0)=0."""
    rng = np.random.default_rng(seed)
    z = rng.normal(0.0, 3.0, size=(budget, dim))
    lam = 10.0 ** rng.uniform(-2.0, 2.0, size=budget)
    vals = np.asarray(fn(z), dtype=float)
    if np.any(vals < -1e-12):
        raise ValueError("gauge must be nonnegative")
    zero = float(np.asarray(fn(np.zeros((1, dim))), dtype=float)[0])
    if abs(zero) > 1e-12:
        raise ValueError(f"gauge must vanish at 0, got {zero}")
    scaled = np.asarray(fn(lam[:, None] * z), dtype=float)
    if float(np.max(np.abs(scaled - lam * vals)
                    / np.maximum(1.0, np.abs(scaled)))) > 1e-9:
        raise ValueError("gauge is not positively homogeneous of degree 1")
    w = rng.normal(0.0, 3.0, size=(budget, dim))
    mid = np.asarray(fn(0.5 * (z + w)), dtype=float)
    avg = 0.5 * (vals + np.asarray(fn(w), dtype=float))
    if float(np.max(mid - avg)) > 1e-9:
        raise ValueError("gauge fails midpoint convexity")


# ---------------------------------------------------------------------------
# recursive-utility parameterization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EZParams:
    """Recursive-utility aggregator: driver (rho/beta)(c^rho y^{1-rho} - y).

    This module owns rho in (0, 1), the concave non-Lipschitz regime. rho = 1
    collapses the driver to a linear one and rho < 0 makes it monotone; both
    belong to the standard monotone/Lipschitz solver path, not here.
    """

    beta: float
    c: float
    rho: float

    def __post_init__(self):
        if not self.beta > 0.0:
            raise ValueError(f"beta must be > 0, got {self.beta}")
        if self.c < 0.0:
            raise ValueError(f"c must be >= 0, got {self.c}")
        if not 0.0 < self.rho < 1.0:
            raise ValueError(
                f"rho={self.rho} is outside (0, 1); linear (rho=1) and "
                f"monotone (rho<0) aggregators take the Lipschitz solver "
                f"route instead of this transform")


def ez_to_special(ez: EZParams) -> SpecialGenerator:
    """Match (k1^{1-a} y^a + k2 y) with (rho/beta)(c^rho y^{1-rho} - y)."""
    rho, beta = ez.rho, ez.beta
    alpha = 1.0 - rho
    k1 = ez.c * (rho / beta) ** (1.0 / rho)
    k2 = -rho / beta
    return SpecialGenerator(alpha=alpha, c=max(rho / beta, 1e-12), k1=k1,
                            k2=k2, k3=0.0, k4=0.0,
                            label=f"ez(beta={beta}, c={ez.c}, rho={rho})")


def ez_closed_form(ez: EZParams, xi_const: float, t: float,
                   horizon: float = 1.0) -> float:
    """Deterministic-endowment utility: u = y^rho linearizes the flow.

    y(t) = [c^rho + (xi^rho - c^rho) e^{-(rho^2/beta)(T-t)}]^{1/rho}.
    """
    if xi_const < 0.0:
        raise ValueError(f"terminal value must be >= 0, got {xi_const}")
    if not 0.0 <= t <= horizon:
        raise ValueError(f"t={t} outside [0, {horizon}]")
    rho = ez.rho
    decay = math.exp(-(rho * rho / ez.beta) * (horizon - t))
    u = ez.c ** rho + (xi_const ** rho - ez.c ** rho) * decay
    return u ** (1.0 / rho)
