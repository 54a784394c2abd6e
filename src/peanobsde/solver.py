"""Backward solvers for scalar terminal-value equations with concave drivers.

The driver is kept in decomposed form: a nonnegative concave-in-y part
sandwiched between a sublinear modulus and a line, an optional monotone part,
and an optional Lipschitz part that may depend on the martingale coefficient.
Each inequality defining the decomposition is audited by sampling before a
solve is trusted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable

import numpy as np
from scipy import optimize

from .engine import Deterministic, PathEnsemble, TimeGrid
from .peano import DivergentSupremumError, PeanoFunction, make_family

__all__ = [
    "SolverError",
    "FixedPointDivergenceError",
    "GeneratorSpec",
    "SolverOptions",
    "SolutionField",
    "AuditBox",
    "AuditReport",
    "spec_zero",
    "spec_sqrt",
    "spec_power",
    "spec_from_family",
    "spec_sqrt_plus_time",
    "with_monotone_part",
    "with_lipschitz_part",
    "assumption_audit",
    "backward_kernel",
    "solve_backward_euler",
    "solve_deterministic_ode",
    "multiplicity_family",
    "lipschitz_envelope",
    "maximal_solution",
]


class SolverError(RuntimeError):
    pass


class FixedPointDivergenceError(SolverError):
    def __init__(self, step: int, residual: float):
        self.step = step
        self.residual = residual
        super().__init__(f"implicit step {step} did not converge "
                         f"(residual {residual:.3e})")


# ---------------------------------------------------------------------------
# driver decomposition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GeneratorSpec:
    """Driver g(t, y, z) = concave(t, y) + monotone(t, y) + lipschitz(t, y, z).

    The concave part must sit between floor(t) + phi(y) and cap(t) + beta*y
    with 0 <= d/dy concave <= lam * phi'(y); phi None means the concave part
    is identically zero. The monotone part may only decrease across upward
    moves faster than beta_bar; the last part is (beta_tilde, gamma)-Lipschitz
    in (y, z) and vanishes at the origin.
    """

    concave_fn: Callable  # (t, y_array) -> array
    phi: PeanoFunction | None
    floor_fn: Callable  # t -> float, the lower offset, >= c
    cap_fn: Callable    # t -> float, the upper offset
    beta: float
    lam: float
    c: float
    monotone_fn: Callable | None = None   # (t, y_array) -> array
    beta_bar: float = 0.0
    monotone_cap_fn: Callable | None = None
    lipschitz_fn: Callable | None = None  # (t, y_array, z_array) -> array
    beta_tilde: float = 0.0
    gamma: float = 0.0
    label: str = ""

    def __call__(self, t: float, y: np.ndarray, z: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        out = np.asarray(self.concave_fn(t, y), dtype=float)
        if self.monotone_fn is not None:
            out = out + self.monotone_fn(t, y)
        if self.lipschitz_fn is not None:
            out = out + self.lipschitz_fn(t, y, np.asarray(z, dtype=float))
        return out

    @property
    def lipschitz_in_z(self) -> bool:
        return self.lipschitz_fn is not None and self.gamma > 0.0

    @cached_property
    def shifted_modulus(self) -> bool:
        """True when the concave part is exactly floor(t) + phi(y).

        That unlocks the analytic conjugate and derivative of phi. The probe
        runs once per instance; dataclasses.replace builds a new instance, so
        a spec whose concave part was swapped is probed afresh.
        """
        if self.phi is None:
            return False
        probe_y = np.array([1e-6, 1e-2, 0.5, 1.0, 3.0, 7.5])
        for t in (0.0, 0.37, 0.9):
            fv = np.asarray(self.concave_fn(t, probe_y), dtype=float)
            expect = self.floor_fn(t) + self.phi(probe_y)
            if float(np.max(np.abs(fv - expect))) > 1e-11:
                return False
        return True


def spec_zero() -> GeneratorSpec:
    return GeneratorSpec(concave_fn=lambda t, y: np.zeros_like(y), phi=None,
                         floor_fn=lambda t: 0.0, cap_fn=lambda t: 0.0,
                         beta=0.0, lam=1.0, c=0.0, label="zero")


def spec_sqrt() -> GeneratorSpec:
    phi = make_family("rho6", k=1.0, alpha=0.5)
    return GeneratorSpec(concave_fn=lambda t, y: np.sqrt(np.clip(y, 0.0, None)),
                         phi=phi, floor_fn=lambda t: 0.0,
                         cap_fn=lambda t: 0.5, beta=0.5, lam=1.0, c=0.0,
                         label="sqrt")


def spec_power(k: float = 1.0, alpha: float = 0.5) -> GeneratorSpec:
    """k * y^alpha; the line k*(alpha*y + 1 - alpha) dominates it from above."""
    phi = make_family("rho6", k=k, alpha=alpha)
    return GeneratorSpec(
        concave_fn=lambda t, y: k * np.clip(y, 0.0, None) ** alpha,
        phi=phi, floor_fn=lambda t: 0.0,
        cap_fn=lambda t: k * (1.0 - alpha), beta=k * alpha, lam=1.0, c=0.0,
        label=f"power(k={k}, alpha={alpha})")


def spec_from_family(family: str, **params) -> GeneratorSpec:
    """Driver equal to a built-in modulus; the cap is its tangent at 1."""
    phi = make_family(family, **params)
    slope = float(phi.deriv(1.0))
    offset = float(phi(1.0)) - slope

    def ev(t, y):
        return phi(np.clip(y, 0.0, None))

    return GeneratorSpec(concave_fn=ev, phi=phi, floor_fn=lambda t: 0.0,
                         cap_fn=lambda t: offset, beta=slope, lam=1.0, c=0.0,
                         label=f"family({phi.family})")


def spec_sqrt_plus_time() -> GeneratorSpec:
    phi = make_family("rho6", k=1.0, alpha=0.5)
    return GeneratorSpec(
        concave_fn=lambda t, y: np.sqrt(np.clip(y, 0.0, None)) + t,
        phi=phi, floor_fn=lambda t: t, cap_fn=lambda t: 0.5 + t,
        beta=0.5, lam=1.0, c=0.0, label="sqrt+t")


def with_monotone_part(spec: GeneratorSpec, fn: Callable, beta_bar: float,
                       cap_fn: Callable | None = None) -> GeneratorSpec:
    return replace(spec, monotone_fn=fn, beta_bar=beta_bar,
                   monotone_cap_fn=cap_fn or (lambda t: 0.0))


def with_lipschitz_part(spec: GeneratorSpec, fn: Callable, beta_tilde: float,
                        gamma: float) -> GeneratorSpec:
    return replace(spec, lipschitz_fn=fn, beta_tilde=beta_tilde, gamma=gamma)


# ---------------------------------------------------------------------------
# sampled audit of the decomposition inequalities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AuditBox:
    t_max: float = 1.0
    y_max: float = 10.0
    z_max: float = 5.0
    dim: int = 1


@dataclass
class AuditReport:
    slacks: dict
    budget: int
    tolerance: float = 1.0e-9

    @property
    def passed(self) -> bool:
        return all(v <= self.tolerance for v in self.slacks.values())

    @property
    def worst(self) -> tuple[str, float]:
        name = max(self.slacks, key=self.slacks.get)
        return name, self.slacks[name]


def _sample_y(rng: np.random.Generator, n: int, y_max: float) -> np.ndarray:
    # half log-spaced toward 0 where the modulus is steep, half uniform
    lo = 10.0 ** rng.uniform(-6, math.log10(y_max), n // 2)
    hi = rng.uniform(1e-6, y_max, n - n // 2)
    return np.concatenate([lo, hi])


def assumption_audit(spec: GeneratorSpec, sample_budget: int = 2000,
                     box: AuditBox | None = None,
                     seed: int = 0) -> AuditReport:
    """Measure worst-case violation of each decomposition inequality.

    The derivative conditions are checked in secant form on small symmetric
    intervals, f(y+h) - f(y-h) against lam*(phi(y+h) - phi(y-h)), with no
    division by the interval width: dividing would amplify float cancellation
    noise past the pass tolerance whenever the driver carries an additive
    t-term, while the undivided comparison is exact for a concave part that
    matches lam*phi up to shifts.
    """
    if sample_budget < 1000:
        raise ValueError(f"sample_budget must be >= 1000, got {sample_budget}")
    box = box or AuditBox()
    rng = np.random.Generator(np.random.Philox(key=seed))
    ts = rng.uniform(0.0, box.t_max, 40)
    ys = _sample_y(rng, sample_budget // 40 + 2, box.y_max)
    slacks: dict[str, float] = {}

    phi_vals = (spec.phi(ys) if spec.phi is not None
                else np.zeros_like(ys))
    low = high = dlow = dhigh = -math.inf
    h = np.minimum(1e-6 * np.maximum(ys, 1e-3), 0.49 * ys)
    if spec.phi is not None:
        dphi = spec.phi(ys + h) - spec.phi(ys - h)
    else:
        dphi = np.zeros_like(ys)
    for t in ts:
        fv = np.asarray(spec.concave_fn(t, ys), dtype=float)
        low = max(low, float(np.max(spec.floor_fn(t) + phi_vals - fv)))
        high = max(high, float(np.max(fv - spec.cap_fn(t) - spec.beta * ys)))
        df = (np.asarray(spec.concave_fn(t, ys + h), dtype=float)
              - np.asarray(spec.concave_fn(t, ys - h), dtype=float))
        dlow = max(dlow, float(np.max(-df)))
        dhigh = max(dhigh, float(np.max(df - spec.lam * dphi)))
    slacks["concave_lower"] = low
    slacks["concave_upper"] = high
    slacks["concave_deriv_nonneg"] = dlow
    slacks["concave_deriv_cap"] = dhigh

    if spec.monotone_fn is not None:
        n_pairs = sample_budget
        y1 = _sample_y(rng, n_pairs, box.y_max)
        y2 = _sample_y(rng, n_pairs, box.y_max)
        mono = bound = -math.inf
        cap = spec.monotone_cap_fn or (lambda t: 0.0)
        for t in ts[:10]:
            f1 = np.asarray(spec.monotone_fn(t, y1), dtype=float)
            f2 = np.asarray(spec.monotone_fn(t, y2), dtype=float)
            mono = max(mono, float(np.max(np.sign(y1 - y2) * (f1 - f2)
                                          - spec.beta_bar * np.abs(y1 - y2))))
            bound = max(bound, float(np.max(-f1)),
                        float(np.max(f1 - cap(t) - spec.beta_bar * y1)))
        slacks["monotone_one_sided"] = mono
        slacks["monotone_bounds"] = bound

    if spec.lipschitz_fn is not None:
        n_pairs = sample_budget
        y1 = rng.uniform(0.0, box.y_max, n_pairs)
        y2 = rng.uniform(0.0, box.y_max, n_pairs)
        z1 = rng.uniform(-box.z_max, box.z_max, (n_pairs, box.dim))
        z2 = rng.uniform(-box.z_max, box.z_max, (n_pairs, box.dim))
        lip = -math.inf
        origin = -math.inf
        for t in ts[:10]:
            f1 = np.asarray(spec.lipschitz_fn(t, y1, z1), dtype=float)
            f2 = np.asarray(spec.lipschitz_fn(t, y2, z2), dtype=float)
            dz = np.linalg.norm(z1 - z2, axis=-1)
            lip = max(lip, float(np.max(np.abs(f1 - f2)
                                        - spec.beta_tilde * np.abs(y1 - y2)
                                        - spec.gamma * dz)))
            origin = max(origin, abs(float(
                np.asarray(spec.lipschitz_fn(t, np.zeros(1),
                                             np.zeros((1, box.dim))))[0])))
        slacks["lipschitz_modulus"] = lip
        slacks["lipschitz_origin"] = origin

    return AuditReport(slacks=slacks, budget=sample_budget)


# ---------------------------------------------------------------------------
# solution container
# ---------------------------------------------------------------------------

@dataclass
class SolutionField:
    grid: TimeGrid
    y: np.ndarray  # (N+1, M)
    z: np.ndarray  # (N, M, d)
    diagnostics: dict = field(default_factory=dict)

    @property
    def y0_mean(self) -> float:
        return float(self.y[0].mean())

    @property
    def y0_std_error(self) -> float:
        m = self.y[0].size
        if m == 1:
            return 0.0
        return float(self.y[0].std(ddof=1) / math.sqrt(m))


@dataclass(frozen=True)
class SolverOptions:
    max_inner: int = 20
    degree: int | None = None

    def __post_init__(self):
        if not self.max_inner >= 1:
            raise ValueError(f"max_inner must be >= 1, got {self.max_inner}")
        if self.degree is not None and not self.degree >= 1:
            raise ValueError(f"degree must be None or >= 1, got {self.degree}")


# the implicit step evaluates the driver at max(y, _FLOOR) and stops once
# every path's relative update is at most _TOL
_FLOOR = 1.0e-10
_TOL = 1.0e-8


def _implicit_step(g: Callable, i: int, m_cond: np.ndarray, dt: float,
                   opts: SolverOptions) -> tuple[np.ndarray, int, int]:
    """Solve y = m + dt*g(max(y, _FLOOR)) per path by damped iteration."""
    y = m_cond.copy()
    w = np.ones_like(y)
    prev_update = np.zeros_like(y)
    resid = math.inf
    for it in range(1, opts.max_inner + 1):
        target = m_cond + dt * g(np.maximum(y, _FLOOR))
        update = target - y
        resid = float(np.max(np.abs(update) / np.maximum(1.0, np.abs(target))))
        if resid <= _TOL:
            # floor hits of the last iterate, counted once per step
            return target, it, int(np.count_nonzero(y < _FLOOR))
        # halve the relaxation weight on paths whose update flips sign
        w[update * prev_update < 0.0] *= 0.5
        y = y + w * update
        prev_update = update
    raise FixedPointDivergenceError(i, resid)


def backward_kernel(driver: Callable, xi: np.ndarray,
                    ensemble: PathEnsemble | Deterministic,
                    opts: SolverOptions, centre_z: bool = False) -> tuple:
    """Implicit-in-y Euler with the ensemble's conditioning for any driver.

    driver(i, t, z) returns g, the driver on step i as a function of y alone,
    so that whatever depends only on (t, z) is computed once per step. Per
    step: cond is the ensemble's conditioning of y_next on the state (the
    regression on a PathEnsemble, the identity on a Deterministic), z its
    slope statistic of target y_next (y_next - cond when centre_z is set),
    and y solves the damped fixed point of the implicit relation.
    Returns (y, z, diagnostics).
    """
    grid = ensemble.grid
    n, m, d = grid.steps, ensemble.paths, ensemble.dim
    dt = grid.dt
    nodes = grid.nodes
    y = np.empty((n + 1, m))
    z = np.zeros((n, m, d))
    y[n] = xi
    max_iters = floor_hits = degraded = 0
    for i in range(n - 1, -1, -1):
        cond, bad = ensemble.condition(y[i + 1], i, opts.degree)
        degraded += int(bad)
        # z[i] is filled in place and target stays bound until the next
        # step: otherwise peak RSS of a 10^4-path solve can grow by (N, M)
        target = y[i + 1] - cond if centre_z else y[i + 1]
        ensemble.slopes(target, i, z[i], opts.degree)
        y[i], its, hits = _implicit_step(driver(i, nodes[i], z[i]), i, cond,
                                         dt, opts)
        max_iters = max(max_iters, its)
        floor_hits += hits
    diag = {"max_inner_iterations": max_iters, "floor_hits": floor_hits,
            "degraded_regressions": degraded}
    return y, z, diag


def solve_backward_euler(spec: GeneratorSpec, xi: np.ndarray,
                         ensemble: PathEnsemble | Deterministic,
                         opts: SolverOptions | None = None) -> SolutionField:
    """Implicit-in-y Euler on the driver spec, conditioned by the ensemble.

    The scheme is backward_kernel's, with the uncentered slope target.
    """
    opts = opts or SolverOptions()
    m = ensemble.paths
    xi = np.asarray(xi, dtype=float).reshape(-1)
    if xi.shape[0] != m:
        raise ValueError(f"terminal values: {xi.shape[0]} entries for {m} paths")
    if not np.all(np.isfinite(xi)):
        raise ValueError("terminal values must be finite")
    if np.any(xi < 0.0):
        raise ValueError("terminal values must be nonnegative")
    y, z, diag = backward_kernel(lambda i, t, zv: lambda yv: spec(t, yv, zv),
                                 xi, ensemble, opts)
    diag["scheme"] = "backward_euler"
    return SolutionField(grid=ensemble.grid, y=y, z=z, diagnostics=diag)


# ---------------------------------------------------------------------------
# deterministic reduction
# ---------------------------------------------------------------------------

def _rk4_backward(g: Callable, xi_const: float, nodes: np.ndarray,
                  substeps: int) -> np.ndarray:
    y = np.empty(len(nodes))
    y[-1] = xi_const
    val = xi_const
    for i in range(len(nodes) - 1, 0, -1):
        h = (nodes[i] - nodes[i - 1]) / substeps
        t = nodes[i]
        for _ in range(substeps):
            # integrating y' = -g(t, y) backward in time, clipped at zero
            def rhs(tt, yy):
                return float(g(tt, max(yy, 0.0)))

            k1 = rhs(t, val)
            k2 = rhs(t - 0.5 * h, val + 0.5 * h * k1)
            k3 = rhs(t - 0.5 * h, val + 0.5 * h * k2)
            k4 = rhs(t - h, val + h * k3)
            val = val + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if val < 0.0:
                val = 0.0
            t -= h
        y[i - 1] = val
    return y


def solve_deterministic_ode(g: Callable, xi_const: float,
                            grid: TimeGrid) -> np.ndarray:
    """Backward fourth-order integration of y' = -g(t, y), y(T) = xi.

    Substeps are halved until two refinements agree within 1e-10 in sup norm.
    """
    if xi_const < 0.0:
        raise ValueError(f"terminal value must be >= 0, got {xi_const}")
    nodes = grid.nodes
    prev = _rk4_backward(g, xi_const, nodes, 1)
    substeps = 2
    while substeps <= 1024:
        cur = _rk4_backward(g, xi_const, nodes, substeps)
        if float(np.max(np.abs(cur - prev))) < 1.0e-10:
            return cur
        prev = cur
        substeps *= 2
    return prev


def multiplicity_family(c_param: float, grid: TimeGrid) -> np.ndarray:
    """The deterministic family y_t = ((c - t)^+)^2 / 4 on the grid.

    Each member solves the square-root equation with zero terminal value;
    the discrete residual against midpoint quadrature is asserted to be
    second order in the step before returning.
    """
    if not 0.0 <= c_param <= grid.horizon:
        raise ValueError(f"c_param must lie in [0, {grid.horizon}], "
                         f"got {c_param}")
    nodes = grid.nodes
    y = 0.25 * np.clip(c_param - nodes, 0.0, None) ** 2
    dt = grid.dt
    mid = 0.5 * (nodes[:-1] + nodes[1:])
    integrand = 0.5 * np.clip(c_param - mid, 0.0, None)  # sqrt(y) at midpoints
    resid = np.abs(y[:-1] - y[1:] - integrand * dt)
    if float(resid.max()) > 4.0 * dt * dt:
        raise SolverError(f"family residual {resid.max():.3e} exceeds "
                          f"second-order bound {4.0 * dt * dt:.3e}")
    return y


# ---------------------------------------------------------------------------
# Lipschitz envelopes and the extremal solution
# ---------------------------------------------------------------------------

def lipschitz_envelope(g: Callable, n: float,
                       search_limit: float = 1.0e8) -> Callable:
    """n-Lipschitz majorant sup_u {g(u) - n|x - u|} of a concave g >= 0.

    For concave g this is g itself right of the point where g' = n and the
    slope-n tangent left of it, so one bracketed maximization of g(u) - n*u
    determines the whole function.
    """
    if not n > 0.0:
        raise ValueError(f"n must be > 0, got {n}")

    def objective(u):
        return float(g(u)) - n * u

    hi = 1.0
    while objective(2.0 * hi) > objective(hi) and hi < search_limit:
        hi *= 2.0
    if hi >= search_limit:
        raise DivergentSupremumError(
            f"envelope level n={n} is below the asymptotic slope")
    res = optimize.minimize_scalar(lambda u: -objective(u),
                                   bounds=(0.0, 2.0 * hi), method="bounded",
                                   options={"xatol": 1e-13})
    corner = float(res.x)
    peak = float(g(corner))
    if objective(0.0) >= -res.fun:
        corner, peak = 0.0, float(g(0.0))

    def envelope(x):
        x = np.asarray(x, dtype=float)
        out = np.where(x >= corner, np.asarray(g(np.clip(x, 0.0, None)),
                                               dtype=float),
                       peak + n * (x - corner))
        if out.ndim == 0:
            return float(out)
        return out

    envelope.corner = corner
    envelope.level = n
    return envelope


def maximal_solution(spec: GeneratorSpec, xi: np.ndarray,
                     ensemble: PathEnsemble | Deterministic,
                     n_schedule: tuple = (2, 4, 8, 16, 32),
                     opts: SolverOptions | None = None) -> SolutionField:
    """Decreasing envelope scheme targeting the largest solution.

    Solves the Lipschitz equation for each envelope level, checks the fields
    decrease, and extrapolates the geometric tail of the level sequence when
    it has not yet settled below 1e-4.
    """
    if spec.monotone_fn is not None or spec.lipschitz_fn is not None:
        raise ValueError("extremal scheme requires a purely concave driver")
    if list(n_schedule) != sorted(set(n_schedule)) or len(n_schedule) < 2:
        raise ValueError("n_schedule must be strictly increasing, length >= 2")
    opts = opts or SolverOptions()

    fields = []
    y0_by_level = []
    nonmonotone = 0.0
    nodes = ensemble.grid.nodes
    for n_level in n_schedule:
        # the concave part may move with t, so build one envelope per node
        envs = {}

        def concave_env(t, y, _envs=envs, _n=n_level):
            key = round(float(t), 12)
            if key not in _envs:
                _envs[key] = lipschitz_envelope(
                    lambda u: np.asarray(
                        spec.concave_fn(float(t), np.asarray(u, dtype=float)),
                        dtype=float), _n)
            return _envs[key](y)

        env_spec = replace(spec, concave_fn=concave_env)
        fld = solve_backward_euler(env_spec, xi, ensemble, opts)
        if fields:
            rise = float(np.max(fld.y - fields[-1].y))
            nonmonotone = max(nonmonotone, rise)
        fields.append(fld)
        y0_by_level.append(fld.y0_mean)

    last, prev = fields[-1], fields[-2]
    diff = float(np.max(np.abs(last.y - prev.y)))
    y = last.y.copy()
    extrapolated = False
    if diff >= 1.0e-4 and len(fields) >= 3:
        d1 = fields[-2].y - fields[-1].y
        d0 = fields[-3].y - fields[-2].y
        num = float(np.mean(np.abs(d1)))
        den = float(np.mean(np.abs(d0)))
        if den > 0.0:
            r = num / den
            if 0.0 < r < 0.95:
                y = last.y - d1 * (r / (1.0 - r))
                extrapolated = True
    # identical copies have standard error 0, so the 1e-8 floor decides
    tol_noise = 3.0 * last.y0_std_error
    diag = {"schedule": list(n_schedule), "y0_by_level": y0_by_level,
            "level_gap": diff, "extrapolated": extrapolated,
            "nonmonotone_rise": nonmonotone,
            "nonmonotone_flag": bool(nonmonotone > max(tol_noise, 1e-8)),
            "scheme": "envelope_limit"}
    return SolutionField(grid=ensemble.grid, y=y, z=last.z.copy(),
                         diagnostics=diag)

