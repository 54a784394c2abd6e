"""Path simulation, regression-based conditioning, and measure-change weights.

Everything here is driven by a counter-based generator keyed per time step, so
an ensemble is reproducible bit for bit given (seed, grid, d), and the first
M' paths of an M-path ensemble coincide with the M'-path ensemble.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri

__all__ = [
    "TimeGrid",
    "PathEnsemble",
    "Deterministic",
    "RegressionInfo",
    "GirsanovResult",
    "TerminalSpec",
    "simulate_brownian",
    "basis_matrix",
    "conditional_expectation",
    "extrapolated_nodes",
    "girsanov_weights",
    "sample_terminal",
]


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid 0 = t_0 < ... < t_N = T."""

    horizon: float
    steps: int

    def __post_init__(self):
        if not self.horizon > 0.0:
            raise ValueError(f"horizon must be > 0, got {self.horizon}")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")

    @property
    def dt(self) -> float:
        return self.horizon / self.steps

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.steps + 1)


@dataclass(frozen=True)
class PathEnsemble:
    """Brownian increments and positions per path.

    The arrays are taken as fixed once the ensemble is built (simulate_brownian
    makes them read-only): regression facts that depend only on the design,
    namely the latest step's design matrix and each step's rank decision and
    leverage, are cached on the instance. dataclasses.replace builds a new
    instance with empty caches.
    """

    grid: TimeGrid
    paths: int
    dim: int
    seed: int
    increments: np.ndarray  # (N, M, d)
    cumulative: np.ndarray  # (N+1, M, d), cumulative[0] == 0
    # (step, degree) -> design, one slot; a design costs M x columns floats
    _design: dict = field(default_factory=dict, init=False, repr=False,
                          compare=False)
    # (step, degree) -> {"degraded": bool, "leverage": array}
    _facts: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    @property
    def terminal(self) -> np.ndarray:
        """B_T, shape (M, d)."""
        return self.cumulative[-1]

    def condition(self, target: np.ndarray, step: int,
                  degree: int | None = None) -> tuple[np.ndarray, bool]:
        """Regression of a node-(step+1) payoff on the state at `step`;
        returns (fitted, degraded)."""
        fitted, info = conditional_expectation(self, target, step,
                                               degree=degree, full_output=True)
        return fitted, info.degraded

    def slopes(self, target: np.ndarray, step: int, out: np.ndarray,
               degree: int | None = None) -> None:
        """Write the slope statistic E[target * dB_j | state] / dt of every
        coordinate j into out, shape (M, d)."""
        for j in range(self.dim):
            out[:, j] = conditional_expectation(
                self, target * self.increments[step, :, j], step,
                degree=degree) / self.grid.dt


@dataclass(frozen=True)
class Deterministic:
    """Noiseless stand-in for a PathEnsemble: `paths` identical copies.

    Conditioning is the identity and the slope statistic is zero, so a
    solver handed this object solves the reduced equation without drawing
    or regressing anything.
    """

    grid: TimeGrid
    paths: int = 1
    dim: int = 1

    def __post_init__(self):
        if self.paths < 1 or self.dim < 1:
            raise ValueError(f"paths and dim must be >= 1, got "
                             f"{self.paths} and {self.dim}")

    def condition(self, target: np.ndarray, step: int,
                  degree: int | None = None) -> tuple[np.ndarray, bool]:
        return np.array(target, dtype=float), False

    def slopes(self, target: np.ndarray, step: int, out: np.ndarray,
               degree: int | None = None) -> None:
        out[...] = 0.0


_MASK64 = (1 << 64) - 1


def _step_normals(seed: int, step: int, m: int, d: int) -> np.ndarray:
    # one Philox stream per (seed, step); uniform -> ndtri keeps the draw
    # count per entry fixed, so the first m' rows never depend on m
    key = ((seed & _MASK64) << 64) | (step & _MASK64)
    gen = np.random.Generator(np.random.Philox(key=key))
    u = gen.random((m, d))
    np.clip(u, 5.0e-17, 1.0 - 1.1e-16, out=u)
    return ndtri(u)


def simulate_brownian(grid: TimeGrid, paths: int, dim: int = 1,
                      seed: int = 0) -> PathEnsemble:
    """Sample an ensemble of d-dimensional Brownian paths on the grid."""
    if paths < 1:
        raise ValueError(f"paths must be >= 1, got {paths}")
    if not 1 <= dim <= 8:
        raise ValueError(f"dim must be in [1, 8], got {dim}")
    n = grid.steps
    root_dt = math.sqrt(grid.dt)
    db = np.empty((n, paths, dim))
    for i in range(n):
        db[i] = _step_normals(seed, i, paths, dim) * root_dt
    b = np.empty((n + 1, paths, dim))
    b[0] = 0.0
    np.cumsum(db, axis=0, out=b[1:])
    db.flags.writeable = False
    b.flags.writeable = False
    return PathEnsemble(grid=grid, paths=paths, dim=dim, seed=seed,
                        increments=db, cumulative=b)


# ---------------------------------------------------------------------------
# conditional expectation by least-squares projection
# ---------------------------------------------------------------------------

@dataclass
class RegressionInfo:
    coefficients: np.ndarray
    degraded: bool
    residual_std: float
    ensemble: PathEnsemble = field(repr=False)
    step: int
    degree: int | None

    @property
    def leverage(self) -> np.ndarray:
        """Hat-matrix diagonal per path, computed on first read (read-only)."""
        return _leverage(self.ensemble, self.step, self.degree)


def _resolved_degree(ensemble: PathEnsemble, degree: int | None) -> int:
    if degree is None:
        return 3 if ensemble.dim == 1 else 2
    return degree


def basis_matrix(ensemble: PathEnsemble, step: int,
                 degree: int | None = None) -> np.ndarray:
    """Polynomial design matrix in the coordinates of B at node `step`.

    Degree defaults to 3 for dim 1 and total degree 2 otherwise. At step 0
    the state is the constant origin, so only the intercept column is kept.
    """
    if step == 0:
        return np.ones((ensemble.paths, 1))
    x = ensemble.cumulative[step]  # (M, d)
    d = ensemble.dim
    degree = _resolved_degree(ensemble, degree)
    if d == 1:
        v = x[:, 0]
        return np.vander(v, degree + 1, increasing=True)
    cols = [np.ones(ensemble.paths)]
    cols.extend(x[:, j] for j in range(d))
    if degree >= 2:
        for j in range(d):
            for k in range(j, d):
                cols.append(x[:, j] * x[:, k])
    return np.column_stack(cols)


def _cached_design(ensemble: PathEnsemble, key: tuple) -> np.ndarray:
    # one slot: the regressions of a backward step share one design, and
    # keeping every step's design would cost M x columns floats per step
    slot = ensemble._design
    x = slot.get(key)
    if x is None:
        x = basis_matrix(ensemble, *key)
        x.flags.writeable = False
        slot.clear()
        slot[key] = x
    return x


def _ridge_gram(x: np.ndarray) -> np.ndarray:
    return x.T @ x + 1.0e-8 * np.eye(x.shape[1])


def _leverage(ensemble: PathEnsemble, step: int,
              degree: int | None) -> np.ndarray:
    """Hat-matrix diagonal of the (step, degree) design, cached on the
    ensemble; the ridge hat matrix when lstsq finds the design
    rank-deficient."""
    key = (step, _resolved_degree(ensemble, degree))
    facts = ensemble._facts.setdefault(key, {})
    lev = facts.get("leverage")
    if lev is None:
        x = _cached_design(ensemble, key)
        if "degraded" not in facts:
            rank = np.linalg.lstsq(x, np.ones(ensemble.paths), rcond=None)[2]
            facts["degraded"] = bool(rank < x.shape[1])
        if facts["degraded"]:
            lev = np.einsum("ij,ij->i", x @ np.linalg.inv(_ridge_gram(x)), x)
        else:
            q, _ = np.linalg.qr(x)
            lev = np.einsum("ij,ij->i", q, q)
        lev.flags.writeable = False
        facts["leverage"] = lev
    return lev


def extrapolated_nodes(ensemble: PathEnsemble,
                       degree: int | None = None) -> np.ndarray:
    """(N+1, M) mask of path-nodes whose regression leverage exceeds ten
    times the node mean.

    Only rows 1..N-1 can be set: row 0 is a constant design, where every
    path has the same leverage, and row N is never regressed.
    """
    n = ensemble.grid.steps
    out = np.zeros((n + 1, ensemble.paths), dtype=bool)
    for i in range(1, n):
        lev = _leverage(ensemble, i, degree)
        out[i] = lev > 10.0 * float(lev.mean())
    return out


def conditional_expectation(ensemble: PathEnsemble, target: np.ndarray,
                            step: int, degree: int | None = None,
                            full_output: bool = False):
    """Project a node-(step+1) payoff onto polynomial functions of B at `step`.

    Returns the fitted values per path; with full_output, also a
    RegressionInfo carrying the fit diagnostics. Rank-deficient designs fall
    back to ridge with penalty 1e-8 and set the degraded flag.
    """
    y = np.asarray(target, dtype=float).reshape(-1)
    if y.shape[0] != ensemble.paths:
        raise ValueError(f"target has {y.shape[0]} entries for "
                         f"{ensemble.paths} paths")
    key = (step, _resolved_degree(ensemble, degree))
    x = _cached_design(ensemble, key)
    ncols = x.shape[1]
    coef, _, rank, _ = np.linalg.lstsq(x, y, rcond=None)
    degraded = bool(rank < ncols)
    ensemble._facts.setdefault(key, {}).setdefault("degraded", degraded)
    if degraded:
        coef = np.linalg.solve(_ridge_gram(x), x.T @ y)
    fitted = x @ coef
    if not full_output:
        return fitted
    resid = y - fitted
    dof = max(ensemble.paths - ncols, 1)
    resid_std = float(np.sqrt(resid @ resid / dof))
    info = RegressionInfo(coefficients=coef, degraded=degraded,
                          residual_std=resid_std, ensemble=ensemble,
                          step=step, degree=degree)
    return fitted, info


# ---------------------------------------------------------------------------
# Girsanov reweighting
# ---------------------------------------------------------------------------

@dataclass
class GirsanovResult:
    weights: np.ndarray      # (M,), weight over [0, T]
    cumulative: np.ndarray   # (N+1, M), weight over [0, t_i]
    clamped: int             # number of (step, path) points rescaled to the bound


def girsanov_weights(ensemble: PathEnsemble, drift: np.ndarray,
                     bound: float) -> GirsanovResult:
    """Exponential-martingale weights exp(int b.dB - 1/2 int |b|^2 dt).

    `drift` must broadcast to (N, M, d); any point with |b| > bound is
    rescaled onto the bound and counted, never rejected.
    """
    if not bound > 0.0:
        raise ValueError(f"bound must be > 0, got {bound}")
    n, m, d = ensemble.increments.shape
    b = np.broadcast_to(np.asarray(drift, dtype=float), (n, m, d)).copy()
    norms = np.sqrt(np.einsum("imd,imd->im", b, b))
    over = norms > bound
    clamped = int(np.count_nonzero(over))
    if clamped:
        scale = np.ones_like(norms)
        scale[over] = bound / norms[over]
        b *= scale[:, :, None]
    dt = ensemble.grid.dt
    log_inc = (np.einsum("imd,imd->im", b, ensemble.increments)
               - 0.5 * dt * np.einsum("imd,imd->im", b, b))
    log_cum = np.vstack([np.zeros((1, m)), np.cumsum(log_inc, axis=0)])
    cumulative = np.exp(log_cum)
    return GirsanovResult(weights=cumulative[-1], cumulative=cumulative,
                          clamped=clamped)


# ---------------------------------------------------------------------------
# terminal-value samplers
# ---------------------------------------------------------------------------

_TERMINAL_KINDS = ("constant", "lognormal", "indicator", "zero",
                   "floored_lognormal", "shifted_lognormal")


@dataclass(frozen=True)
class TerminalSpec:
    """Recipe for the terminal value as a function of B_T.

    kinds:
      constant(value)                 value on every path, value >= 0
      lognormal(mean, sigma)          mean * exp(sigma B_T - sigma^2 T / 2)
      indicator(threshold, shift)     1_{B_T > threshold} + shift
      zero                            0 on every path
      floored_lognormal(mean, sigma, floor)   max(lognormal, floor)
      shifted_lognormal(mean, sigma, shift)   lognormal + shift
    """

    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in _TERMINAL_KINDS:
            raise ValueError(f"unknown terminal kind {self.kind!r}; "
                             f"expected one of {_TERMINAL_KINDS}")
        p = self.params
        if self.kind == "constant" and not p.get("value", 1.0) >= 0.0:
            raise ValueError(f"constant terminal value must be >= 0, "
                             f"got {p['value']}")
        if self.kind in ("lognormal", "floored_lognormal", "shifted_lognormal"):
            if not p.get("mean", 1.0) > 0.0:
                raise ValueError("lognormal mean must be > 0")
        if self.kind == "shifted_lognormal" and p.get("shift", 0.0) < 0.0:
            raise ValueError("shift must be >= 0")


def sample_terminal(spec: TerminalSpec, ensemble: PathEnsemble) -> np.ndarray:
    """Evaluate the terminal recipe on each path; returns shape (M,)."""
    bt = ensemble.terminal[:, 0]  # first coordinate carries the payoff
    p = spec.params
    if spec.kind == "zero":
        return np.zeros(ensemble.paths)
    if spec.kind == "constant":
        return np.full(ensemble.paths, float(p.get("value", 1.0)))
    if spec.kind == "indicator":
        thr = float(p.get("threshold", 0.0))
        shift = float(p.get("shift", 0.0))
        return (bt > thr).astype(float) + shift
    mean = float(p.get("mean", 1.0))
    sigma = float(p.get("sigma", 0.5))
    t = ensemble.grid.horizon
    ln = mean * np.exp(sigma * bt - 0.5 * sigma * sigma * t)
    if spec.kind == "lognormal":
        return ln
    if spec.kind == "floored_lognormal":
        return np.maximum(ln, float(p.get("floor", 0.0)))
    return ln + float(p.get("shift", 0.0))
