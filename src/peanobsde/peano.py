"""Concave modulus functions and their convex-duality toolkit.

A *Peano-type* modulus is a concave, nondecreasing rho: [0,inf) -> [0,inf)
with rho(0)=0, rho(x)>0 for x>0, an unbounded slope at 0+, and a finite
reciprocal integral int_0+ dx/rho(x).  When the reciprocal integral diverges
the function is Osgood-type; when rho(x)/x stays bounded it is plain
Lipschitz.  This module provides ten built-in families, a sampled shape
audit, Fenchel conjugates rho*(q) = sup_x (rho(x) - q x), the reciprocal
integral H_c(u) = int_0^u dx/(c + rho(x)) with its inverse, an exponential
growth bound on H_c^{-1}, and a numeric classifier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy import integrate, optimize

__all__ = [
    "InvalidParamsError",
    "DivergentIntegralError",
    "DivergentSupremumError",
    "PeanoFunction",
    "ConjugateValue",
    "ClassificationResult",
    "GrowthBoundReport",
    "make_family",
    "scale_function",
    "conjugate",
    "inf_representation",
    "tangent_control",
    "integral_H",
    "inverse_H",
    "growth_bound_check",
    "classify",
    "FAMILY_NAMES",
]


class InvalidParamsError(ValueError):
    """Family parameters fail validation or the sampled shape audit."""


class DivergentIntegralError(ArithmeticError):
    """Reciprocal integral diverges at 0 (c = 0 with a non-Peano modulus)."""


class DivergentSupremumError(ArithmeticError):
    """A supremum over x >= 0 grows without bound (objective still rising at 1e8)."""


_SEARCH_LIMIT = 1e8  # divergence is declared when an objective still rises here


@dataclass(frozen=True)
class PeanoFunction:
    """Concave nondecreasing modulus with vectorised evaluation.

    eval_fn / deriv_fn accept float arrays; deriv_fn is only queried at
    strictly positive arguments.  slope_at_infinity is the asymptotic slope
    (0 for saturating families, the continuation slope for piecewise ones).
    search_bound, when set, brackets every conjugate maximiser.
    """

    family: str
    params: dict
    eval_fn: Callable = field(repr=False)
    deriv_fn: Callable = field(repr=False)
    slope_at_infinity: float
    conjugate_analytic: Callable | None = field(default=None, repr=False)
    h_analytic: Callable | None = field(default=None, repr=False)  # c=0 only
    search_bound: float | None = None
    # stable form of e^-u / rho(e^-u), valid for u >= tail_from; avoids the
    # underflow of e^-u past u ~ 745 in reciprocal-integral tails
    tail_fn: Callable | None = field(default=None, repr=False)
    tail_from: float = 4.0
    # closed form of int_{u0}^inf tail_fn du, for tails that decay too slowly
    # for quadrature on the infinite interval
    tail_integral: Callable | None = field(default=None, repr=False)
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __call__(self, x):
        arr = np.asarray(x, dtype=float)
        out = np.asarray(self.eval_fn(arr), dtype=float)
        if arr.shape == ():
            return float(out.reshape(-1)[0])
        return out.reshape(arr.shape)

    def deriv(self, x):
        arr = np.asarray(x, dtype=float)
        if arr.shape == ():
            if arr == 0.0:
                # +inf sentinel when the slope at 0+ is unbounded: the slope
                # of a concave modulus is nonincreasing, so growth between two
                # probes means divergence
                d_outer = float(np.asarray(self.deriv_fn(np.asarray(1e-8))).reshape(-1)[0])
                d_inner = float(np.asarray(self.deriv_fn(np.asarray(1e-300))).reshape(-1)[0])
                return math.inf if d_inner > d_outer * 1.5 else d_inner
            return float(np.asarray(self.deriv_fn(arr)).reshape(-1)[0])
        return np.asarray(self.deriv_fn(arr), dtype=float).reshape(arr.shape)


@dataclass(frozen=True)
class ConjugateValue:
    q: float
    value: float
    is_infinite: bool = False


# ---------------------------------------------------------------------------
# built-in families
# ---------------------------------------------------------------------------

FAMILY_NAMES = (
    "rho1", "rho2", "rho3", "rho4", "rho5",
    "rho6", "rho7", "rho8", "rho9", "rho10",
)

_DEFAULTS = {
    "rho1": {"k": 1.0},
    "rho2": {"beta": 1.0, "eps": math.exp(-2.0)},
    "rho3": {"beta": 1.0, "eps": math.exp(-3.0)},
    "rho4": {"alpha": 0.5, "eps": math.exp(-2.0)},
    "rho5": {"alpha": 0.5, "eps": math.exp(-3.0)},
    "rho6": {"k": 1.0, "alpha": 0.5},
    "rho7": {"k": 1.0, "alpha": 0.5, "c": 1.0},
    "rho8": {},
    "rho9": {"k": 1.0, "alpha": 0.5, "eps": math.exp(-2.0)},
    "rho10": {"k": 1.0, "alpha": 0.5, "eps": math.exp(-4.0)},
}


def _power_conjugate(k: float, a: float):
    # sup_x (k x^a - q x) = (1-a) k (a k / q)^(a/(1-a)) for q > 0
    def conj(q: float) -> ConjugateValue:
        if q <= 0.0:
            return ConjugateValue(q, math.inf, True)
        val = (1.0 - a) * k * (a * k / q) ** (a / (1.0 - a))
        return ConjugateValue(q, val, False)

    return conj


def _with_linear_tail(inner, inner_deriv, eps: float):
    """Continue an inner piece on [0, eps] linearly with its left slope."""
    s = float(inner_deriv(np.asarray(eps)))
    v_eps = float(inner(np.asarray(eps)))

    def ev(x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.empty_like(x)
        lo = x <= eps
        with np.errstate(divide="ignore", invalid="ignore"):
            out[lo] = np.where(x[lo] > 0.0, inner(np.clip(x[lo], 1e-320, None)), 0.0)
        out[~lo] = v_eps + s * (x[~lo] - eps)
        return out

    def dv(x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.full_like(x, s)
        lo = x <= eps
        out[lo] = inner_deriv(np.clip(x[lo], 1e-320, None))
        return out

    return ev, dv, s, v_eps


def _build_family(family: str, p: dict):
    """Return (eval, deriv, slope_inf, conj_analytic, h_analytic, search_bound)."""
    if family == "rho1":
        k = p["k"]

        def conj(q):
            return ConjugateValue(q, 0.0, False) if q >= k else ConjugateValue(q, math.inf, True)

        return (lambda x: k * x, lambda x: np.full_like(np.asarray(x, float), k),
                k, conj, None, None, lambda u: np.full_like(np.asarray(u, float), 1.0 / k), 0.0)

    if family in ("rho2", "rho4"):
        a = p["beta"] if family == "rho2" else 1.0 + p["alpha"]
        eps = p["eps"]

        def inner(x):
            L = -np.log(x)
            return x * L ** a

        def inner_deriv(x):
            L = -np.log(x)
            return L ** (a - 1.0) * (L - a)

        ev, dv, s, _ = _with_linear_tail(inner, inner_deriv, eps)
        return (ev, dv, s, None, None, eps,
                lambda u: np.asarray(u, float) ** -a, -math.log(eps),
                (lambda u0: u0 ** (1.0 - a) / (a - 1.0)) if a > 1.0 else None)

    if family in ("rho3", "rho5"):
        a = p["beta"] if family == "rho3" else 1.0 + p["alpha"]
        eps = p["eps"]

        def inner(x):
            L = -np.log(x)
            Mv = np.log(L)
            return x * L * Mv ** a

        def inner_deriv(x):
            L = -np.log(x)
            Mv = np.log(L)
            return Mv ** (a - 1.0) * ((L - 1.0) * Mv - a)

        ev, dv, s, _ = _with_linear_tail(inner, inner_deriv, eps)
        return (ev, dv, s, None, None, eps,
                lambda u: 1.0 / (np.asarray(u, float) * np.log(np.asarray(u, float)) ** a),
                max(-math.log(eps), math.e),
                (lambda u0: math.log(u0) ** (1.0 - a) / (a - 1.0)) if a > 1.0 else None)

    if family == "rho6":
        k, a = p["k"], p["alpha"]

        def h_an(u):
            return u ** (1.0 - a) / (k * (1.0 - a))

        return (lambda x: k * np.asarray(x, float) ** a,
                lambda x: k * a * np.asarray(x, float) ** (a - 1.0),
                0.0, _power_conjugate(k, a), h_an, None,
                lambda u: np.exp(-(1.0 - a) * np.asarray(u, float)) / k, 0.0,
                lambda u0: math.exp(-(1.0 - a) * u0) / (k * (1.0 - a)))

    if family == "rho7":
        k, a, c = p["k"], p["alpha"], p["c"]
        s = k * a * c ** (a - 1.0)
        v_c = k * c ** a

        def ev(x):
            x = np.asarray(x, dtype=float)
            return np.where(x <= c, k * x ** a, v_c + s * (x - c))

        def dv(x):
            x = np.asarray(x, dtype=float)
            with np.errstate(divide="ignore"):
                return np.where(x <= c, k * a * np.clip(x, 1e-320, None) ** (a - 1.0), s)

        return (ev, dv, s, None, None, c,
                lambda u: np.exp(-(1.0 - a) * np.asarray(u, float)) / k,
                max(-math.log(c), 0.0) + 1e-12,
                lambda u0: math.exp(-(1.0 - a) * u0) / (k * (1.0 - a)))

    if family == "rho8":
        def ev(x):
            x = np.asarray(x, dtype=float)
            return np.where(x <= 1.0, np.sqrt(np.clip(x, 0.0, None)),
                            np.where(x < 2.0, -x * x / 4.0 + x + 0.25, 1.25))

        def dv(x):
            x = np.asarray(x, dtype=float)
            with np.errstate(divide="ignore"):
                return np.where(x <= 1.0, 0.5 / np.sqrt(np.clip(x, 1e-320, None)),
                                np.where(x < 2.0, 1.0 - x / 2.0, 0.0))

        return (ev, dv, 0.0, None, None, 4.0,
                lambda u: np.exp(-0.5 * np.asarray(u, float)), 0.0,
                lambda u0: 2.0 * math.exp(-0.5 * u0))

    if family == "rho9":
        k, a, eps = p["k"], p["alpha"], p["eps"]

        def inner(x):
            L = -np.log(x)
            return x ** a * L ** k

        def inner_deriv(x):
            L = -np.log(x)
            return x ** (a - 1.0) * L ** (k - 1.0) * (a * L - k)

        ev, dv, s, _ = _with_linear_tail(inner, inner_deriv, eps)
        return (ev, dv, s, None, None, eps,
                lambda u: np.exp(-(1.0 - a) * np.asarray(u, float))
                * np.asarray(u, float) ** -k, -math.log(eps))

    if family == "rho10":
        k, a, eps = p["k"], p["alpha"], p["eps"]

        def inner(x):
            L = -np.log(x)
            return x ** a / L ** k

        def inner_deriv(x):
            L = -np.log(x)
            return x ** (a - 1.0) * L ** (-k - 1.0) * (a * L + k)

        ev, dv, s, _ = _with_linear_tail(inner, inner_deriv, eps)
        return (ev, dv, s, None, None, eps,
                lambda u: np.exp(-(1.0 - a) * np.asarray(u, float))
                * np.asarray(u, float) ** k, -math.log(eps))

    raise InvalidParamsError(f"unknown family {family!r}")


def _validate_params(family: str, p: dict) -> None:
    if "k" in p and not p["k"] > 0.0:
        raise InvalidParamsError(f"{family}: k must be > 0, got {p['k']}")
    if "c" in p and not p["c"] > 0.0:
        raise InvalidParamsError(f"{family}: c must be > 0, got {p['c']}")
    if "alpha" in p and not 0.0 < p["alpha"] < 1.0:
        raise InvalidParamsError(f"{family}: alpha must lie in (0,1), got {p['alpha']}")
    if "beta" in p and not p["beta"] >= 1.0:
        raise InvalidParamsError(f"{family}: beta must be >= 1, got {p['beta']}")
    if "eps" in p and not 0.0 < p["eps"] < math.exp(-1.0):
        # double-log pieces need -ln eps > 1; one bound keeps all families safe
        raise InvalidParamsError(f"{family}: eps must lie in (0, e^-1), got {p['eps']}")


def _audit_shape(fn: PeanoFunction) -> None:
    """Sampled audit: positivity, monotone nondecreasing concave, linear growth.

    Rejection here is the policy for parameter combinations whose stated
    inner piece leaves the increasing+concave region (e.g. eps too large).
    """
    pts = [np.geomspace(1e-10, 1e3, 160)]
    if fn.search_bound is not None:
        b = fn.search_bound
        pts.append(np.linspace(max(b * 0.5, 1e-8), b * 1.5, 40))
    xs = np.unique(np.concatenate(pts))

    vals = fn(xs)
    if not np.all(np.isfinite(vals)):
        raise InvalidParamsError(f"{fn.family}: non-finite values in audit sweep")
    if not np.all(vals > 0.0):
        raise InvalidParamsError(f"{fn.family}: eval must be positive for x > 0")
    if fn(0.0) != 0.0:
        raise InvalidParamsError(f"{fn.family}: eval(0) must be 0")

    der = fn.deriv(xs)
    if np.any(der < -1e-12):
        raise InvalidParamsError(f"{fn.family}: derivative negative in audit sweep")
    if np.any(np.diff(der) > 1e-10 + 1e-10 * np.abs(der[:-1])):
        raise InvalidParamsError(f"{fn.family}: derivative increasing in audit sweep")

    # midpoint concavity over a coarse pair grid
    coarse = xs[:: max(1, len(xs) // 80)]
    a, b = np.meshgrid(coarse, coarse)
    a, b = a.ravel(), b.ravel()
    mid = fn((a + b) / 2.0)
    chord = (fn(a) + fn(b)) / 2.0
    if np.any(mid - chord < -1e-9 * np.maximum(1.0, np.abs(chord))):
        raise InvalidParamsError(f"{fn.family}: concavity violated in audit sweep")

    v1 = fn(1.0)
    if np.any(vals > v1 * (1.0 + xs) * (1.0 + 1e-9) + 1e-12):
        raise InvalidParamsError(f"{fn.family}: linear growth bound eval(1)*(1+x) violated")


def make_family(family: str, **params) -> PeanoFunction:
    """Construct a built-in family, merging defaults and running the shape audit."""
    if family not in FAMILY_NAMES:
        raise InvalidParamsError(f"unknown family {family!r}; expected one of {FAMILY_NAMES}")
    p = dict(_DEFAULTS[family])
    unknown = set(params) - set(p)
    if unknown:
        raise InvalidParamsError(f"{family}: unknown parameters {sorted(unknown)}")
    p.update({k: float(v) for k, v in params.items()})
    _validate_params(family, p)

    built = _build_family(family, p)
    ev, dv, s_inf, conj, h_an, bound, tail, tail_from = built[:8]
    fn = PeanoFunction(family=family, params=p, eval_fn=ev, deriv_fn=dv,
                       slope_at_infinity=s_inf, conjugate_analytic=conj,
                       h_analytic=h_an, search_bound=bound,
                       tail_fn=tail, tail_from=max(tail_from, 4.0),
                       tail_integral=built[8] if len(built) > 8 else None)
    _audit_shape(fn)
    return fn


def scale_function(rho: PeanoFunction, s: float) -> PeanoFunction:
    """Positive multiple s*rho; preserves class and analytic shortcuts."""
    if not s > 0.0:
        raise InvalidParamsError(f"scale must be > 0, got {s}")
    conj = None
    if rho.conjugate_analytic is not None:
        def conj(q, _c=rho.conjugate_analytic, _s=s):
            base = _c(q / _s)
            return ConjugateValue(q, _s * base.value if not base.is_infinite else math.inf,
                                  base.is_infinite)
    h_an = None
    if rho.h_analytic is not None:
        def h_an(u, _h=rho.h_analytic, _s=s):
            return _h(u) / _s
    return PeanoFunction(family="custom",
                         params={"name": f"{s}*{rho.family}", "base": rho.params},
                         eval_fn=lambda x: s * rho.eval_fn(np.asarray(x, float)),
                         deriv_fn=lambda x: s * rho.deriv_fn(np.asarray(x, float)),
                         slope_at_infinity=s * rho.slope_at_infinity,
                         conjugate_analytic=conj, h_analytic=h_an,
                         search_bound=rho.search_bound,
                         tail_fn=None if rho.tail_fn is None
                         else lambda u, _t=rho.tail_fn, _s=s: _t(u) / _s,
                         tail_from=rho.tail_from,
                         tail_integral=None if rho.tail_integral is None
                         else lambda u0, _t=rho.tail_integral, _s=s: _t(u0) / _s)


# ---------------------------------------------------------------------------
# Fenchel conjugate and the inf-representation
# ---------------------------------------------------------------------------

def conjugate(rho: PeanoFunction, q: float) -> ConjugateValue:
    """rho*(q) = sup_{x>=0} (rho(x) - q x); nonincreasing and convex in q."""
    if q < 0.0:
        raise ValueError(f"conjugate requires q >= 0, got {q}")
    if rho.conjugate_analytic is not None:
        return rho.conjugate_analytic(q)

    s_inf = rho.slope_at_infinity
    if q < s_inf * (1.0 - 1e-13):
        return ConjugateValue(q, math.inf, True)

    def h(x):
        return float(rho(x)) - q * x

    hi = rho.search_bound
    if hi is None:
        hi = 1.0
        while float(rho.deriv(hi)) > q and hi < _SEARCH_LIMIT:
            hi *= 4.0
    if hi >= _SEARCH_LIMIT and h(_SEARCH_LIMIT) > h(_SEARCH_LIMIT / 2.0) + 1e-12:
        return ConjugateValue(q, math.inf, True)
    hi = min(hi * 1.5 + 1.0, _SEARCH_LIMIT)

    res = optimize.minimize_scalar(lambda x: -h(x), bounds=(0.0, hi), method="bounded",
                                   options={"xatol": 1e-13})
    val = max(-res.fun, h(0.0), 0.0)
    return ConjugateValue(q, float(val), False)


def inf_representation(rho: PeanoFunction, x: float, q_grid) -> float:
    """inf over the grid of rho*(q) + q x; equals rho(x) when the tangent slope
    at x is included in the grid."""
    qs = np.atleast_1d(np.asarray(q_grid, dtype=float))
    if qs.size == 0:
        raise ValueError("inf_representation: empty control grid")
    best = math.inf
    finite_seen = False
    for q in qs:
        cv = conjugate(rho, float(q))
        if cv.is_infinite:
            continue
        finite_seen = True
        best = min(best, cv.value + float(q) * x)
    if not finite_seen:
        raise ValueError("inf_representation: every conjugate on the grid is infinite")
    return float(best)


def tangent_control(rho: PeanoFunction, x0: float) -> float:
    """Slope rho'(x0); the conjugate at this q is exact: rho(x0) = rho*(q) + q*x0."""
    if not x0 > 0.0:
        raise ValueError(f"tangent_control requires x0 > 0, got {x0}")
    return float(rho.deriv(x0))


# ---------------------------------------------------------------------------
# reciprocal integral H_c and its inverse
# ---------------------------------------------------------------------------

def _tail_quad(rho: PeanoFunction, x_hi: float) -> float:
    # int_0^{x_hi} dx/rho(x) via u = -ln x; integrand e^-u / rho(e^-u) is smooth
    if rho.tail_fn is None:
        raise ValueError(f"{rho.family}: reciprocal-integral tail needs tail_fn")

    def w(u):
        x = math.exp(-u)
        r = float(rho(x))
        if r <= 0.0 or not math.isfinite(r):
            return 0.0  # x underflowed in double precision
        return x / r

    lo = -math.log(x_hi)
    # analytic log-space form past tail_from; immune to e^-u underflow
    split = max(lo, rho.tail_from)
    total = 0.0
    if split > lo:
        v, _ = integrate.quad(w, lo, split, limit=400)
        total += v
    if rho.tail_integral is not None:
        return total + float(rho.tail_integral(split))
    # substitute u = split*e^t so power-decay tails become exponential
    def g(t):
        if t > 700.0:
            return 0.0
        u = split * math.exp(t)
        return float(rho.tail_fn(u)) * u

    v, _ = integrate.quad(g, 0.0, math.inf, limit=400)
    return total + v


def integral_H(rho: PeanoFunction, c: float, u: float) -> float:
    """H_c(u) = int_0^u dx / (c + rho(x)); strictly increasing from 0."""
    if c < 0.0:
        raise ValueError(f"integral_H requires c >= 0, got {c}")
    if u < 0.0:
        raise ValueError(f"integral_H requires u >= 0, got {u}")
    if u == 0.0:
        return 0.0
    if c == 0.0:
        cls = classify(rho)
        if cls.label != "peano":
            raise DivergentIntegralError(
                f"integral of 1/rho diverges at 0 for class {cls.label!r}")
        if rho.h_analytic is not None:
            return float(rho.h_analytic(u))
        x_split = min(u, 1e-2)
        total = _tail_quad(rho, x_split)
        if u > x_split:
            v, _ = integrate.quad(lambda x: 1.0 / float(rho(x)), x_split, u, limit=400)
            total += v
        return total
    val, _ = integrate.quad(lambda x: 1.0 / (c + float(rho(x))), 0.0, u, limit=400)
    return val


def inverse_H(rho: PeanoFunction, c: float, v: float) -> float:
    """u with H_c(u) = v, by bracketing and Brent root finding."""
    if v < 0.0:
        raise ValueError(f"inverse_H requires v >= 0, got {v}")
    if v == 0.0:
        return 0.0
    hi = 1.0
    while integral_H(rho, c, hi) < v:
        hi *= 2.0
        if hi > 1e12:
            raise DivergentIntegralError("inverse_H: bracket exceeded 1e12")
    return float(optimize.brentq(lambda x: integral_H(rho, c, x) - v, 0.0, hi,
                                 xtol=1e-14, rtol=8.9e-16, maxiter=200))


@dataclass(frozen=True)
class GrowthBoundReport:
    lhs_inverse: float
    rhs_inverse: float
    lhs_modulus: float
    rhs_modulus: float

    @property
    def passed(self) -> bool:
        tol = 1e-9
        return (self.lhs_inverse <= self.rhs_inverse * (1.0 + tol) + tol
                and self.lhs_modulus <= self.rhs_modulus * (1.0 + tol) + tol)


def growth_bound_check(rho: PeanoFunction, c: float, k1: float, k2: float,
                       k3: float) -> GrowthBoundReport:
    """Exponential domination of H_c^{-1}(k1+k2) and of the shifted modulus.

    Both sides of
        H_c^{-1}(k1+k2)          <= 2 e^{k2 (rho(1)+c)} H_c^{-1}(k1)
        rho_c(k3 H_c^{-1}(k1+k2)) <= 2 e^{k2 (rho(1)+c)} rho_c(k3 H_c^{-1}(k1))
    are evaluated numerically (rho_c = rho + c).  Requires k1 >= H_c(1).
    """
    if k2 <= 0.0 or k3 <= 0.0:
        raise ValueError("growth_bound_check requires k2 > 0 and k3 > 0")
    h_at_1 = integral_H(rho, c, 1.0)
    if k1 < h_at_1 - 1e-12:
        raise ValueError(f"growth_bound_check requires k1 >= H_c(1) = {h_at_1}, got {k1}")
    factor = 2.0 * math.exp(k2 * (float(rho(1.0)) + c))
    inv_sum = inverse_H(rho, c, k1 + k2)
    inv_k1 = inverse_H(rho, c, k1)
    return GrowthBoundReport(
        lhs_inverse=inv_sum,
        rhs_inverse=factor * inv_k1,
        lhs_modulus=float(rho(k3 * inv_sum)) + c,
        rhs_modulus=factor * (float(rho(k3 * inv_k1)) + c),
    )


# ---------------------------------------------------------------------------
# classifier
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClassificationResult:
    label: str  # "lipschitz" | "osgood" | "peano"
    inconclusive: bool
    ratio_values: tuple
    tail_increments: tuple


def _tail_increments(rho: PeanoFunction, levels: int = 7):
    """Increments of int 1/rho over x in [e^-2u_j, e^-u_j], u_j = 4 * 2^j."""
    us = 4.0 * 2.0 ** np.arange(levels)

    def w(u):
        x = math.exp(-u)
        r = float(rho(x))
        if r <= 0.0 or not math.isfinite(r):
            return 0.0
        return x / r

    deltas = []
    for lo, hi in zip(us[:-1], us[1:]):
        val, _ = integrate.quad(w, lo, hi, limit=200)
        deltas.append(max(val, 0.0))
    return np.asarray(deltas), us


def _tail_verdict(deltas: np.ndarray, us: np.ndarray) -> str:
    total = float(np.sum(deltas))
    if deltas[-1] <= 1e-9 * max(total, 1e-12):
        return "peano"  # tail already negligible: integral converges
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = deltas[1:] / deltas[:-1]
    ratios = ratios[np.isfinite(ratios)]
    if ratios.size < 2:
        return "peano"
    trend = float(ratios[-1] - ratios[0])
    if trend > 0.03:
        # ratio creeping toward 1: increments behave like (ln u)^-c; the
        # boundary between divergence and convergence sits at c = 1
        u_mid = np.sqrt(us[:-1] * us[1:])
        c_est = -math.log(max(ratios[-1], 1e-300)) / math.log(
            math.log(u_mid[-1]) / math.log(u_mid[-2]))
        return "osgood" if c_est <= 1.25 else "peano"
    flat = float(np.mean(ratios[-2:]))
    return "osgood" if flat >= 0.97 else "peano"


def classify(rho: PeanoFunction) -> ClassificationResult:
    """Numeric class of the modulus near 0: lipschitz, osgood or peano.

    Bounded rho(x)/x on probes 10^-1..10^-12 means lipschitz.  Otherwise the
    reciprocal-integral tail is probed on dyadic windows in u = -ln x; the
    verdict is flagged inconclusive when dropping the deepest window flips it.
    Results are cached on the function.
    """
    cached = rho._cache.get("classification")
    if cached is not None:
        return cached

    probes = 10.0 ** -np.arange(1, 13)
    ratios = np.asarray(rho(probes), dtype=float) / probes
    bounded = np.isfinite(ratios[-1]) and ratios[-1] <= ratios[-7] * 1.02 + 1e-12
    if bounded:
        result = ClassificationResult("lipschitz", False, tuple(ratios), ())
        rho._cache["classification"] = result
        return result

    deltas, us = _tail_increments(rho)
    label = _tail_verdict(deltas, us)
    label_shallow = _tail_verdict(deltas[:-1], us[:-1])
    result = ClassificationResult(label, label != label_shallow,
                                  tuple(ratios), tuple(deltas))
    rho._cache["classification"] = result
    return result

