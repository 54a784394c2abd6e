import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from peanobsde import peano as P


ALL_FAMILIES = list(P.FAMILY_NAMES)


def brute_force_conjugate(fn, q, hi=1e6, n=200_001):
    xs = np.concatenate([[0.0], np.geomspace(1e-12, hi, n)])
    return float(np.max(fn(xs) - q * xs))


# ---------------------------------------------------------------------------
# construction and evaluation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_families_build_with_defaults(family):
    fn = P.make_family(family)
    assert fn(0.0) == 0.0
    xs = np.geomspace(1e-9, 100.0, 50)
    assert np.all(fn(xs) > 0.0)
    assert np.all(np.isfinite(fn(xs)))


def test_linear_family_values():
    fn = P.make_family("rho1", k=2.0)
    assert fn(3.0) == pytest.approx(6.0)
    assert fn.deriv(5.0) == pytest.approx(2.0)
    assert fn.deriv(0.0) == pytest.approx(2.0)  # finite slope at 0


def test_saturating_family_pinned_values():
    fn = P.make_family("rho8")
    assert fn(0.25) == pytest.approx(0.5)
    assert fn(1.0) == pytest.approx(1.0)
    assert fn(1.5) == pytest.approx(-1.5 ** 2 / 4 + 1.5 + 0.25)
    assert fn(2.0) == pytest.approx(1.25)
    assert fn(10.0) == pytest.approx(1.25)


def test_piecewise_families_continuous_at_cut():
    for family in ("rho2", "rho3", "rho4", "rho5", "rho9", "rho10"):
        fn = P.make_family(family)
        eps = fn.params["eps"]
        left = fn(eps * (1 - 1e-9))
        right = fn(eps * (1 + 1e-9))
        assert right == pytest.approx(left, rel=1e-6)


def test_power_family_scalar_and_array_agree():
    fn = P.make_family("rho6", k=2.0, alpha=0.5)
    assert isinstance(fn(4.0), float)
    assert fn(4.0) == pytest.approx(4.0)
    np.testing.assert_allclose(fn(np.array([1.0, 4.0])), [2.0, 4.0])


def test_unbounded_slope_sentinel():
    assert P.make_family("rho6").deriv(0.0) == math.inf
    assert P.make_family("rho2").deriv(0.0) == math.inf


def test_param_validation_rejections():
    with pytest.raises(P.InvalidParamsError):
        P.make_family("rho6", alpha=1.5)
    with pytest.raises(P.InvalidParamsError):
        P.make_family("rho6", k=-1.0)
    with pytest.raises(P.InvalidParamsError):
        P.make_family("rho2", beta=0.5)
    with pytest.raises(P.InvalidParamsError):
        P.make_family("rho2", eps=0.5)  # outside (0, e^-1)
    with pytest.raises(P.InvalidParamsError):
        P.make_family("nope")
    with pytest.raises(P.InvalidParamsError):
        P.make_family("rho6", gamma=1.0)


def test_shape_audit_rejects_nonmonotone_cut():
    # with beta=2.5 the stated piece is already decreasing at x = e^-2
    with pytest.raises(P.InvalidParamsError):
        P.make_family("rho2", beta=2.5, eps=math.exp(-2.0))
    # the same parameters pass with a deeper cut
    P.make_family("rho2", beta=2.5, eps=math.exp(-4.0))


# ---------------------------------------------------------------------------
# conjugate
# ---------------------------------------------------------------------------

def test_conjugate_linear_family():
    fn = P.make_family("rho1", k=2.0)
    assert P.conjugate(fn, 2.0).value == 0.0
    assert P.conjugate(fn, 3.0).value == 0.0
    assert P.conjugate(fn, 1.0).is_infinite


def test_conjugate_sqrt_closed_form():
    fn = P.make_family("rho6")  # sqrt
    for q in (0.25, 0.5, 1.0, 4.0):
        cv = P.conjugate(fn, q)
        assert not cv.is_infinite
        assert cv.value == pytest.approx(1.0 / (4.0 * q), rel=1e-12)
    assert P.conjugate(fn, 0.0).is_infinite


def test_conjugate_rejects_negative_q():
    with pytest.raises(ValueError):
        P.conjugate(P.make_family("rho6"), -0.5)


def test_conjugate_saturating_family_at_zero():
    fn = P.make_family("rho8")
    cv = P.conjugate(fn, 0.0)
    assert not cv.is_infinite
    assert cv.value == pytest.approx(1.25, abs=1e-9)


@pytest.mark.parametrize("family,q", [("rho7", 0.6), ("rho8", 0.3), ("rho2", 1.5)])
def test_conjugate_matches_brute_force(family, q):
    fn = P.make_family(family)
    cv = P.conjugate(fn, q)
    assert not cv.is_infinite
    assert cv.value == pytest.approx(brute_force_conjugate(fn, q), rel=1e-6, abs=1e-9)


def test_conjugate_below_tail_slope_is_infinite():
    fn = P.make_family("rho7")  # tail slope 0.5
    assert P.conjugate(fn, 0.4).is_infinite
    assert not P.conjugate(fn, 0.5).is_infinite


def test_conjugate_is_nonincreasing_in_q():
    fn = P.make_family("rho9")
    qs = np.linspace(0.2, 5.0, 12)
    vals = [P.conjugate(fn, float(q)).value for q in qs]
    assert all(a >= b - 1e-10 for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# inf representation and tangent control
# ---------------------------------------------------------------------------

def test_inf_representation_single_point():
    fn = P.make_family("rho6")
    assert P.inf_representation(fn, 4.0, [1.0]) == pytest.approx(4.25)


def test_inf_representation_with_tangent_is_exact():
    fn = P.make_family("rho6")
    for x in (0.01, 0.5, 2.0, 50.0):
        grid = list(np.geomspace(1e-3, 1e3, 25)) + [P.tangent_control(fn, x)]
        assert P.inf_representation(fn, x, grid) == pytest.approx(fn(x), rel=1e-9)


def test_inf_representation_error_paths():
    fn = P.make_family("rho1", k=2.0)
    with pytest.raises(ValueError):
        P.inf_representation(fn, 1.0, [])
    with pytest.raises(ValueError):
        P.inf_representation(fn, 1.0, [0.5, 1.0])  # all below the slope


def test_tangent_control():
    fn = P.make_family("rho6")
    assert P.tangent_control(fn, 4.0) == pytest.approx(0.25)
    with pytest.raises(ValueError):
        P.tangent_control(fn, 0.0)


# ---------------------------------------------------------------------------
# reciprocal integral H_c
# ---------------------------------------------------------------------------

def test_integral_H_sqrt_closed_forms():
    fn = P.make_family("rho6")
    assert P.integral_H(fn, 0.0, 4.0) == pytest.approx(4.0, rel=1e-10)
    # independent antiderivative for c=1: 2 sqrt(u) - 2 ln(1 + sqrt(u))
    for u in (0.3, 1.0, 5.0):
        expect = 2 * math.sqrt(u) - 2 * math.log(1 + math.sqrt(u))
        assert P.integral_H(fn, 1.0, u) == pytest.approx(expect, rel=1e-8)


def test_integral_H_power_two_thirds():
    fn = P.make_family("rho6", alpha=2.0 / 3.0)
    assert P.integral_H(fn, 0.0, 1.0) == pytest.approx(3.0, rel=1e-10)


def test_integral_H_linear_family_with_offset():
    fn = P.make_family("rho1", k=2.0)
    # int_0^u dx/(c + k x) = ln(1 + k u / c) / k
    assert P.integral_H(fn, 1.0, 3.0) == pytest.approx(math.log(7.0) / 2.0, rel=1e-9)


def test_integral_H_divergent_cases():
    with pytest.raises(P.DivergentIntegralError):
        P.integral_H(P.make_family("rho2"), 0.0, 1.0)
    with pytest.raises(P.DivergentIntegralError):
        P.integral_H(P.make_family("rho1"), 0.0, 1.0)


def test_integral_H_piecewise_peano_family():
    fn = P.make_family("rho4")
    val = P.integral_H(fn, 0.0, 0.01)
    # oracle: substitute u=-ln x; integrand u^{-3/2} on [ln 100, inf)
    lo = math.log(100.0)
    expect = 2.0 / math.sqrt(lo)
    assert val == pytest.approx(expect, rel=1e-6)


def test_integral_H_doubly_logarithmic_tail():
    # oracle for the x*L*(ln L)^{3/2} family: two substitutions give
    # int_0^w dx/rho = 2 / sqrt(ln(-ln w)) when w is inside the inner piece
    fn = P.make_family("rho5")
    val = P.integral_H(fn, 0.0, 1e-3)
    expect = 2.0 / math.sqrt(math.log(math.log(1e3)))
    assert val == pytest.approx(expect, rel=1e-9)


def test_integral_H_without_closed_tail():
    # rho10 has a tail_fn but no tail_integral, which forces the
    # substitution u = split*e^t; 0.01 lies inside its inner piece
    # x^(1/2) / ln(1/x), whose reciprocal integrates in closed form:
    # int_0^w x^(-1/2) ln(1/x) dx = 2 sqrt(w) (ln(1/w) + 2)
    fn = P.make_family("rho10")
    assert fn.tail_fn is not None and fn.tail_integral is None
    val = P.integral_H(fn, 0.0, 0.01)
    assert val == pytest.approx(0.2 * (math.log(100.0) + 2.0), rel=1e-8)


def test_integral_H_needs_a_tail_fn():
    # every built-in family sets tail_fn; a hand-built modulus without one
    # is refused rather than extrapolated
    fn = P.PeanoFunction(family="custom", params={"name": "sqrt"},
                         eval_fn=np.sqrt, deriv_fn=lambda x: 0.5 / np.sqrt(x),
                         slope_at_infinity=0.0)
    assert P.classify(fn).label == "peano"
    with pytest.raises(ValueError, match="tail_fn"):
        P.integral_H(fn, 0.0, 0.01)


@settings(max_examples=40, deadline=None)
@given(u=st.floats(min_value=1e-6, max_value=1e3), c=st.sampled_from([0.0, 0.5, 1.0]))
def test_inverse_H_round_trip(u, c):
    fn = P.make_family("rho6")
    v = P.integral_H(fn, c, u)
    back = P.inverse_H(fn, c, v)
    assert back == pytest.approx(u, rel=1e-8, abs=1e-12)


def test_inverse_H_validation():
    with pytest.raises(ValueError):
        P.inverse_H(P.make_family("rho6"), 0.0, -1.0)
    assert P.inverse_H(P.make_family("rho6"), 0.0, 0.0) == 0.0


# ---------------------------------------------------------------------------
# growth bound
# ---------------------------------------------------------------------------

def test_growth_bound_sqrt_frozen_values():
    fn = P.make_family("rho6")
    rep = P.growth_bound_check(fn, 0.0, 2.0, 1.0, 1.0)
    assert rep.lhs_inverse == pytest.approx(2.25, rel=1e-8)
    assert rep.rhs_inverse == pytest.approx(2.0 * math.e, rel=1e-8)
    assert rep.lhs_modulus == pytest.approx(1.5, rel=1e-8)
    assert rep.rhs_modulus == pytest.approx(2.0 * math.e, rel=1e-8)
    assert rep.passed


def test_growth_bound_with_offset_passes():
    fn = P.make_family("rho6")
    h1 = P.integral_H(fn, 1.0, 1.0)
    rep = P.growth_bound_check(fn, 1.0, h1, 1.0, 2.0)
    assert rep.passed


def test_growth_bound_precondition():
    fn = P.make_family("rho6")
    with pytest.raises(ValueError):
        P.growth_bound_check(fn, 0.0, 0.1, 1.0, 1.0)  # k1 < H_0(1) = 2


@settings(max_examples=25, deadline=None)
@given(k2=st.floats(min_value=0.05, max_value=2.0),
       k3=st.floats(min_value=0.1, max_value=3.0))
def test_growth_bound_property_sqrt(k2, k3):
    fn = P.make_family("rho6")
    rep = P.growth_bound_check(fn, 0.0, 2.5, k2, k3)
    assert rep.passed


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

EXPECTED_CLASS = {
    "rho1": "lipschitz",
    "rho2": "osgood",
    "rho3": "osgood",
    "rho4": "peano",
    "rho5": "peano",
    "rho6": "peano",
    "rho7": "peano",
    "rho8": "peano",
    "rho9": "peano",
    "rho10": "peano",
}


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_classify_builtin_families(family):
    res = P.classify(P.make_family(family))
    assert res.label == EXPECTED_CLASS[family]
    assert not res.inconclusive


def test_classify_honest_on_borderline_custom():
    # x |ln x|^(1/2) has a divergent reciprocal integral: osgood, not peano
    def ev(x):
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            inner = x * np.abs(np.log(np.clip(x, 1e-320, None))) ** 0.5
        return np.where(x > 0.0, inner, 0.0)

    def dv(x):
        x = np.clip(np.asarray(x, dtype=float), 1e-320, None)
        L = -np.log(x)
        return np.where(L > 0.5, L ** (-0.5) * (L - 0.5), 0.0)

    fn = P.PeanoFunction(family="custom", params={"name": "x*|ln x|^0.5"},
                         eval_fn=ev, deriv_fn=dv, slope_at_infinity=0.0)
    assert P.classify(fn).label == "osgood"


def test_classification_is_cached():
    fn = P.make_family("rho6")
    first = P.classify(fn)
    assert P.classify(fn) is first


# ---------------------------------------------------------------------------
# shared shape properties
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_self_domination_sweep(family):
    fn = P.make_family(family)
    rng = np.random.default_rng(7)
    x = rng.uniform(0.0, 50.0, size=4000)
    y = rng.uniform(0.0, 50.0, size=4000)
    lhs = np.abs(fn(x) - fn(y))
    rhs = fn(np.abs(x - y))
    assert np.all(lhs <= rhs + 1e-9 * np.maximum(1.0, rhs))


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_slope_ratio_monotone_sweep(family):
    fn = P.make_family(family)
    xs = np.geomspace(1e-8, 1e3, 300)
    ratio = fn(xs) / xs
    assert np.all(np.diff(ratio) <= 1e-9 * ratio[:-1] + 1e-15)


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_superhomogeneity_sweep(family):
    fn = P.make_family(family)
    rng = np.random.default_rng(11)
    lam = rng.uniform(0.0, 1.0, size=2000)
    x = rng.uniform(1e-6, 100.0, size=2000)
    assert np.all(fn(lam * x) >= lam * fn(x) - 1e-10 * np.maximum(1.0, fn(x)))


@settings(max_examples=150, deadline=None)
@given(x=st.floats(min_value=1e-8, max_value=1e4),
       k=st.floats(min_value=0.1, max_value=5.0),
       alpha=st.floats(min_value=0.05, max_value=0.95))
def test_biconjugacy_power_family(x, k, alpha):
    fn = P.make_family("rho6", k=k, alpha=alpha)
    grid = list(np.geomspace(1e-4, 1e4, 17)) + [P.tangent_control(fn, x)]
    assert P.inf_representation(fn, x, grid) == pytest.approx(fn(x), rel=1e-9)


def test_scale_function_tracks_base():
    fn = P.make_family("rho6")
    half = P.scale_function(fn, 0.5)
    assert half(4.0) == pytest.approx(1.0)
    # conjugate of s*rho at q is s * rho*(q/s)
    assert P.conjugate(half, 0.5).value == pytest.approx(0.5 * P.conjugate(fn, 1.0).value)
    assert P.integral_H(half, 0.0, 4.0) == pytest.approx(8.0, rel=1e-9)
