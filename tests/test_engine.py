import dataclasses
import math

import numpy as np
import pytest
from scipy.special import ndtri

from peanobsde import engine as E


def make(n=4, m=200, d=1, seed=7, horizon=1.0):
    return E.simulate_brownian(E.TimeGrid(horizon, n), m, d, seed)


# --- grid -------------------------------------------------------------------

def test_grid_nodes():
    g = E.TimeGrid(2.0, 4)
    assert g.dt == 0.5
    nodes = g.nodes
    assert nodes[0] == 0.0 and nodes[-1] == 2.0
    assert np.all(np.diff(nodes) > 0)


def test_grid_validation():
    with pytest.raises(ValueError):
        E.TimeGrid(0.0, 4)
    with pytest.raises(ValueError):
        E.TimeGrid(1.0, 0)


# --- path simulation --------------------------------------------------------

def test_single_step_matches_keyed_draw():
    ens = make(n=1, m=1, d=1, seed=42)
    key = (42 << 64) | 0
    u = np.random.Generator(np.random.Philox(key=key)).random((1, 1))
    z = ndtri(np.clip(u, 5.0e-17, 1.0 - 1.1e-16))
    assert ens.cumulative[1, 0, 0] == z[0, 0] * 1.0


def test_same_seed_bit_identical():
    a, b = make(seed=3), make(seed=3)
    assert np.array_equal(a.increments, b.increments)
    assert np.array_equal(a.cumulative, b.cumulative)
    c = make(seed=4)
    assert not np.array_equal(a.increments, c.increments)


def test_path_prefix_independent_of_ensemble_size():
    small = make(n=6, m=50, seed=11)
    large = make(n=6, m=5000, seed=11)
    assert np.array_equal(small.increments, large.increments[:, :50, :])


def test_cumulative_consistency():
    ens = make(n=8, m=100, d=2, seed=1)
    assert np.all(ens.cumulative[0] == 0.0)
    rebuilt = ens.cumulative[:-1] + ens.increments
    assert np.allclose(ens.cumulative[1:], rebuilt, atol=1e-15)


def test_terminal_variance_near_horizon():
    ens = make(n=100, m=10_000, seed=5)
    var = float(np.var(ens.terminal[:, 0]))
    assert abs(var - 1.0) < 0.05


def test_increment_means_small():
    ens = make(n=10, m=4000, d=2, seed=9)
    bound = 5.0 / math.sqrt(ens.paths) * math.sqrt(ens.grid.dt)
    means = ens.increments.mean(axis=1)
    assert np.all(np.abs(means) < bound)


def test_simulate_validation():
    g = E.TimeGrid(1.0, 2)
    with pytest.raises(ValueError):
        E.simulate_brownian(g, 0, 1, 0)
    with pytest.raises(ValueError):
        E.simulate_brownian(g, 10, 9, 0)


@pytest.mark.parametrize("paths, dim", [(0, 1), (2, 0)])
def test_noiseless_ensemble_validation(paths, dim):
    with pytest.raises(ValueError, match="paths and dim"):
        E.Deterministic(E.TimeGrid(1.0, 2), paths, dim)


# --- conditional expectation ------------------------------------------------

def test_constant_target_reproduced():
    ens = make(n=4, m=300, seed=2)
    for step in (0, 2):
        fitted = E.conditional_expectation(ens, np.full(300, 7.0), step)
        assert np.allclose(fitted, 7.0, atol=1e-10)


def test_martingale_projection():
    ens = make(n=4, m=20_000, seed=13)
    target = ens.cumulative[3, :, 0]
    fitted = E.conditional_expectation(ens, target, 2)
    resid = fitted - ens.cumulative[2, :, 0]
    assert math.sqrt(float(np.mean(resid ** 2))) < 0.05


def test_squared_terminal_projection():
    # E[B_T^2 | B_{T/2}] = B_{T/2}^2 + T/2
    ens = make(n=2, m=20_000, seed=17)
    target = ens.terminal[:, 0] ** 2
    fitted = E.conditional_expectation(ens, target, 1)
    truth = ens.cumulative[1, :, 0] ** 2 + 0.5
    assert math.sqrt(float(np.mean((fitted - truth) ** 2))) < 0.06


def test_step_zero_uses_plain_average():
    ens = make(n=2, m=5000, seed=19)
    target = ens.terminal[:, 0] ** 2
    fitted = E.conditional_expectation(ens, target, 0)
    assert np.allclose(fitted, target.mean())


def test_adaptedness_future_blind():
    ens = make(n=6, m=400, seed=23)
    target = np.sin(ens.cumulative[4, :, 0])
    fitted = E.conditional_expectation(ens, target, 3)

    db = ens.increments.copy()
    db[4:] *= -1.0  # rewrite the future
    cum = np.concatenate([np.zeros((1, ens.paths, ens.dim)),
                          np.cumsum(db, axis=0)])
    twisted = E.PathEnsemble(grid=ens.grid, paths=ens.paths, dim=ens.dim,
                             seed=ens.seed, increments=db, cumulative=cum)
    fitted2 = E.conditional_expectation(twisted, target, 3)
    assert np.array_equal(fitted, fitted2)


def test_multidim_basis_shape():
    ens = make(n=3, m=50, d=3, seed=29)
    x = E.basis_matrix(ens, 2)
    # 1 + d + d(d+1)/2 columns at total degree 2
    assert x.shape == (50, 1 + 3 + 6)
    assert np.allclose(x[:, 0], 1.0)


def test_degenerate_design_falls_back_to_ridge():
    ens = make(n=2, m=60, seed=31)
    frozen = ens.cumulative.copy()
    frozen[1] = 1.0  # collapse the regressor to a constant column
    clone = E.PathEnsemble(grid=ens.grid, paths=ens.paths, dim=ens.dim,
                           seed=ens.seed, increments=ens.increments,
                           cumulative=frozen)
    target = ens.terminal[:, 0]
    fitted, info = E.conditional_expectation(clone, target, 1,
                                             full_output=True)
    assert info.degraded
    assert np.all(np.isfinite(fitted))


def test_regression_error_halves_with_sample_size():
    # std over seeds of the estimate at a fixed state should scale ~ M^-1/2
    sizes = [500, 1000, 2000, 4000, 8000]
    spreads = []
    for m in sizes:
        vals = []
        for seed in range(8):
            ens = E.simulate_brownian(E.TimeGrid(1.0, 2), m, 1, seed)
            target = ens.terminal[:, 0] ** 2
            _, info = E.conditional_expectation(ens, target, 1,
                                                full_output=True)
            vals.append(float(np.polyval(info.coefficients[::-1], 0.5)))
        spreads.append(float(np.std(vals)))
    slope = np.polyfit(np.log(sizes), np.log(spreads), 1)[0]
    assert abs(slope + 0.5) < 0.15


def test_full_output_diagnostics():
    ens = make(n=2, m=500, seed=37)
    target = ens.terminal[:, 0] ** 2
    fitted, info = E.conditional_expectation(ens, target, 1, full_output=True)
    assert not info.degraded
    assert info.residual_std > 0.0
    assert info.leverage.shape == (500,)
    assert np.all(info.leverage >= -1e-12)
    assert np.isclose(info.leverage.sum(), len(info.coefficients), atol=1e-8)


def test_target_length_mismatch():
    ens = make(n=2, m=100, seed=41)
    with pytest.raises(ValueError):
        E.conditional_expectation(ens, np.zeros(99), 1)


# --- Girsanov weights -------------------------------------------------------

def test_zero_drift_gives_unit_weights():
    ens = make(n=5, m=64, seed=43)
    res = E.girsanov_weights(ens, np.zeros((5, 64, 1)), bound=1.0)
    assert np.all(res.weights == 1.0)
    assert np.all(res.cumulative == 1.0)
    assert res.clamped == 0


def test_constant_drift_exponential_martingale():
    ens = make(n=40, m=10_000, seed=47)
    res = E.girsanov_weights(ens, np.ones((40, 10_000, 1)), bound=2.0)
    expect = np.exp(ens.terminal[:, 0] - 0.5)
    assert np.allclose(res.weights, expect, rtol=1e-12)
    assert abs(res.weights.mean() - 1.0) < 5.0 / math.sqrt(10_000)
    assert res.clamped == 0


def test_alternating_drift_mean_one():
    n, m = 20, 10_000
    ens = make(n=n, m=m, seed=53)
    drift = np.ones((n, m, 1))
    drift[::2] = -1.0
    res = E.girsanov_weights(ens, drift, bound=1.5)
    assert abs(res.weights.mean() - 1.0) < 5.0 / math.sqrt(m)


def test_drift_clamped_to_bound():
    n, m = 3, 50
    ens = make(n=n, m=m, seed=59)
    res_big = E.girsanov_weights(ens, np.full((n, m, 1), 3.0), bound=2.0)
    res_two = E.girsanov_weights(ens, np.full((n, m, 1), 2.0), bound=2.0)
    assert res_big.clamped == n * m
    assert np.allclose(res_big.weights, res_two.weights, rtol=1e-13)


def test_cumulative_weights_start_at_one():
    ens = make(n=4, m=30, seed=61)
    res = E.girsanov_weights(ens, np.full((4, 30, 1), 0.7), bound=1.0)
    assert np.all(res.cumulative[0] == 1.0)
    assert np.all(res.cumulative > 0.0)


def test_girsanov_bound_validation():
    ens = make(n=2, m=10, seed=67)
    with pytest.raises(ValueError):
        E.girsanov_weights(ens, np.zeros((2, 10, 1)), bound=0.0)


# --- terminal samplers ------------------------------------------------------

def test_constant_terminal():
    ens = make(n=2, m=40, seed=71)
    vals = E.sample_terminal(E.TerminalSpec("constant", {"value": 1.0}), ens)
    assert np.all(vals == 1.0)
    with pytest.raises(ValueError):
        E.TerminalSpec("constant", {"value": -1.0})


def test_zero_terminal():
    ens = make(n=2, m=40, seed=73)
    assert np.all(E.sample_terminal(E.TerminalSpec("zero"), ens) == 0.0)


def test_lognormal_terminal_statistics():
    ens = make(n=10, m=10_000, seed=79)
    spec = E.TerminalSpec("lognormal", {"mean": 1.0, "sigma": 0.5})
    vals = E.sample_terminal(spec, ens)
    assert np.all(vals > 0.0)
    assert abs(vals.mean() - 1.0) < 5.0 / math.sqrt(10_000)


def test_indicator_terminal():
    ens = make(n=4, m=10_000, seed=83)
    vals = E.sample_terminal(
        E.TerminalSpec("indicator", {"threshold": 0.0, "shift": 0.0}), ens)
    assert set(np.unique(vals)) <= {0.0, 1.0}
    assert abs(vals.mean() - 0.5) < 5.0 / math.sqrt(10_000)
    shifted = E.sample_terminal(
        E.TerminalSpec("indicator", {"threshold": 0.0, "shift": 0.25}), ens)
    assert np.allclose(shifted, vals + 0.25)


def test_floored_and_shifted_lognormal():
    ens = make(n=4, m=2000, seed=89)
    base = E.sample_terminal(
        E.TerminalSpec("lognormal", {"mean": 1.0, "sigma": 0.5}), ens)
    floored = E.sample_terminal(
        E.TerminalSpec("floored_lognormal",
                       {"mean": 1.0, "sigma": 0.5, "floor": 0.8}), ens)
    assert np.all(floored >= 0.8)
    assert np.allclose(floored, np.maximum(base, 0.8))
    shifted = E.sample_terminal(
        E.TerminalSpec("shifted_lognormal",
                       {"mean": 1.0, "sigma": 0.5, "shift": 0.3}), ens)
    assert np.allclose(shifted, base + 0.3)


def test_unknown_terminal_kind():
    with pytest.raises(ValueError):
        E.TerminalSpec("cauchy")


# --- regression facts cached on the ensemble ---------------------------------

def _direct_leverage(x):
    q, _ = np.linalg.qr(x)
    return np.einsum("ij,ij->i", q, q)


def test_ensemble_arrays_are_read_only():
    ens = make(n=4, m=50, seed=43)
    with pytest.raises(ValueError):
        ens.cumulative[1] = 0.0
    with pytest.raises(ValueError):
        ens.increments[0] = 0.0


def test_replaced_ensemble_gets_fresh_regression_facts():
    ens = make(n=4, m=400, seed=47)
    target = np.cos(ens.cumulative[3, :, 0])
    fitted, info = E.conditional_expectation(ens, target, 2, full_output=True)
    lev = info.leverage
    cum = ens.cumulative.copy()
    cum[2] = np.tanh(cum[2])  # not affine, so the fitted span changes
    copy = dataclasses.replace(ens, cumulative=cum)
    fresh = E.PathEnsemble(grid=ens.grid, paths=ens.paths, dim=ens.dim,
                           seed=ens.seed, increments=ens.increments,
                           cumulative=cum)
    fit_copy, info_copy = E.conditional_expectation(copy, target, 2,
                                                    full_output=True)
    fit_fresh, info_fresh = E.conditional_expectation(fresh, target, 2,
                                                      full_output=True)
    assert np.array_equal(fit_copy, fit_fresh)
    assert np.array_equal(info_copy.leverage, info_fresh.leverage)
    assert not np.array_equal(fit_copy, fitted)
    assert not np.array_equal(info_copy.leverage, lev)


def test_leverage_is_read_only_and_equals_direct_computation():
    ens = make(n=4, m=300, seed=53)
    target = ens.terminal[:, 0] ** 2
    _, info = E.conditional_expectation(ens, target, 2, full_output=True)
    lev = info.leverage
    assert np.array_equal(lev, _direct_leverage(E.basis_matrix(ens, 2)))
    assert not lev.flags.writeable
    # degree None and the resolved degree 3 share one cache entry
    _, info3 = E.conditional_expectation(ens, target, 2, degree=3,
                                         full_output=True)
    assert info3.leverage is lev


def _count_qr(monkeypatch):
    calls = []
    qr = E.np.linalg.qr

    def counted(*args, **kwargs):
        calls.append(1)
        return qr(*args, **kwargs)

    monkeypatch.setattr(E.np.linalg, "qr", counted)
    return calls


def test_primal_solve_computes_no_leverage(monkeypatch):
    from peanobsde.solver import solve_backward_euler, spec_sqrt

    ens = make(n=10, m=500, seed=59)
    calls = _count_qr(monkeypatch)
    solve_backward_euler(spec_sqrt(), np.ones(500), ens)
    assert len(calls) == 0


def test_special_solves_share_one_leverage_per_step(monkeypatch):
    from peanobsde.transform import SpecialGenerator, solve_special

    ens = make(n=10, m=500, seed=61)
    xi = np.exp(0.5 * ens.terminal[:, 0] - 0.125)
    sg = SpecialGenerator(alpha=0.5, c=1.0, k1=1.0)
    calls = _count_qr(monkeypatch)
    first = solve_special(sg, xi, ens)
    second = solve_special(sg, xi, ens)
    # one leverage per interior step 1..N-1, reused by the second solve
    assert len(calls) == ens.grid.steps - 1
    assert first.excluded_fraction == second.excluded_fraction
