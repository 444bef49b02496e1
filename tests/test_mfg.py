"""MFG system: backward value solve, Picard coupling, reduction order, comparison."""

import numpy as np
import pytest

from _helpers import riccati_value, scalar_model

from brsmfg.fokker_planck import NumericalError
from brsmfg.measures import Grid
from brsmfg.mfg import (
    PicardConfig,
    compare_brs_mfg,
    constant_path,
    hjb_backward,
    mpc_reduction_check,
    solve_mfg_picard,
)
from brsmfg.model import CostFunction
from brsmfg.presets import lq_model, mean_coupling_model

GRID = Grid((-6.0,), (6.0,), (400,))


def frozen_path(model, grid, n_t=2):
    m0 = model.population(0).initial_law.grid_density(grid)
    return constant_path(grid, m0, np.linspace(0.0, model.T, n_t + 1))


class TestHjbBackward:
    def test_zero_data_zero_solution(self):
        model = scalar_model(sigma=1.0)
        w = hjb_backward(model, frozen_path(model, GRID), GRID, n_t=4)
        assert np.abs(w.values).max() == 0.0

    def test_terminal_slice_is_exact(self):
        model = lq_model(T=1.0)
        w = hjb_backward(model, frozen_path(model, GRID), GRID, n_t=4)
        mid = GRID.midpoints(0)
        assert np.array_equal(w.values[-1], mid**2 / 2)

    def test_lq_value_matches_riccati_oracle(self):
        model = lq_model(T=1.0)
        w = hjb_backward(model, frozen_path(model, GRID), GRID, n_t=8)
        mid = GRID.midpoints(0)
        oracle = riccati_value(1.0, sigma=1.0, alpha=1.0, t_eval=w.times, x=mid)
        worst = max(np.abs(w.values[k] - oracle[float(t)]).max() for k, t in enumerate(w.times))
        assert worst <= 2e-2

    def test_linear_terminal_cost_characteristic_solution(self):
        # h = 0, g = x, sigma = 0: w(t, x) = x - (T - t)/(2 alpha)
        g = CostFunction(
            value=lambda x, m: np.asarray(x)[..., 0],
            gradient=lambda x, m: np.ones(np.shape(x)),
        )
        for alpha in (1.0, 2.0):
            model = scalar_model(g=g, sigma=0.0, alpha=alpha, T=1.0)
            w = hjb_backward(model, frozen_path(model, GRID), GRID, n_t=4)
            mid = GRID.midpoints(0)
            for k, t in enumerate(w.times):
                exact = mid - (1.0 - t) / (2.0 * alpha)
                assert np.abs(w.values[k] - exact).max() <= 1e-10

    def test_blowup_detected(self):
        huge = CostFunction(
            value=lambda x, m: 1e300 * np.asarray(x)[..., 0] ** 2,
            gradient=lambda x, m: 2e300 * np.asarray(x, dtype=float),
        )
        model = scalar_model(h=huge, sigma=0.0)
        with pytest.raises(NumericalError, match="HJB unstable"):
            hjb_backward(model, frozen_path(model, GRID), GRID, n_t=2)

    def test_path_must_cover_horizon(self):
        model = lq_model(T=2.0)
        short = constant_path(GRID, model.population(0).initial_law.grid_density(GRID), np.array([0.0, 1.0]))
        with pytest.raises(ValueError, match="cover"):
            hjb_backward(model, short, GRID, n_t=4)


class TestPicard:
    def test_decoupled_costs_converge_immediately(self):
        model = lq_model(T=1.0)
        m0 = model.population(0).initial_law.grid_density(GRID)
        sol = solve_mfg_picard(model, m0, GRID, n_t=8)
        assert sol.converged
        assert sol.n_iterations == 2
        assert sol.residuals[1] <= 1e-12

    def test_lq_density_variance_tracks_riccati_drift(self):
        # converged drift is -x; the variance obeys the exact OU recursion
        model = lq_model(T=1.0)
        m0 = model.population(0).initial_law.grid_density(GRID)
        sol = solve_mfg_picard(model, m0, GRID, n_t=8)
        var = sol.density_path.final(0).variance()[0]
        expect = 0.5 + (0.25 - 0.5) * np.exp(-2.0)
        assert var == pytest.approx(expect, rel=0.03)

    def test_mean_coupling_residuals_decrease(self):
        model = mean_coupling_model(T=1.0)
        m0 = model.population(0).initial_law.grid_density(GRID)
        sol = solve_mfg_picard(model, m0, GRID, n_t=8, cfg=PicardConfig(damping=0.5, tol=1e-10, max_iters=6))
        assert all(a > b for a, b in zip(sol.residuals, sol.residuals[1:]))

    def test_nonconvergence_is_flagged_not_raised(self):
        model = mean_coupling_model(T=1.0)
        m0 = model.population(0).initial_law.grid_density(GRID)
        sol = solve_mfg_picard(model, m0, GRID, n_t=8, cfg=PicardConfig(max_iters=1, tol=1e-16))
        assert not sol.converged
        assert sol.n_iterations == 1

    def test_mfg_drift_matches_riccati_drift(self):
        model = lq_model(T=1.0)
        m0 = model.population(0).initial_law.grid_density(GRID)
        sol = solve_mfg_picard(model, m0, GRID, n_t=8)
        mid = GRID.midpoints(0)
        drift = -sol.value.gradient(0)  # alpha = 1
        assert np.abs(drift - (-mid)).max() <= 3e-2


class TestReductionCheck:
    def test_constant_running_cost_gives_zero_error(self):
        h = CostFunction(
            value=lambda x, m: np.full(np.shape(x)[:-1], 2.5),
            gradient=lambda x, m: np.zeros(np.shape(x)),
        )
        model = scalar_model(h=h, sigma=1.0)
        res = mpc_reduction_check(model, GRID, [0.1, 0.05])
        assert all(err <= 1e-12 for _, err in res.rows)

    def test_lq_first_order(self):
        model = lq_model(T=1.0)
        grid = Grid((-4.0,), (4.0,), (320,))
        res = mpc_reduction_check(model, grid, [0.1, 0.05, 0.025, 0.0125])
        assert res.fitted_order == pytest.approx(1.0, abs=0.3)
        errs = [e for _, e in res.rows]
        for a, b in zip(errs, errs[1:]):
            assert a / b == pytest.approx(2.0, rel=0.4)

    def test_requires_decreasing_windows(self):
        model = lq_model(T=1.0)
        with pytest.raises(ValueError, match="decreasing"):
            mpc_reduction_check(model, GRID, [0.05, 0.1])

    def test_one_window_fits_no_order(self):
        with pytest.raises(ValueError, match="two window sizes"):
            mpc_reduction_check(lq_model(T=1.0), GRID, [0.1])

    def test_order_bound_on_every_smooth_scalar_preset(self):
        from brsmfg.presets import ou_model

        grid = Grid((-4.0,), (4.0,), (320,))
        for model in (ou_model(T=8.0), lq_model(T=1.0), mean_coupling_model(T=1.0)):
            res = mpc_reduction_check(model, grid, [0.1, 0.05, 0.025])
            assert res.fitted_order >= 0.7

    def test_mismatched_grid_rejected(self):
        model = lq_model(T=1.0)
        other = Grid((-5.0,), (5.0,), (128,))
        with pytest.raises(ValueError, match="different grid"):
            hjb_backward(model, frozen_path(model, other), GRID, n_t=2)


class TestCompare:
    def test_identical_when_uncontrolled(self):
        model = scalar_model(sigma=1.0, T=1.0)
        m0 = model.population(0).initial_law.grid_density(GRID)
        res = compare_brs_mfg(model, m0, GRID, n_t=4)
        assert res.max_w1 <= 1e-12

    def test_lq_gap_is_reported_not_asserted(self):
        # surrogate drift -(1 + 1/T) x vs MFG drift -x: a real gap must show up
        model = lq_model(T=1.0)
        m0 = model.population(0).initial_law.grid_density(GRID)
        res = compare_brs_mfg(model, m0, GRID, n_t=4)
        assert np.isfinite(res.max_w1)
        assert res.max_w1 > 1e-3

    def test_gap_vanishes_with_coupling_strength(self):
        model = mean_coupling_model(T=0.5, strength=1e-3)
        m0 = model.population(0).initial_law.grid_density(GRID)
        res = compare_brs_mfg(model, m0, GRID, n_t=4)
        assert res.max_w1 <= GRID.widths[0]
