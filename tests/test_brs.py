"""BRS controls: finite-window and limiting forms, and the two-method agreement."""

import numpy as np
import pytest

from _helpers import quadratic_cost, scalar_model

from brsmfg.applications import CrowdParams, build_crowd_model
from brsmfg.brs import brs_control_finite, brs_control_limit, mpc_value_surrogate
from brsmfg.measures import EmpiricalMeasure, Grid, density_at
from brsmfg.mfg import mpc_reduction_check
from brsmfg.particle_sim import EnsembleState
from brsmfg.presets import lq_model, mean_coupling_model


def ensemble(points):
    return EnsembleState(positions=(np.atleast_2d(np.asarray(points, dtype=float)).T,), t=0.0, seed=0)


class TestFiniteControl:
    def test_quadratic_constant_penalty(self):
        model = scalar_model(h=quadratic_cost())
        state = ensemble([2.0, 0.0])
        u = brs_control_finite(model, 0, 0, state, 0.0, 0.1)
        assert u[0] == pytest.approx(-2.0)

    def test_time_varying_penalty_denominator(self):
        model = scalar_model(h=quadratic_cost(), alpha=lambda t: 1.0 + t, alpha_dot=lambda t: 1.0)
        state = ensemble([2.0, 0.0])
        u = brs_control_finite(model, 0, 0, state, 0.0, 0.1)
        assert u[0] == pytest.approx(-1.8181818181818181, abs=1e-12)

    def test_grid_search_oracle_on_coupled_cost(self):
        # minimize u * FD-grad(h + g/T) + (alpha + dt alpha_dot)/2 u^2 over a grid
        model = mean_coupling_model()
        rng = np.random.default_rng(8)
        pts = rng.standard_normal(4)
        state = ensemble(pts)
        dt = 0.05
        grid_u = np.arange(-10.0, 10.0 + 1e-9, 1e-3)
        for i in range(4):
            u = brs_control_finite(model, 0, i, state, 0.0, dt)
            m = EmpiricalMeasure(np.delete(pts, i))
            eps = 1e-6
            x = np.array([pts[i]])
            fd = (
                float(mpc_value_surrogate(model, 0, 0.0, x + eps, m))
                - float(mpc_value_surrogate(model, 0, 0.0, x - eps, m))
            ) / (2 * eps)
            denom = 1.0  # constant penalty, alpha_dot = 0
            cost = grid_u * fd + 0.5 * denom * grid_u**2
            best = grid_u[int(np.argmin(cost))]
            assert abs(u[0] - best) <= 1e-3

    def test_denominator_must_stay_positive(self):
        model = scalar_model(
            h=quadratic_cost(), alpha=lambda t: 0.1, alpha_dot=lambda t: -10.0
        )
        state = ensemble([1.0, 2.0])
        message = r"^alpha\(0\.0\) \+ 0\.1 \* alpha_dot\(0\.0\) = -0\.9 is not a positive finite number$"
        with pytest.raises(FloatingPointError, match=message):
            brs_control_finite(model, 0, 0, state, 0.0, 0.1)

    def test_needs_two_particles(self):
        model = scalar_model(h=quadratic_cost())
        state = EnsembleState(positions=(np.array([[1.0]]),), t=0.0, seed=0)
        with pytest.raises(ValueError, match="two particles"):
            brs_control_finite(model, 0, 0, state, 0.0, 0.1)

    def test_magnitude_decreasing_in_window_when_alpha_grows(self):
        model = scalar_model(h=quadratic_cost(), alpha=lambda t: 1.0 + t, alpha_dot=lambda t: 1.0)
        state = ensemble([1.5, -0.5, 2.0])
        mags = [
            abs(brs_control_finite(model, 0, 0, state, 0.2, dt)[0])
            for dt in (0.05, 0.1, 0.2, 0.4)
        ]
        assert all(a > b for a, b in zip(mags, mags[1:]))


class TestLimitControl:
    def test_matches_finite_window_as_dt_vanishes(self):
        model = mean_coupling_model()
        rng = np.random.default_rng(2)
        pts = rng.standard_normal(5)
        state = ensemble(pts)
        m = EmpiricalMeasure(np.delete(pts, 1))
        lim = brs_control_limit(model, 0, 0.0, np.array([pts[1]]), m)
        fin = brs_control_finite(model, 0, 1, state, 0.0, 1e-8)
        assert abs(lim[0] - fin[0]) <= 1e-6 * max(1.0, abs(lim[0]))

    def test_nonpositive_penalty_is_named(self):
        model = scalar_model(h=quadratic_cost(), alpha=lambda t: 1.0 - t, alpha_dot=lambda t: -1.0)
        with pytest.raises(FloatingPointError, match=r"^alpha\(1\.0\) = 0\.0 is not a positive finite number$"):
            brs_control_limit(model, 0, 1.0, np.array([1.0]), EmpiricalMeasure(np.array([0.0])))

    def test_scaled_penalty(self):
        model = scalar_model(h=quadratic_cost(), alpha=2.0)
        u = brs_control_limit(model, 0, 0.0, np.array([3.0]), EmpiricalMeasure(np.array([0.0])))
        assert u[0] == pytest.approx(-1.5)

    def test_crowd_drift_equals_density_gradient_sum(self):
        params = CrowdParams(lam=0.7)
        model = build_crowd_model(params)
        grid = Grid((-2.0, -2.0), (2.0, 2.0), (32, 32))
        m1 = model.population(0).initial_law.grid_density(grid)
        m2 = model.population(1).initial_law.grid_density(grid)
        x = np.array([[0.25, -0.4], [-0.6, 0.1]])
        u = brs_control_limit(model, 0, 0.0, x, (m1, m2))
        # oracle: difference the interpolated density sum directly on the grid
        psi1 = model.population(0).terminal_cost
        for j, pt in enumerate(x):
            for k in range(2):
                h = grid.widths[k]
                dx = np.zeros(2)
                dx[k] = 0.5 * h
                dens = lambda q: density_at(m1, q) + params.lam * density_at(m2, q)
                expect = -(dens(pt + dx) - dens(pt - dx)) / h
                expect -= float(psi1.gradient(pt, (m1, m2))[k]) / model.T
                assert u[j, k] == pytest.approx(expect, rel=1e-10, abs=1e-12)

    def test_method_equivalence_by_differentiating_the_surrogate(self):
        for model in (lq_model(), mean_coupling_model()):
            rng = np.random.default_rng(4)
            for _ in range(25):
                m = EmpiricalMeasure(model.population(0).initial_law.sample(rng, 16))
                x = model.population(0).initial_law.sample(rng, 1)[0]
                lim = brs_control_limit(model, 0, 0.3, x, m)
                eps = 1e-6 * (1.0 + abs(x[0]))
                fd = (
                    float(mpc_value_surrogate(model, 0, 0.3, x + eps, m))
                    - float(mpc_value_surrogate(model, 0, 0.3, x - eps, m))
                ) / (2 * eps)
                expect = -fd / model.population(0).penalty.alpha(0.3)
                assert abs(lim[0] - expect) <= 1e-5 * (1.0 + abs(expect))


class TestSurrogate:
    def test_running_cost_only(self):
        model = scalar_model(h=quadratic_cost())
        v = mpc_value_surrogate(model, 0, 0.0, np.array([2.0]), EmpiricalMeasure(np.array([0.0])))
        assert float(v) == pytest.approx(2.0)

    def test_terminal_cost_scaling(self):
        g = quadratic_cost()
        gx2 = type(g)(value=lambda x, m: np.asarray(x)[..., 0] ** 2, gradient=lambda x, m: 2.0 * np.asarray(x, dtype=float))
        model = scalar_model(g=gx2, T=2.0)
        v = mpc_value_surrogate(model, 0, 0.0, np.array([3.0]), EmpiricalMeasure(np.array([0.0])))
        assert float(v) == pytest.approx(4.5)

    def test_window_value_error_is_first_order(self):
        # the dense window solve is the oracle; halving dt should halve the gap
        model = lq_model(T=1.0)
        grid = Grid((-4.0,), (4.0,), (320,))
        res = mpc_reduction_check(model, model.population(0).initial_law.grid_density(grid), grid, [0.1, 0.05])
        (dt1, e1), (dt2, e2) = res.rows
        assert e1 / e2 == pytest.approx(2.0, rel=0.4)
        assert res.fitted_order == pytest.approx(1.0, abs=0.3)
