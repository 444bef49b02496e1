"""MFG system: backward value solve, Picard coupling, reduction order, comparison."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import hjb_backward_oracle, quadratic_cost, riccati_value, scalar_model

from brsmfg.fokker_planck import DensityPath, NumericalError
from brsmfg.measures import Grid
from brsmfg.mfg import (
    PicardConfig,
    ValueField,
    compare_brs_mfg,
    constant_path,
    hjb_backward,
    mpc_reduction_check,
    solve_mfg_picard,
)
from brsmfg.mfg import _GAMMA, _gradient_and_laplacian, _mfg_velocity
from brsmfg.model import ControlPenalty, CostFunction, DiffusionFunction, DriftFunction
from brsmfg.presets import lq_model, mean_coupling_model, ou_model

GRID = Grid((-6.0,), (6.0,), (400,))


def reduction_check(model, grid, dt_list):
    """``mpc_reduction_check`` with the density frozen at the model's initial law on ``grid``."""
    return mpc_reduction_check(model, model.population(0).initial_law.grid_density(grid), grid, dt_list)


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

    @pytest.mark.parametrize("sigma", [1.0, 0.3, 0.1, 0.03])
    def test_lq_value_is_exact(self, sigma):
        # w = x^2/2 + sigma^2 (T - t)/2 is quadratic in x and linear in t, and the
        # frozen Hamiltonian is exact at its gradient, so only round-off remains;
        # the explicit sweep stopped with "HJB unstable" at sigma = 0.03
        model = lq_model(T=1.0, sigma=sigma)
        w = hjb_backward(model, frozen_path(model, GRID), GRID, n_t=8)
        mid = GRID.midpoints(0)
        worst = max(np.abs(w.values[k] - (mid**2 / 2 + sigma**2 * (1.0 - t) / 2)).max() for k, t in enumerate(w.times))
        assert worst <= 1e-12

    @pytest.mark.parametrize("alpha", [None, lambda t: 1.0 + 0.5 * t], ids=["constant_alpha", "varying_alpha"])
    def test_second_order_in_the_slice_count(self, alpha):
        # the gap to a 1024-slice reference falls about 4x per doubling; backward
        # Euler, or an alpha read at the wrong end of each step, would give 2x
        model = mean_coupling_model(T=1.0)
        if alpha is not None:
            pop = replace(model.population(0), penalty=ControlPenalty(alpha=alpha, alpha_dot=lambda t: 0.5))
            model = replace(model, populations=(pop,))
        path = frozen_path(model, GRID)
        reference = hjb_backward(model, path, GRID, n_t=1024)
        gaps = [
            np.abs(hjb_backward(model, path, GRID, n_t).values - reference.values[:: 1024 // n_t]).max()
            for n_t in (32, 64)
        ]
        assert gaps[1] <= gaps[0] / 3.0

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

    def test_nan_running_cost_is_detected(self):
        # NaN at one cell: the blow-up test is a single comparison, which NaN fails
        mid = GRID.midpoints(0)[200]
        nan_at_one_cell = CostFunction(
            value=lambda x, m: np.where(np.asarray(x)[..., 0] == mid, np.nan, 0.0),
            gradient=lambda x, m: np.zeros(np.shape(x)),
        )
        model = scalar_model(h=nan_at_one_cell, sigma=1.0)
        with pytest.raises(NumericalError, match="HJB unstable"):
            hjb_backward(model, frozen_path(model, GRID), GRID, n_t=2)

    def test_penalty_reaching_zero_is_named(self):
        # alpha(t) = t - 0.5 is positive on (0.5, T] and 0 at the slice time 0.5
        model = scalar_model(sigma=1.0, alpha=lambda t: t - 0.5, alpha_dot=lambda t: 1.0)
        with pytest.raises(FloatingPointError, match=r"^alpha\(0\.5\) = 0\.0 is not a positive finite number$"):
            hjb_backward(model, frozen_path(model, GRID), GRID, n_t=2)

    def test_penalty_reaching_zero_under_a_running_cost_is_named(self):
        # h = x^2/2 drives grad w so fast that the sweep used to blow up while
        # alpha was still positive, and reported "HJB unstable" instead
        model = scalar_model(h=quadratic_cost(), alpha=lambda t: t - 0.5, alpha_dot=lambda t: 1.0)
        with pytest.raises(FloatingPointError, match=r"^alpha\(0\.5\) = 0\.0 is not a positive finite number$"):
            hjb_backward(model, frozen_path(model, GRID), GRID, n_t=2)

    def test_penalty_is_not_evaluated_at_time_zero(self):
        # the sweep stops short of t = 0, so an alpha that fails only there is accepted
        model = scalar_model(sigma=1.0, alpha=lambda t: 1.0 if t > 0.0 else 0.0, alpha_dot=lambda t: 0.0)
        w = hjb_backward(model, frozen_path(model, GRID), GRID, n_t=2)
        assert np.isfinite(w.values).all()

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
        res = reduction_check(model, GRID, [0.1, 0.05])
        assert all(err <= 1e-12 for _, err in res.rows)

    def test_lq_first_order(self):
        model = lq_model(T=1.0)
        grid = Grid((-4.0,), (4.0,), (320,))
        res = reduction_check(model, grid, [0.1, 0.05, 0.025, 0.0125])
        assert res.fitted_order == pytest.approx(1.0, abs=0.3)
        errs = [e for _, e in res.rows]
        for a, b in zip(errs, errs[1:]):
            assert a / b == pytest.approx(2.0, rel=0.4)

    def test_requires_decreasing_windows(self):
        model = lq_model(T=1.0)
        with pytest.raises(ValueError, match="decreasing"):
            reduction_check(model, GRID, [0.05, 0.1])

    @pytest.mark.parametrize("dt_list", [[0.1, np.nan], [0.1, 0.0], [np.inf, 0.1], [0.1, -0.05]])
    def test_windows_must_be_positive_and_finite(self, dt_list):
        with pytest.raises(ValueError, match="^dt_list entries must be positive and finite"):
            reduction_check(lq_model(T=1.0), GRID, dt_list)

    def test_one_window_fits_no_order(self):
        with pytest.raises(ValueError, match="two window sizes"):
            reduction_check(lq_model(T=1.0), GRID, [0.1])

    def test_order_bound_on_every_smooth_scalar_preset(self):
        from brsmfg.presets import ou_model

        grid = Grid((-4.0,), (4.0,), (320,))
        for model in (ou_model(T=8.0), lq_model(T=1.0), mean_coupling_model(T=1.0)):
            res = reduction_check(model, grid, [0.1, 0.05, 0.025])
            assert res.fitted_order >= 0.7

    @pytest.mark.parametrize(
        "solve",
        [lambda model, m0: mpc_reduction_check(model, m0, GRID, [0.1, 0.05]), lambda model, m0: solve_mfg_picard(model, m0, GRID, 4)],
        ids=["mpc_reduction_check", "solve_mfg_picard"],
    )
    def test_initial_density_on_another_grid_rejected(self, solve):
        # as many cells as GRID on another box: its values would be read as GRID's cells
        model = lq_model(T=1.0)
        m0 = model.population(0).initial_law.grid_density(Grid((-5.0,), (5.0,), (400,)))
        with pytest.raises(ValueError, match="^density lives on a different grid$"):
            solve(model, m0)

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


class TestArguments:
    @pytest.mark.parametrize("n_t", [0, -1])
    def test_time_slices_must_be_positive(self, n_t):
        model = lq_model(T=0.5)
        grid = Grid((-3.0,), (3.0,), (32,))
        m0 = model.population(0).initial_law.grid_density(grid)
        calls = (
            lambda: hjb_backward(model, frozen_path(model, grid), grid, n_t),
            lambda: solve_mfg_picard(model, m0, grid, n_t),
            lambda: compare_brs_mfg(model, m0, grid, n_t),
        )
        for call in calls:
            with pytest.raises(ValueError, match=f"^n_t must be at least 1, got {n_t}$"):
                call()

    @pytest.mark.parametrize("tol", [0.0, -1.0, np.inf, np.nan])
    def test_tol_must_be_positive_and_finite(self, tol):
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            PicardConfig(tol=tol)


# ---------------------------------------------------------------------------
# The backward sweep against the reference sweep in ``_helpers``
# ---------------------------------------------------------------------------


@st.composite
def hjb_problems(draw, slices):
    """(model, density path, grid, n_t): a scalar preset, optionally with a nonzero f,
    a closure diffusion and a time-varying alpha, against a random density path."""
    preset = draw(st.sampled_from([ou_model, lq_model, mean_coupling_model]))
    T = draw(st.floats(0.05, 1.0))
    model = preset(T=T, sigma=draw(st.floats(0.2, 1.5)), alpha=draw(st.floats(0.5, 2.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    changes = {}
    if draw(st.booleans()):
        c = rng.uniform(-1.0, 1.0)
        changes["drift"] = DriftFunction(lambda x, m: c * np.sin(np.asarray(x)))
    if draw(st.booleans()):
        s0, s1 = rng.uniform(0.3, 1.0), rng.uniform(0.0, 0.3)
        changes["diffusion"] = DiffusionFunction(lambda t, x: s0 + s1 * np.cos(np.asarray(x) + t))
    if draw(st.booleans()):
        a0, a1 = rng.uniform(0.5, 1.5), rng.uniform(-0.3, 0.3)
        changes["penalty"] = ControlPenalty(alpha=lambda t: a0 + a1 * t, alpha_dot=lambda t: a1)
    model = replace(model, populations=(replace(model.population(0), **changes),))
    cells = draw(st.integers(8, 60))
    lo = draw(st.floats(-4.0, -1.0))
    grid = Grid((lo,), (lo + draw(st.floats(2.0, 8.0)),), (cells,))
    n_slices = draw(st.integers(2, 5))
    vals = rng.uniform(0.05, 1.0, (n_slices, 1, cells))
    vals /= vals.sum(axis=2, keepdims=True) * grid.cell_volume
    path = DensityPath(grid, np.linspace(0.0, T, n_slices), vals)
    return model, path, grid, draw(slices)


def fine_reference(model, path, grid, n_t):
    """The explicit reference sweep on the n_t + 1 slice times, with substeps of at most 1/64 of a slice."""
    times, values = hjb_backward_oracle(model, path, grid, 64 * n_t)
    return times[::64], values[::64]


def assert_second_order_close(w, times, values, n_t):
    # Both sweeps discretise one equation with one spatial operator, so they
    # differ by their time errors only: the reference's, first order in its
    # substep of at most 1/64 of a slice, and this sweep's, second order in the
    # slice width. The bound is 1 / n_t^2 relative to max(1, max |w_ref|).
    assert np.array_equal(w.times, times)
    scale = max(1.0, float(np.abs(values).max()))
    assert np.abs(w.values - values).max() <= scale / n_t**2


class TestTimeInterpolation:
    def test_density_and_gradient_equal_the_reference_bit_for_bit(self):
        rng = np.random.default_rng(3)
        grid = Grid((-1.0,), (1.0,), (12,))
        times = np.array([0.0, 0.25, 0.5, 1.0])
        values = rng.uniform(0.0, 1.0, (4, 1, 12))
        values[:, 0, :3] = -0.0  # a clamp must return the slice with its signed zeros
        path = DensityPath(grid, times, values)
        field = ValueField(grid, times, values[:, 0] ** 2)

        def reference(slices, t):
            if t <= times[0]:
                return slices[0]
            if t >= times[-1]:
                return slices[-1]
            j = int(np.searchsorted(times, t, side="right") - 1)
            lam = (t - times[j]) / (times[j + 1] - times[j])
            return (1.0 - lam) * slices[j] + lam * slices[j + 1]

        for t in (-0.5, 0.0, 0.1, 0.25, 0.3, 0.5, 0.9, 1.0, 2.0):
            got, want = path.at_time(t).values, reference(values[:, 0], t)
            assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))
            assert np.array_equal(field.gradient_at(t), reference([field.gradient(k) for k in range(4)], t))


class TestMfgVelocity:
    @pytest.mark.parametrize("drift", ["zero", "nonzero"])
    def test_face_velocity_is_the_general_form_bit_for_bit(self, drift):
        # the general form subtracts grad(w)/alpha from f, or from zeros when f is declared zero
        grid = Grid((-1.0,), (1.0,), (12,))
        times = np.array([0.0, 0.5, 1.0])
        f = None if drift == "zero" else DriftFunction(value=lambda x, m: np.where(x < 0.0, -0.0, np.sin(3.0 * x)))
        model = scalar_model(f=f, alpha=lambda t: 1.0 + t, alpha_dot=lambda t: 1.0)
        field = ValueField(grid, times, np.zeros((3, 12)))
        grads = np.linspace(-1.0, 1.0, 36).reshape(3, 12)
        grads[:, :3] = [[-0.0, 0.0, -0.0], [0.0, -0.0, 0.0], [-0.0, -0.0, 0.0]]
        grads[:, -2:] = -0.0
        field._gradients = grads  # set directly, to place signed zeros where the test needs them
        x = np.concatenate([grid.face_points(0).reshape(-1, 1), grid.midpoint_mesh().reshape(-1, 1), [[-3.0], [3.0]]])
        normal = _mfg_velocity(model, field, 0, x, 0)
        signed_zeros = 0
        for t in (-0.5, 0.0, 0.3, 0.5, 0.75, 1.0, 2.0):
            gx = np.interp(x[:, 0], grid.midpoints(0), field.gradient_at(t))
            want = np.zeros(x.shape) if f is None else np.asarray(f.value(x, None), dtype=float).copy()
            want[:, 0] -= gx / (1.0 + t)
            want = want[:, 0]
            got = normal(t, None)
            assert got.shape == want.shape
            assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))
            signed_zeros += int(np.sum((gx == 0.0) & np.signbit(gx)))
        assert signed_zeros > 0


class TestHjbMatchesReference:
    @settings(max_examples=40, deadline=None)
    @given(problem=hjb_problems(st.integers(8, 24)))
    def test_hjb_backward_agrees_with_the_explicit_reference(self, problem):
        # At these slice widths the worst of 3,000 drawn problems read 0.25 of the
        # bound; a sweep of backward-Euler steps exceeds it on about one draw in two.
        model, path, grid, n_t = problem
        w = hjb_backward(model, path, grid, n_t)
        assert np.isfinite(w.values).all()
        try:
            times, values = fine_reference(model, path, grid, n_t)
        except NumericalError:
            return  # the explicit sweep is unstable here, the implicit one is not
        assert_second_order_close(w, times, values, n_t)

    @settings(max_examples=40, deadline=None)
    @given(problem=hjb_problems(st.integers(1, 6)))
    def test_wide_slices_are_accurate_or_refused_by_name(self, problem):
        # A drift that spreads paths apart makes w grow across a slice; an implicit
        # stage follows the fastest growth only while its coefficient times the
        # growth rate stays small. The first stage's drift f - grad g / alpha is
        # known here, so where it is too fast the sweep must refuse; a later stage
        # may be refused for the same reason, and whatever is returned must be accurate
        # (of 3,000 drawn problems 2 were refused, and the worst read 0.34 of the bound).
        model, path, grid, n_t = problem
        pop = model.population(0)
        mids = grid.midpoints(0)[:, None]
        dx = grid.widths[0]
        delta = model.T / n_t
        t = model.T - _GAMMA * delta
        g = np.asarray(pop.terminal_cost.value(mids, path.at_time(model.T)), dtype=float)
        grad_g = _gradient_and_laplacian(g, dx)[0]
        b = np.asarray(pop.drift.value(mids, path.at_time(t)), dtype=float)[:, 0] - grad_g / pop.penalty.at(t)
        if 0.5 * _GAMMA * delta * (float(np.max(np.diff(b))) / dx) > 0.25:
            with pytest.raises(NumericalError, match=r"^HJB slices too wide near t = "):
                hjb_backward(model, path, grid, n_t)
            return
        try:
            w = hjb_backward(model, path, grid, n_t)
        except NumericalError as err:
            assert str(err).startswith("HJB slices too wide near t = ")
            return
        assert np.isfinite(w.values).all()
        try:
            times, values = fine_reference(model, path, grid, n_t)
        except NumericalError:
            return
        assert_second_order_close(w, times, values, n_t)

    def test_too_wide_slice_is_refused_by_name(self):
        # f = 0.9 sin x spreads paths apart near x = 0 at about twice 0.9 per unit
        # time; one slice of width 3 takes the implicit stages past singular, and
        # without the check the sweep returned values off by twice the value's
        # size, while the explicit reference stays finite
        model = ou_model(T=3.0, sigma=0.5)
        pop = replace(model.population(0), drift=DriftFunction(lambda x, m: 0.9 * np.sin(np.asarray(x))))
        model = replace(model, populations=(pop,))
        grid = Grid((-1.44,), (0.56,), (8,))
        path = frozen_path(model, grid)
        with pytest.raises(NumericalError, match=r"^HJB slices too wide near t = 1\.24264: the frozen drift spreads"):
            hjb_backward(model, path, grid, n_t=1)
        times, values = fine_reference(model, path, grid, 4)
        assert_second_order_close(hjb_backward(model, path, grid, n_t=4), times, values, 4)

    def test_declared_constant_diffusion_is_not_evaluated_per_slice(self):
        calls = []

        def sigma(t, x):
            calls.append(t)
            return np.full(np.shape(x), 0.8)

        model = lq_model(T=0.5)
        pop = replace(model.population(0), diffusion=DiffusionFunction(sigma, diag=(0.8,)))
        model = replace(model, populations=(pop,))
        grid = Grid((-3.0,), (3.0,), (48,))
        w = hjb_backward(model, frozen_path(model, grid), grid, n_t=4)
        assert len(calls) <= 1
        reference = hjb_backward(lq_model(T=0.5, sigma=0.8), frozen_path(model, grid), grid, n_t=4)
        assert np.array_equal(w.values, reference.values)
