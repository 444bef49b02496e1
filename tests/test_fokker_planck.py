"""Finite-volume continuity solver: conservation, positivity, benchmarks."""

import re
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf

from _helpers import (
    fpk_apply_oracle,
    fpk_assemble_oracle,
    fpk_solve_oracle,
    path_masses,
    quadratic_cost,
    scalar_model,
    without_bind,
)

from brsmfg.applications import CrowdParams, WealthParams, build_crowd_model, build_wealth_model
from brsmfg.fokker_planck import BOUNDARIES, FpkConfig, NumericalError, _Step, solve_fpk
from brsmfg.measures import Grid, GridDensity, wasserstein_1d
from brsmfg.model import (
    ControlPenalty,
    CostFunction,
    DiffusionFunction,
    DriftFunction,
    GaussianMarginal,
    ModelSpec,
    PopulationModel,
    brs_drift,
    coupling_measure,
    product_law,
)
from brsmfg.particle_sim import SimConfig, simulate_brs_nplayer
from brsmfg.presets import lq_model, mean_coupling_model, ou_model


def gaussian_field(grid: Grid, std: float, mean: float = 0.0) -> GridDensity:
    edges = grid.edges(0)
    cdf = 0.5 * (1 + erf((edges - mean) / (std * np.sqrt(2))))
    vals = np.diff(cdf) / grid.widths[0]
    vals /= vals.sum() * grid.cell_volume
    return GridDensity(grid, vals)


GRID = Grid((-6.0,), (6.0,), (400,))


class TestPureCases:
    def test_frozen_without_dynamics(self):
        model = scalar_model(sigma=0.0)
        m0 = gaussian_field(GRID, 0.5)
        path = solve_fpk(model, m0, FpkConfig(t_final=0.5, record_times=(0.0, 0.5)))
        assert np.array_equal(path.values[-1, 0], m0.values)

    def test_heat_kernel_variance_growth(self):
        model = scalar_model(sigma=1.0)  # no drift: pure diffusion
        m0 = gaussian_field(GRID, 0.5)
        path = solve_fpk(model, m0, FpkConfig(t_final=0.5, record_times=(0.0, 0.5)))
        var = path.final(0).variance()[0]
        assert var == pytest.approx(0.75, rel=0.02)

    def test_ou_terminal_variance(self):
        model = ou_model(T=8.0)
        m0 = model.population(0).initial_law.grid_density(GRID)
        path = solve_fpk(model, m0, FpkConfig(t_final=8.0, record_times=(0.0, 8.0)))
        assert path.final(0).variance()[0] == pytest.approx(0.5, rel=0.02)

    def test_ou_density_matches_analytic_in_l1(self):
        model = ou_model(T=8.0)
        m0 = model.population(0).initial_law.grid_density(GRID)
        path = solve_fpk(model, m0, FpkConfig(t_final=8.0, record_times=(0.0, 8.0)))
        exact = gaussian_field(GRID, np.sqrt(0.5))
        l1 = np.abs(path.values[-1, 0] - exact.values).sum() * GRID.cell_volume
        assert l1 <= 2e-2

    def test_symmetric_interaction_conserves_the_mean(self):
        model = mean_coupling_model(T=1.0)
        m0 = gaussian_field(GRID, 0.5)
        path = solve_fpk(model, m0, FpkConfig(t_final=1.0, record_times=(0.0, 0.5, 1.0)))
        for k in range(len(path.times)):
            assert abs(path.density(k, 0).mean()[0]) <= 1e-10


class TestConservation:
    def test_mass_and_positivity_under_no_flux(self):
        model = ou_model(T=8.0)
        m0 = model.population(0).initial_law.grid_density(GRID)
        path = solve_fpk(model, m0, FpkConfig(t_final=8.0, record_times=tuple(np.linspace(0, 8, 9))))
        assert path.report["mass_drift_max"] <= 1e-12
        assert path.report["min_density"] >= -1e-13
        masses = path_masses(path)
        assert np.abs(masses - 1.0).max() <= 1e-12

    def test_absorbing_boundary_loses_mass_monotonically(self):
        model = ou_model(T=1.0)
        grid = Grid((-1.0,), (1.0,), (64,))  # tight box: Gaussian leaks out
        m0 = gaussian_field(grid, 0.5)
        path = solve_fpk(
            model, m0, FpkConfig(t_final=1.0, boundary="absorbing", record_times=tuple(np.linspace(0, 1, 5)))
        )
        masses = path_masses(path)[:, 0]
        assert masses[-1] < masses[0]
        assert np.all(np.diff(masses) <= 1e-14)

    def test_boundary_mass_flag_raised_on_tight_domain(self):
        model = scalar_model(sigma=1.0)
        grid = Grid((-1.5,), (1.5,), (48,))
        m0 = gaussian_field(grid, 0.5)
        path = solve_fpk(model, m0, FpkConfig(t_final=1.0, record_times=(0.0, 1.0)))
        assert path.report["boundary_mass_flag"] == 1.0

    def test_boundary_mass_counts_every_population_at_the_start(self):
        # population 1 starts across the right wall's layer; population 0 well inside
        model = build_crowd_model(CrowdParams(ic_centers=((-0.5, 0.0), (1.9, 0.0)), ic_std=0.3, horizon=0.05))
        grid = Grid((-2.0, -2.0), (2.0, 2.0), (24, 24))
        m0 = tuple(model.population(p).initial_law.grid_density(grid) for p in range(2))
        outer = [(m.values.sum() - m.values[1:-1, 1:-1].sum()) / m.values.sum() for m in m0]
        assert outer[0] < 1e-4 < 0.3 < outer[1]
        path = solve_fpk(model, m0, FpkConfig(t_final=0.05))
        assert path.report["boundary_mass_max"] >= outer[1]


def max_drain(model, fields, t=0.0, velocity=None, boundary="no_flux"):
    """The largest per-cell drain of the solver's step at t; 1 / it is the positivity bound."""
    return _Step(model, fields[0].grid, velocity, boundary).assemble(fields, t)[1]


class TestStepContract:
    def test_step_collapse_names_the_worst_population_and_cell_2d(self):
        # population 1 diffuses fastest around (0.3, -0.5), in cell (7, 5): its first
        # CFL-limited step is about 2.5e-16, below 1e-12 * t_final
        def bump(t, x):
            return 0.5 + 1e7 * np.exp(-4.0 * ((x[..., :1] - 0.3) ** 2 + (x[..., 1:] + 0.5) ** 2)) * np.ones(2)

        grid = Grid((-1.0, -2.0), (1.0, 1.0), (12, 10))
        flat = DiffusionFunction.constant([0.5, 0.5])
        model = ModelSpec(d=2, T=1.0, populations=(_population(flat), _population(DiffusionFunction(bump))))
        m = GridDensity(grid, np.full(grid.cells, 1.0 / 6.0))
        dt = 0.9 / max_drain(model, (m, m))
        with pytest.raises(NumericalError) as err:
            solve_fpk(model, (m, m), FpkConfig(t_final=1.0))
        assert str(err.value) == (
            f"step collapse: the CFL-limited step {dt:.3e} at t=0 is below 1e-12 * t_final "
            "(worst drain at pop 1, cell (7, 5))"
        )

    def test_populations_on_different_grids_are_rejected(self):
        model = ModelSpec(d=1, T=1.0, populations=(_population(DiffusionFunction.constant([0.5]), dim=1),) * 2)
        other = Grid((-6.0,), (6.0,), (200,))
        with pytest.raises(ValueError, match="^all populations must share one grid$"):
            solve_fpk(model, (gaussian_field(GRID, 0.5), gaussian_field(other, 0.5)), FpkConfig(t_final=0.1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_closure_diffusion_is_named(self, bad):
        # a nan diffusion would read as D = 0 in the SG weight, an inf one as a zero step bound
        def sigma(t, x):
            return np.where(x > 1.0, bad, 0.5)

        pops = (_population(DiffusionFunction.constant([0.5]), dim=1), _population(DiffusionFunction(sigma), dim=1))
        model = ModelSpec(d=1, T=1.0, populations=pops)
        m0 = gaussian_field(GRID, 0.5)
        message = f"^{re.escape('non-finite diffusion on axis-0 faces (pop 1)')}$"
        with pytest.raises(NumericalError, match=message):
            solve_fpk(model, (m0, m0), FpkConfig(t_final=0.1))

    def test_step_collapse_is_named(self):
        # D = 5e13 on a 16-cell grid: the first CFL-limited step is about 1e-16
        def sigma(t, x):
            return np.full(np.shape(x), 1e7)

        model = ModelSpec(d=1, T=1.0, populations=(_population(DiffusionFunction(sigma), dim=1),))
        grid = Grid((-1.0,), (1.0,), (16,))
        m0 = GridDensity(grid, np.full(16, 0.5))
        start = time.perf_counter()
        with pytest.raises(NumericalError, match=r"^step collapse: .* at t=0 .*\(worst drain at pop 0, cell \(\d+,\)\)$"):
            solve_fpk(model, m0, FpkConfig(t_final=1.0))
        assert time.perf_counter() - start < 1.0

    def test_short_remainder_before_a_record_time_is_not_a_collapse(self):
        # pure diffusion with dx = 1 and D = 1/2: every CFL-limited step is 0.9, so the fourth
        # step is chopped to about 5e-10, below 1e-12 * t_final = 1e-9
        model = scalar_model(sigma=1.0)
        grid = Grid((-8.0,), (8.0,), (16,))
        m0 = gaussian_field(grid, 1.0)
        record = (0.0, 0.9 + 0.9 + 0.9 + 5e-10, 1000.0)
        path = solve_fpk(model, m0, FpkConfig(t_final=1000.0, record_times=record))
        assert np.array_equal(path.times, np.asarray(record))

    def test_declared_constant_diffusion_is_evaluated_at_most_once_per_population(self):
        calls = []

        def sigma(t, x):
            calls.append(t)
            return np.full(np.shape(x), 0.6)

        grid = Grid((-2.0, -2.0), (2.0, 2.0), (20, 24))
        pops = tuple(_population(DiffusionFunction(sigma, diag=(0.6, 0.6))) for _ in range(2))
        model = ModelSpec(d=2, T=1.0, populations=pops)
        m = GridDensity(grid, np.full(grid.cells, 1.0 / 16.0))
        path = solve_fpk(model, (m, m), FpkConfig(t_final=0.5))
        assert path.report["n_steps"] > 2
        assert len(calls) <= 2

    def test_positivity_bound_satisfies_componentwise_bound(self):
        model = ou_model(T=1.0)
        m0 = gaussian_field(GRID, 0.5)
        bound = 1.0 / max_drain(model, (m0,))
        dx = GRID.widths[0]
        max_a = 6.0  # |drift| on [-6, 6] for the quadratic cost
        assert bound <= min(dx / max_a, dx**2 / 1.0) + 1e-15

    def test_single_step_preserves_mass(self):
        model = ou_model(T=1.0)
        m0 = gaussian_field(GRID, 0.5)
        step = _Step(model, GRID, None, "no_flux")
        asm, drain = step.assemble((m0,), 0.0)
        (out,) = step.apply((m0,), asm, 0.5 / drain)
        assert out.mass == pytest.approx(m0.mass, abs=1e-13)

    @pytest.mark.parametrize("boundary", ["reflecting", ("no_flux", "absorbing"), ["no_flux"]])
    def test_boundary_must_be_one_label(self, boundary):
        with pytest.raises(ValueError, match="boundary must be one of"):
            FpkConfig(t_final=0.1, boundary=boundary)

    @pytest.mark.parametrize("t_final", [0.0, -1.0, np.inf, np.nan])
    def test_t_final_must_be_positive_and_finite(self, t_final):
        with pytest.raises(ValueError, match="^t_final must be positive and finite"):
            FpkConfig(t_final=t_final)

    def test_min_cells_enforced(self):
        model = ou_model(T=1.0)
        grid = Grid((-6.0,), (6.0,), (4,))
        m0 = GridDensity(grid, np.full(4, 1.0 / 12.0))
        with pytest.raises(ValueError, match="cells"):
            solve_fpk(model, m0, FpkConfig(t_final=0.1))

    @pytest.mark.parametrize("case", ["ou_1d", "crowd_2d"])
    def test_no_step_writes_into_a_density_it_handed_out(self, case):
        if case == "ou_1d":
            model, grid = ou_model(T=1.0), GRID
            m0 = (gaussian_field(GRID, 0.5),)
        else:
            model, grid = build_crowd_model(CrowdParams()), Grid((-2.0, -2.0), (2.0, 2.0), (16, 16))
            m0 = tuple(model.population(p).initial_law.grid_density(grid) for p in range(2))
        seen = []  # (t, the densities the velocity was handed, copies of their values)

        def velocity(pop, x, k):
            def normal(t, measures):
                fields = (measures,) if isinstance(measures, GridDensity) else measures
                if pop == 0 and (not seen or seen[-1][0] != t):
                    seen.append((t, fields, [f.values.copy() for f in fields]))
                return -3.0 * x[:, k] + 0.1 * pop

            return normal

        def assert_unchanged():
            for _, fields, copies in seen:
                for f, values in zip(fields, copies):
                    assert f.values.tobytes() == values.tobytes()
            assert path.values.tobytes() == recorded

        record = tuple(np.linspace(0.0, 0.1, 5))
        cfg = FpkConfig(t_final=0.1, record_times=record)
        path = solve_fpk(model, m0, cfg, velocity=velocity)
        recorded = path.values.tobytes()
        assert len(seen) == path.report["n_steps"] > len(record)
        assert_unchanged()
        # each recorded slice is the density the next step was handed
        starts = {t: copies for t, _, copies in seen}
        for k, t in enumerate(path.times[:-1]):
            assert np.stack(starts[t]).tobytes() == path.values[k].tobytes()
        n_seen = len(seen)
        solve_fpk(model, m0, cfg, velocity=velocity)
        assert len(seen) == 2 * n_seen
        assert_unchanged()


def _wealth_case(params=WealthParams()):
    """The wealth model and its initial density on a small 10 x 12 grid."""
    model = build_wealth_model(params)
    grid = Grid((-3.0, params.z_min), (3.0, 4.0), (10, 12))
    return model, model.population(0).initial_law.grid_density(grid)


def _counting_gradients(model: ModelSpec, calls: list) -> ModelSpec:
    """``model`` with each running cost recording its work.

    Each gradient call records ``("gradient", shape of x)``, each binding
    ``("bind", shape of the points, axes)`` and each call of a bound function
    ``("bound", shape of the points)``. A cost without ``bind`` keeps none.
    """

    def spy(cost):
        def gradient(x, m):
            calls.append(("gradient", np.shape(x)))
            return cost.gradient(x, m)

        def bind(points, axes):
            calls.append(("bind", np.shape(points), tuple(axes)))
            bound = cost.bind(points, axes)

            def evaluate(m):
                calls.append(("bound", np.shape(points)))
                return bound(m)

            return evaluate

        return replace(cost, gradient=gradient, bind=None if cost.bind is None else bind)

    return replace(model, populations=tuple(replace(p, running_cost=spy(p.running_cost)) for p in model.populations))


def _with_gradient(p: PopulationModel, gradient) -> PopulationModel:
    """``p`` with another running-cost gradient; the old gradient's ``bind`` would not match it, so it goes."""
    return replace(p, running_cost=replace(p.running_cost, gradient=gradient, bind=None))


def _with_mask(model: ModelSpec, mask) -> ModelSpec:
    return replace(model, populations=tuple(replace(p, control_mask=mask) for p in model.populations))


def _densities_case(model: ModelSpec, grid: Grid):
    return model, tuple(p.initial_law.grid_density(grid) for p in model.populations)


def _wealth_fields(params=WealthParams(), bind=True):
    model, m = _wealth_case(params)
    return (model if bind else without_bind(model)), (m,)


_LINE = Grid((-4.0,), (4.0,), (40,))
# (model, initial densities) per name: every kind of cost the FPK's face velocity meets
_FACE_VELOCITY_CASES = {
    "ou": lambda: _densities_case(ou_model(T=1.0), _LINE),
    "lq": lambda: _densities_case(lq_model(), _LINE),
    "mean_coupling": lambda: _densities_case(mean_coupling_model(), _LINE),
    "crowd": lambda: _densities_case(build_crowd_model(CrowdParams()), Grid((-2.0, -2.0), (2.0, 2.0), (12, 14))),
    "wealth": _wealth_fields,
    "wealth_moving": lambda: _wealth_fields(WealthParams(v=lambda x: 0.5 * np.cos(np.asarray(x)[..., 0]))),
    "wealth_without_bind": lambda: _wealth_fields(bind=False),
}


class TestUncontrolledAxes:
    """Faces normal to an axis whose control-mask entry is 0 take the drift f alone."""

    @pytest.mark.parametrize("case", sorted(_FACE_VELOCITY_CASES))
    def test_face_velocity_is_the_brs_drift_component_bit_for_bit(self, case):
        model, fields = _FACE_VELOCITY_CASES[case]()
        grid, measures = fields[0].grid, coupling_measure(fields)
        asm, _ = _Step(model, grid, None, "absorbing").assemble(fields, 0.3)
        for pop, (bs, _, _, _) in enumerate(asm):
            for k in range(grid.dim):
                pts = grid.face_points(k)
                vel = brs_drift(model, pop, 0.3, pts.reshape(-1, grid.dim), measures)
                want = vel[:, k].reshape(pts.shape[:-1]).swapaxes(0, k)
                assert bs[k].tobytes() == want.tobytes()

    def test_cost_gradient_is_evaluated_once_per_step_per_controlled_axis(self):
        calls = []
        model, m = _wealth_case()
        faces = m.grid.face_points(1).reshape(-1, 2).shape
        # bound: the z faces are bound once per solve, and the bound z component is asked once per step
        path = solve_fpk(_counting_gradients(model, calls), m, FpkConfig(t_final=0.1))
        assert path.report["n_steps"] >= 2
        assert calls == [("bind", faces, (1,))] + [("bound", faces)] * int(path.report["n_steps"])

        calls.clear()
        path = solve_fpk(_counting_gradients(without_bind(model), calls), m, FpkConfig(t_final=0.1))
        assert path.report["n_steps"] >= 2
        assert calls == [("gradient", faces)] * int(path.report["n_steps"])

        calls.clear()
        model = build_crowd_model(CrowdParams())
        grid = Grid((-2.0, -2.0), (2.0, 2.0), (16, 16))
        m0 = tuple(model.population(p).initial_law.grid_density(grid) for p in range(2))
        path = solve_fpk(_counting_gradients(model, calls), m0, FpkConfig(t_final=0.1))
        assert path.report["n_steps"] >= 2
        assert len(calls) == 2 * 2 * int(path.report["n_steps"])
        assert {call[0] for call in calls} == {"gradient"}

    @pytest.mark.parametrize("mask", [(0.5, 1.0), (0.0, 1.0), None])
    def test_brs_drift_is_called_on_each_axis_with_a_nonzero_mask_entry(self, mask):
        model, m = _wealth_case()
        controlled = [k for k in range(2) if mask is None or mask[k] != 0.0]
        faces = [m.grid.face_points(k).reshape(-1, 2).shape for k in controlled]
        # unbound: one whole gradient per controlled axis per step, none on a masked-out axis
        calls = []
        path = solve_fpk(_counting_gradients(_with_mask(without_bind(model), mask), calls), m, FpkConfig(t_final=0.1))
        assert path.report["n_steps"] >= 2
        assert calls == [("gradient", shape) for shape in faces] * int(path.report["n_steps"])

        # bound: one binding per controlled axis per solve, one bound call per step each
        calls.clear()
        path = solve_fpk(_counting_gradients(_with_mask(model, mask), calls), m, FpkConfig(t_final=0.1))
        assert calls == [("bind", faces[i], (k,)) for i, k in enumerate(controlled)] + [
            ("bound", shape) for shape in faces
        ] * int(path.report["n_steps"])

    def test_a_closure_velocity_is_asked_on_every_axis(self):
        asked, calls = [], []
        model, m = _wealth_case()

        def velocity(pop, x, k):
            asked.append(np.shape(x))
            return lambda t, measures: np.stack([0.1 + 0.0 * x[:, 0], -0.2 * x[:, 1]], axis=-1)[:, k]

        step = _Step(_counting_gradients(model, calls), m.grid, velocity, "absorbing")
        ((bs, _, _, _),), _ = step.assemble((m,), 0.0)
        assert asked == [m.grid.face_points(k).reshape(-1, 2).shape for k in range(2)]
        assert calls == []
        assert np.all(bs[0] == 0.1)

    def test_nonfinite_drift_on_an_uncontrolled_axis_is_named(self):
        model, m = _wealth_case(WealthParams(v=lambda x: np.where(np.asarray(x)[..., 0] > 1.0, np.nan, 0.0)))
        message = re.escape("drift f produced non-finite value (nan) in axis-0 faces (pop 0)")
        with pytest.raises(FloatingPointError, match=f"^{message}$"):
            solve_fpk(model, m, FpkConfig(t_final=0.01))

    def test_nonfinite_cost_gradient_on_controlled_faces_is_named(self):
        model, m = _wealth_case()
        p = model.population(0)

        def gradient(x, m):
            g = p.running_cost.gradient(x, m)
            g[..., 0] = np.where(np.asarray(x)[..., 1] > 2.0, np.inf, g[..., 0])
            return g

        bad = replace(model, populations=(_with_gradient(p, gradient),))
        with pytest.raises(FloatingPointError, match=r"^grad h produced non-finite value \(inf\)"):
            solve_fpk(bad, m, FpkConfig(t_final=0.01))

    def test_nonfinite_bound_gradient_is_named_as_on_the_unbound_path(self):
        # phi' is nan beyond a wealth gap of 3, so gz is nan on the z faces near the top wall
        model, m = _wealth_case(WealthParams(phi_prime=lambda z: np.where(np.abs(z) > 3.0, np.nan, z)))
        messages = []
        for cost_model in (model, without_bind(model)):
            with pytest.raises(FloatingPointError) as exc:
                _Step(cost_model, m.grid, None, "no_flux").assemble((m,), 0.0)
            messages.append(str(exc.value))
        assert messages[0] == messages[1]
        assert messages[0].startswith("grad h produced non-finite value (nan) in cost_gradient_sum")


class TestBoundCosts:
    """A cost with ``bind`` gives the face velocities of the unbound path bit for bit."""

    @pytest.mark.parametrize("boundary", BOUNDARIES)
    @pytest.mark.parametrize("mask", [(0.0, 1.0), (0.5, 1.0), None])
    @pytest.mark.parametrize("speed", [None, lambda x: 0.5 * np.cos(np.asarray(x)[..., 0])])
    @pytest.mark.parametrize("terminal", ["zero", "bound"])
    def test_face_velocities_match_the_unbound_path_bit_for_bit(self, boundary, mask, speed, terminal):
        model, m0 = _wealth_case(WealthParams(v=speed))
        p = model.population(0)
        if terminal == "bound":
            p = replace(p, terminal_cost=p.running_cost)
        model = _with_mask(replace(model, populations=(p,)), mask)
        # a density the solve has moved, so it is not a product of marginals
        m = solve_fpk(model, m0, FpkConfig(t_final=0.02)).final()
        (bound,), _ = _Step(model, m.grid, None, boundary).assemble((m,), 0.3)
        (unbound,), _ = _Step(without_bind(model), m.grid, None, boundary).assemble((m,), 0.3)
        (b, G, drain, _), (b_unbound, G_unbound, drain_unbound, _) = bound, unbound
        for k in range(2):
            assert b[k].tobytes() == b_unbound[k].tobytes()
            assert G[k].tobytes() == G_unbound[k].tobytes()
        assert drain.tobytes() == drain_unbound.tobytes()

    def test_a_terminal_cost_without_bind_keeps_the_unbound_path(self):
        calls = []
        model, m = _wealth_case()
        p = model.population(0)
        terminal = replace(p.running_cost, bind=None, pair_gradient=None)
        model = replace(model, populations=(replace(p, terminal_cost=terminal),))
        _Step(_counting_gradients(model, calls), m.grid, None, "no_flux").assemble((m,), 0.0)
        # the running cost binds but is not bound: its whole gradient is asked on the z faces alone
        assert calls == [("gradient", m.grid.face_points(1).reshape(-1, 2).shape)]


class TestAccuracy:
    def test_first_order_convergence_on_the_advective_benchmark(self):
        # sigma = 0 keeps the flux in its donor-cell regime; m(t,x) = e^t m0(x e^t)
        model = scalar_model(h=quadratic_cost(), sigma=0.0)
        t_final = 0.5
        errs = []
        for nc in (100, 200):
            grid = Grid((-6.0,), (6.0,), (nc,))
            m0 = gaussian_field(grid, 0.5)
            path = solve_fpk(model, m0, FpkConfig(t_final=t_final, record_times=(0.0, t_final)))
            exact = gaussian_field(grid, 0.5 * np.exp(-t_final))
            errs.append(np.abs(path.values[-1, 0] - exact.values).sum() * grid.cell_volume)
        ratio = errs[0] / errs[1]
        assert 1.6 <= ratio <= 2.4

    def test_particles_and_pde_agree_in_w1(self):
        model = ou_model(T=1.0)
        m0 = model.population(0).initial_law.grid_density(GRID)
        path = solve_fpk(model, m0, FpkConfig(t_final=1.0, record_times=(0.0, 1.0)))
        cfg = SimConfig(dt=0.001, t_final=1.0, n_particles=4000, seed=3, record_every=1000)
        rec = simulate_brs_nplayer(model, cfg)
        w1 = wasserstein_1d(rec.final().empirical(), path.final(0), p=1)
        assert w1 <= 0.05

    def test_record_times_are_hit_exactly(self):
        model = ou_model(T=1.0)
        m0 = gaussian_field(GRID, 0.5)
        times = (0.0, 0.3117, 0.75, 1.0)
        path = solve_fpk(model, m0, FpkConfig(t_final=1.0, record_times=times))
        assert np.array_equal(path.times, np.asarray(times))

    def test_default_records_the_start_and_the_end(self):
        model = ou_model(T=1.0)
        m0 = gaussian_field(GRID, 0.5)
        path = solve_fpk(model, m0, FpkConfig(t_final=0.05))
        assert path.times.size == 2
        assert path.times[0] == 0.0
        assert path.times[-1] == pytest.approx(0.05, abs=1e-12)
        assert np.all(np.diff(path.times) > 0)

    @pytest.mark.parametrize(
        "times",
        [(0.0, 0.5), (0.0, 0.5, 0.25, 1.0), (0.0, 0.5, 0.5, 1.0), (-0.1, 1.0), (0.0, 1.5), ()],
        ids=["ends-before-t_final", "decreasing", "repeated", "before-0", "after-t_final", "empty"],
    )
    def test_bad_record_times_are_rejected_by_name(self, times):
        with pytest.raises(ValueError, match="record_times"):
            FpkConfig(t_final=1.0, record_times=times)


# ---------------------------------------------------------------------------
# The step against the reference step in ``_helpers``, on random problems
# ---------------------------------------------------------------------------


def _population(diffusion, drift=None, cost_gradient=None, dim=2, penalty=None, control_mask=None):
    zero = CostFunction.zero(dim)
    return PopulationModel(
        drift=drift or DriftFunction.zero(dim),
        running_cost=zero if cost_gradient is None else CostFunction(value=zero.value, gradient=cost_gradient),
        terminal_cost=zero,
        penalty=penalty or ControlPenalty.constant(1.0),
        diffusion=diffusion,
        initial_law=product_law([GaussianMarginal(0.0, 1.0)] * dim),
        control_mask=control_mask,
    )


def _random_model(rng, dim: int, kinds) -> ModelSpec:
    """Smooth drifts and diffusions with random coefficients.

    ``kinds`` holds one (diffusion, drift, penalty, mask) choice per
    population: diffusion ``closure``, ``constant`` or ``constant_zero`` (a
    declared constant with a zero entry, so that axis has donor-cell faces);
    drift ``closure`` or ``zero``; penalty ``constant`` or ``closure``
    (time-varying); control mask ``all`` (none declared), ``zero_axis`` or
    ``half_axis`` (entry 0 or 0.5 on one random axis, 1 elsewhere).
    Each population is pulled toward a multiple of the other population's mean
    (its own with one population), so the drift depends on the frozen state.
    """
    n_pop = len(kinds)
    pops = []
    for pop, (diffusion_kind, drift_kind, penalty_kind, mask_kind) in enumerate(kinds):
        c, a, s0, s1 = (rng.uniform(lo, hi, dim) for lo, hi in ((-1, 1), (0.2, 1.5), (0.3, 1.0), (0, 0.3)))
        k = rng.uniform(-0.5, 0.5)
        a0, a1 = rng.uniform(0.5, 1.5), rng.uniform(-0.4, 0.4)
        other = (pop + 1) % n_pop

        def gradient(x, m, a=a, k=k, other=other):
            target = (m if n_pop == 1 else m[other]).mean()
            return a * (np.asarray(x) - k * target)

        if diffusion_kind == "closure":
            diffusion = DiffusionFunction(lambda t, x, s0=s0, s1=s1: s0 + s1 * np.cos(np.asarray(x) + t))
        else:
            if diffusion_kind == "constant_zero":
                s0[rng.integers(dim)] = 0.0
            diffusion = DiffusionFunction.constant(s0)
        mask = None
        if mask_kind != "all":
            mask = [1.0] * dim
            mask[rng.integers(dim)] = 0.0 if mask_kind == "zero_axis" else 0.5
        pops.append(
            _population(
                diffusion,
                drift=DriftFunction(lambda x, m, c=c: c * np.sin(np.asarray(x))) if drift_kind == "closure" else None,
                cost_gradient=gradient,
                dim=dim,
                penalty=(
                    ControlPenalty(alpha=lambda t, a0=a0, a1=a1: a0 + a1 * t, alpha_dot=lambda t, a1=a1: a1)
                    if penalty_kind == "closure"
                    else None
                ),
                control_mask=None if mask is None else tuple(mask),
            )
        )
    return ModelSpec(d=dim, T=1.0, populations=tuple(pops))


@st.composite
def fpk_problems(draw):
    """(model, densities, boundary label, velocity override or None) on a random grid."""
    dim = draw(st.integers(1, 2))
    n_pop = draw(st.integers(1, 2))
    kinds = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["closure", "constant", "constant_zero"]),
                st.sampled_from(["closure", "zero"]),
                st.sampled_from(["constant", "closure"]),
                st.sampled_from(["all", "zero_axis", "half_axis"]),
            ),
            min_size=n_pop,
            max_size=n_pop,
        )
    )
    cells = tuple(draw(st.integers(8, 40 if dim == 1 else 14)) for _ in range(dim))
    mins = tuple(draw(st.floats(-3.0, -0.5)) for _ in range(dim))
    maxs = tuple(lo + draw(st.floats(1.0, 5.0)) for lo in mins)
    grid = Grid(mins, maxs, cells)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    fields = []
    for _ in range(n_pop):
        vals = rng.uniform(0.05, 1.0, cells)
        fields.append(GridDensity(grid, vals / (vals.sum() * grid.cell_volume)))
    boundary = draw(st.sampled_from(BOUNDARIES))
    velocity = None
    if draw(st.booleans()):
        phase = rng.uniform(0.0, np.pi, dim)

        def velocity(pop, x, k):
            return lambda t, measures: (np.cos(x + phase + t) - 0.5 * pop)[:, k]

    return _random_model(rng, dim, kinds), tuple(fields), boundary, velocity


class TestStepMatchesReference:
    @settings(max_examples=60, deadline=None)
    @given(problem=fpk_problems(), t=st.floats(0.0, 1.0), fraction=st.floats(0.1, 1.0))
    def test_step_is_bit_identical(self, problem, t, fraction):
        model, fields, boundary, velocity = problem
        ref = fpk_assemble_oracle(model, fields, t, velocity, boundary)
        drain = max(a[2] for a in ref)
        step = _Step(model, fields[0].grid, velocity, boundary)
        asm, got_drain = step.assemble(fields, t)
        assert got_drain == drain
        dt = fraction / drain if drain > 0.0 else fraction  # no drift or diffusion anywhere: any step
        out = step.apply(fields, asm, dt)
        expected = fpk_apply_oracle(fields, ref, dt)
        for got, want in zip(out, expected):
            # tobytes() pins the signed zeros that array_equal lets pass
            assert np.array_equal(got.values, want.values)
            assert got.values.tobytes() == want.values.tobytes()
            assert got.mass == want.mass
            assert got.min_value == float(want.values.min())

    @settings(max_examples=30, deadline=None)
    @given(problem=fpk_problems(), t_final=st.floats(0.01, 0.06))
    def test_solve_fpk_is_bit_identical(self, problem, t_final):
        model, fields, boundary, velocity = problem
        record = (0.0, 0.5 * t_final, t_final)
        cfg = FpkConfig(t_final=t_final, boundary=boundary, record_times=record)
        path = solve_fpk(model, fields, cfg, velocity=velocity)
        times, values, report = fpk_solve_oracle(model, fields, t_final, record, boundary, velocity)
        assert np.array_equal(path.times, times)
        assert np.array_equal(path.values, values)
        assert path.times.tobytes() == times.tobytes()
        assert path.values.tobytes() == values.tobytes()
        for key, value in report.items():
            assert path.report[key] == value, key


class TestConservationProperty:
    @settings(max_examples=30, deadline=None)
    @given(problem=fpk_problems(), t_final=st.floats(0.02, 0.2))
    def test_no_flux_keeps_mass_and_positivity(self, problem, t_final):
        model, fields, _, _ = problem
        path = solve_fpk(model, fields, FpkConfig(t_final=t_final, record_times=(0.0, t_final)))
        assert path.report["mass_drift_max"] <= 1e-12
        assert np.abs(path_masses(path) - 1.0).max() <= 1e-12
        assert path.report["min_density"] >= 0.0
        assert path.values.min() >= 0.0
