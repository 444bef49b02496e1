"""Finite-volume continuity solver: conservation, positivity, benchmarks."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf

from _helpers import (
    fpk_apply_oracle,
    fpk_assemble_oracle,
    fpk_solve_oracle,
    quadratic_cost,
    scalar_model,
)

from brsmfg.fokker_planck import BOUNDARIES, FpkConfig, NumericalError, fpk_step, solve_fpk, stable_dt
from brsmfg.measures import Grid, GridDensity, wasserstein_1d
from brsmfg.model import (
    ControlPenalty,
    CostFunction,
    DiffusionFunction,
    DriftFunction,
    GaussianMarginal,
    ModelSpec,
    PopulationModel,
    product_law,
)
from brsmfg.particle_sim import SimConfig, simulate_brs_nplayer
from brsmfg.presets import mean_coupling_model, ou_model


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
        masses = path.masses()
        assert np.abs(masses - 1.0).max() <= 1e-12

    def test_absorbing_boundary_loses_mass_monotonically(self):
        model = ou_model(T=1.0)
        grid = Grid((-1.0,), (1.0,), (64,))  # tight box: Gaussian leaks out
        m0 = gaussian_field(grid, 0.5)
        path = solve_fpk(
            model, m0, FpkConfig(t_final=1.0, boundary="absorbing", record_times=tuple(np.linspace(0, 1, 5)))
        )
        masses = path.masses()[:, 0]
        assert masses[-1] < masses[0]
        assert np.all(np.diff(masses) <= 1e-14)

    def test_boundary_mass_flag_raised_on_tight_domain(self):
        model = scalar_model(sigma=1.0)
        grid = Grid((-1.5,), (1.5,), (48,))
        m0 = gaussian_field(grid, 0.5)
        path = solve_fpk(model, m0, FpkConfig(t_final=1.0, record_times=(0.0, 1.0)))
        assert path.report["boundary_mass_flag"] == 1.0


class TestStepContract:
    def test_cfl_violation_raises(self):
        model = ou_model(T=1.0)
        m0 = gaussian_field(GRID, 0.5)
        bound = stable_dt(model, (m0,), 0.0)
        with pytest.raises(NumericalError, match="CFL violation"):
            fpk_step(model, (m0,), 0.0, dt=3.0 * bound)

    @pytest.mark.parametrize(
        "boundary, message",
        [
            ("no_flux", "exceeds stable bound 8.909e-04 (worst drain at pop 0, cell (1,))"),
            ("absorbing", "exceeds stable bound 8.908e-04 (worst drain at pop 0, cell (0,))"),
        ],
    )
    def test_cfl_violation_names_the_worst_cell_1d(self, boundary, message):
        model = ou_model(T=1.0)
        m0 = gaussian_field(GRID, 0.5)
        dt = 3.0 * stable_dt(model, (m0,), 0.0, boundary=boundary)
        with pytest.raises(NumericalError) as err:
            fpk_step(model, (m0,), 0.0, dt=dt, boundary=boundary)
        assert str(err.value) == f"CFL violation: dt={dt:.3e} {message}"

    def test_cfl_violation_names_the_worst_population_and_cell_2d(self):
        # population 1 diffuses fastest around (0.3, -0.5), the centre of cell (7, 5)
        def bump(t, x):
            return 0.5 + np.exp(-4.0 * ((x[..., :1] - 0.3) ** 2 + (x[..., 1:] + 0.5) ** 2)) * np.ones(2)

        grid = Grid((-1.0, -2.0), (1.0, 1.0), (12, 10))
        flat = DiffusionFunction.constant([0.5, 0.5])
        model = ModelSpec(d=2, T=1.0, populations=(_population(flat), _population(DiffusionFunction(bump))))
        m = GridDensity(grid, np.full(grid.cells, 1.0 / 6.0))
        dt = 2.0 * stable_dt(model, (m, m), 0.0)
        with pytest.raises(NumericalError) as err:
            fpk_step(model, (m, m), 0.0, dt=dt)
        assert str(err.value) == (
            f"CFL violation: dt={dt:.3e} exceeds stable bound 1.125e-02 "
            "(worst drain at pop 1, cell (7, 5))"
        )

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
            stable_dt(model, (m0, m0), 0.0)
        with pytest.raises(NumericalError, match=message):
            fpk_step(model, (m0, m0), 0.0, dt=1e-4)

    def test_stable_dt_satisfies_componentwise_bound(self):
        model = ou_model(T=1.0)
        m0 = gaussian_field(GRID, 0.5)
        bound = stable_dt(model, (m0,), 0.0)
        dx = GRID.widths[0]
        max_a = 6.0  # |drift| on [-6, 6] for the quadratic cost
        assert bound <= min(dx / max_a, dx**2 / 1.0) + 1e-15

    def test_single_step_preserves_mass(self):
        model = ou_model(T=1.0)
        m0 = gaussian_field(GRID, 0.5)
        dt = 0.5 * stable_dt(model, (m0,), 0.0)
        (out,) = fpk_step(model, (m0,), 0.0, dt)
        assert out.mass == pytest.approx(m0.mass, abs=1e-13)

    def test_per_axis_boundary_spec_must_match_the_grid(self):
        cfg = FpkConfig(t_final=0.1, boundary=[("no_flux", "absorbing"), "no_flux"])
        m0 = gaussian_field(GRID, 0.5)
        with pytest.raises(ValueError, match="boundary spec has 2 axes, grid has 1"):
            solve_fpk(ou_model(T=1.0), m0, cfg)
        with pytest.raises(ValueError, match="boundary must be one of"):
            FpkConfig(t_final=0.1, boundary=[("no_flux", "reflecting"), "no_flux"])

    def test_min_cells_enforced(self):
        model = ou_model(T=1.0)
        grid = Grid((-6.0,), (6.0,), (4,))
        m0 = GridDensity(grid, np.full(4, 1.0 / 12.0))
        with pytest.raises(ValueError, match="cells"):
            solve_fpk(model, m0, FpkConfig(t_final=0.1))


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


def _population(diffusion, drift=None, cost_gradient=None, dim=2):
    zero = CostFunction.zero(dim)
    return PopulationModel(
        drift=drift or DriftFunction.zero(dim),
        running_cost=zero if cost_gradient is None else CostFunction(value=zero.value, gradient=cost_gradient),
        terminal_cost=zero,
        penalty=ControlPenalty.constant(1.0),
        diffusion=diffusion,
        initial_law=product_law([GaussianMarginal(0.0, 1.0)] * dim),
    )


def _random_model(rng, dim: int, n_pop: int) -> ModelSpec:
    """Smooth drifts and diffusions with random coefficients.

    Each population is pulled toward a multiple of the other population's mean
    (its own with one population), so the drift depends on the frozen state.
    """
    pops = []
    for pop in range(n_pop):
        c, a, s0, s1 = (rng.uniform(lo, hi, dim) for lo, hi in ((-1, 1), (0.2, 1.5), (0.3, 1.0), (0, 0.3)))
        k = rng.uniform(-0.5, 0.5)
        other = (pop + 1) % n_pop

        def gradient(x, m, a=a, k=k, other=other):
            target = (m if n_pop == 1 else m[other]).mean()
            return a * (np.asarray(x) - k * target)

        pops.append(
            _population(
                DiffusionFunction(lambda t, x, s0=s0, s1=s1: s0 + s1 * np.cos(np.asarray(x) + t)),
                drift=DriftFunction(lambda x, m, c=c: c * np.sin(np.asarray(x))),
                cost_gradient=gradient,
                dim=dim,
            )
        )
    return ModelSpec(d=dim, T=1.0, populations=tuple(pops))


@st.composite
def fpk_problems(draw):
    """(model, densities, boundary spec, velocity override or None) on a random grid."""
    dim = draw(st.integers(1, 2))
    n_pop = draw(st.integers(1, 2))
    cells = tuple(draw(st.integers(8, 40 if dim == 1 else 14)) for _ in range(dim))
    mins = tuple(draw(st.floats(-3.0, -0.5)) for _ in range(dim))
    maxs = tuple(lo + draw(st.floats(1.0, 5.0)) for lo in mins)
    grid = Grid(mins, maxs, cells)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    fields = []
    for _ in range(n_pop):
        vals = rng.uniform(0.05, 1.0, cells)
        fields.append(GridDensity(grid, vals / (vals.sum() * grid.cell_volume)))
    side = st.sampled_from(BOUNDARIES)
    boundary = draw(
        st.one_of(
            side,
            st.lists(st.tuples(side, side), min_size=dim, max_size=dim),
            st.lists(side, min_size=dim, max_size=dim),
        )
    )
    velocity = None
    if draw(st.booleans()):
        phase = rng.uniform(0.0, np.pi, dim)

        def velocity(pop, t, x, measures):
            return np.cos(x + phase + t) - 0.5 * pop

    return _random_model(rng, dim, n_pop), tuple(fields), boundary, velocity


class TestStepMatchesReference:
    @settings(max_examples=60, deadline=None)
    @given(problem=fpk_problems(), t=st.floats(0.0, 1.0), fraction=st.floats(0.1, 1.0))
    def test_fpk_step_is_bit_identical(self, problem, t, fraction):
        model, fields, boundary, velocity = problem
        ref = fpk_assemble_oracle(model, fields, t, velocity, boundary)
        drain = max(a[2] for a in ref)
        assert stable_dt(model, fields, t, velocity=velocity, boundary=boundary) == 1.0 / drain
        dt = fraction / drain
        out = fpk_step(model, fields, t, dt, velocity=velocity, boundary=boundary)
        expected = fpk_apply_oracle(fields, ref, dt)
        for got, want in zip(out, expected):
            assert np.array_equal(got.values, want.values)
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
        for key, value in report.items():
            assert path.report[key] == value, key


class TestConservationProperty:
    @settings(max_examples=30, deadline=None)
    @given(problem=fpk_problems(), t_final=st.floats(0.02, 0.2))
    def test_no_flux_keeps_mass_and_positivity(self, problem, t_final):
        model, fields, _, _ = problem
        path = solve_fpk(model, fields, FpkConfig(t_final=t_final, record_times=(0.0, t_final)))
        assert path.report["mass_drift_max"] <= 1e-12
        assert np.abs(path.masses() - 1.0).max() <= 1e-12
        assert path.report["min_density"] >= 0.0
        assert path.values.min() >= 0.0
