"""Wealth and crowd presets: oracles, conservation, symmetry."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brsmfg.applications import CrowdParams, WealthParams, build_crowd_model, build_wealth_model
from brsmfg.brs import brs_control_finite
from brsmfg.fokker_planck import FpkConfig, solve_fpk
from brsmfg.measures import EmpiricalMeasure, Grid, GridDensity, leave_one_out
from brsmfg.model import brs_drift
from brsmfg.particle_sim import EnsembleState, SimConfig, simulate_brs_nplayer

from _helpers import wealth_cost_oracle, wealth_row_kernel_oracle


def trivial_kernels():
    """psi = 1, xi = 1: the trading drift reduces to wealth-difference averaging."""
    one = lambda r: np.ones_like(np.asarray(r, dtype=float))
    zero = lambda r: np.zeros_like(np.asarray(r, dtype=float))
    return WealthParams(psi=one, psi_prime=zero, xi=one, xi_prime=zero)


class TestWealthModel:
    def test_zmin_must_be_positive(self):
        with pytest.raises(ValueError, match="z_min"):
            build_wealth_model(WealthParams(z_min=0.0)).population(0)

    @pytest.mark.parametrize("key", ["kappa", "psi_width", "z_min"])
    @pytest.mark.parametrize("value", [0.0, -1.0, np.inf, -np.inf, np.nan])
    def test_scales_must_be_positive_and_finite(self, key, value):
        with pytest.raises(ValueError, match=f"{key} must be positive and finite"):
            build_wealth_model(WealthParams(**{key: value}))

    def test_odd_kernel_rejected(self):
        bad = WealthParams(psi=lambda r: np.asarray(r, dtype=float), psi_prime=lambda r: np.ones_like(np.asarray(r)))
        with pytest.raises(ValueError, match="even"):
            build_wealth_model(bad)

    def test_quadratic_trading_reverts_to_the_mean(self):
        model = build_wealth_model(trivial_kernels())
        rng = np.random.default_rng(4)
        pts = np.column_stack([rng.standard_normal(6), rng.lognormal(0, 0.3, 6)])
        state = EnsembleState(positions=(pts,), t=0.0, seed=0)
        for i in range(6):
            u = brs_control_finite(model, 0, i, state, 0.0, 0.01)
            mean_rest = (pts[:, 1].sum() - pts[i, 1]) / 5
            assert u[1] == pytest.approx(-(pts[i, 1] - mean_rest), abs=1e-12)
            assert u[0] == 0.0

    def test_equal_wealth_means_no_trade(self):
        model = build_wealth_model(WealthParams())
        pts = np.array([[0.0, 1.3], [1.0, 1.3]])
        m = EmpiricalMeasure(pts)
        drift = brs_drift(model, 0, 0.0, pts, m)
        assert np.abs(drift[:, 1]).max() <= 1e-14

    def test_full_empirical_drift_matches_double_loop(self):
        params = WealthParams()
        model = build_wealth_model(params)
        k = params.resolved()
        rng = np.random.default_rng(12)
        n = 100
        pts = np.column_stack([rng.standard_normal(n), rng.lognormal(0, 0.3, n)])
        m = EmpiricalMeasure(pts)
        drift = brs_drift(model, 0, 0.0, pts, m)
        rho = np.array(
            [sum(float(k["psi"](abs(pts[a, 0] - pts[l, 0]))) for l in range(n)) / n for a in range(n)]
        )
        for i in range(0, n, 7):
            acc = 0.0
            for j in range(n):
                acc -= (
                    float(k["xi"](0.5 * (rho[i] + rho[j])))
                    * float(k["psi"](abs(pts[i, 0] - pts[j, 0])))
                    * float(k["phi_prime"](pts[i, 1] - pts[j, 1]))
                ) / n
            assert drift[i, 1] == pytest.approx(acc, abs=1e-12)

    def test_pairwise_antisymmetry_sums_to_zero(self):
        model = build_wealth_model(WealthParams())
        rng = np.random.default_rng(5)
        pts = np.column_stack([rng.standard_normal(100), rng.lognormal(0, 0.3, 100)])
        m = EmpiricalMeasure(pts)
        drift = brs_drift(model, 0, 0.0, pts, m)
        assert abs(drift[:, 1].sum()) / 100 <= 1e-12

    def test_reflection_keeps_wealth_above_floor(self):
        params = WealthParams(kappa=0.6, z_min=0.05, z_log_mean=-2.0, z_log_std=0.8)
        model = build_wealth_model(params)
        cfg = SimConfig(dt=0.01, t_final=0.5, n_particles=400, seed=2, record_every=10)
        rec = simulate_brs_nplayer(model, cfg)
        for snap in rec.snapshots:
            assert snap.positions[0][:, 1].min() >= params.z_min - 1e-12

    def test_pure_diffusion_grid_run_conserves_mass(self):
        # v = 0 and Phi = 0: only the multiplicative wealth diffusion acts
        zerok = WealthParams(
            psi=lambda r: np.zeros_like(np.asarray(r, dtype=float)),
            psi_prime=lambda r: np.zeros_like(np.asarray(r, dtype=float)),
        )
        model = build_wealth_model(zerok)
        grid = Grid((-2.0, zerok.z_min), (2.0, 4.0), (16, 48))
        m0 = model.population(0).initial_law.grid_density(grid)
        path = solve_fpk(model, m0, FpkConfig(t_final=0.25, record_times=(0.0, 0.25)))
        assert path.report["mass_drift_max"] <= 1e-10
        assert path.report["min_density"] >= -1e-13

    def test_coupled_grid_run_conserves_mass(self):
        model = build_wealth_model(WealthParams())
        grid = Grid((-2.0, 1e-6), (2.0, 4.0), (16, 24))
        m0 = model.population(0).initial_law.grid_density(grid)
        path = solve_fpk(model, m0, FpkConfig(t_final=0.1, record_times=(0.0, 0.1)))
        assert path.report["mass_drift_max"] <= 1e-10


def random_grid_density(grid, rng, mirror_y=False):
    """A positive, non-uniform density of unit mass on ``grid``."""
    vals = rng.uniform(0.1, 1.0, grid.cells)
    if mirror_y:
        vals = 0.5 * (vals + vals[::-1, :])
    return GridDensity(grid, vals / (vals.sum() * grid.cell_volume))


def random_wealth_points(rng, n):
    return np.column_stack([rng.standard_normal(n), rng.lognormal(0, 0.3, n)])


WEALTH_GRID = Grid((-3.0, 1e-6), (3.0, 4.0), (12, 16))
# the grid of a default `brsmfg wealth` run
DEFAULT_WEALTH_GRID = Grid((-3.0, 1e-6), (3.0, 4.0), (40, 40))


def same_bytes(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestWealthKernel:
    """The factored trading kernel against the brute-force pairwise oracle."""

    @pytest.mark.parametrize(
        "params",
        [WealthParams(), trivial_kernels(), WealthParams(psi_width=0.5)],
        ids=["default", "trivial", "narrow_psi"],
    )
    @pytest.mark.parametrize("measure", ["grid", "particles"])
    def test_matches_pairwise_oracle(self, params, measure):
        rng = np.random.default_rng(31)
        if measure == "grid":
            m = random_grid_density(WEALTH_GRID, rng)
        else:
            w = rng.uniform(0.5, 1.5, 50)
            m = EmpiricalMeasure(random_wealth_points(rng, 50), w / w.sum())
        queries = [
            WEALTH_GRID.face_points(0),
            WEALTH_GRID.face_points(1),
            np.column_stack([rng.uniform(-3.5, 3.5, 64), rng.uniform(0.0, 4.5, 64)]),
        ]
        cost = build_wealth_model(params).population(0).running_cost
        for x in queries:
            ref_value, ref_grad = wealth_cost_oracle(params, x, m)
            value, grad = cost.value(x, m), cost.gradient(x, m)
            assert value.shape == ref_value.shape and grad.shape == ref_grad.shape
            assert np.all(np.abs(value - ref_value) <= 1e-12 * (1 + np.abs(ref_value)))
            assert np.all(np.abs(grad - ref_grad) <= 1e-12 * (1 + np.abs(ref_grad)))

    @settings(max_examples=40, deadline=None)
    @given(
        ny=st.integers(2, 20),
        nz=st.integers(2, 20),
        psi_width=st.floats(0.2, 3.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_mirror_symmetric_density_gives_mirrored_gradient(self, ny, nz, psi_width, seed):
        rng = np.random.default_rng(seed)
        grid = Grid((-2.5, 0.05), (2.5, 3.0), (ny, nz))
        m = random_grid_density(grid, rng, mirror_y=True)
        x = np.column_stack([rng.uniform(-3.0, 3.0, 16), rng.uniform(0.0, 3.5, 16)])
        mirrored = x * np.array([-1.0, 1.0])
        gradient = build_wealth_model(WealthParams(psi_width=psi_width)).population(0).running_cost.gradient
        g, gm = gradient(x, m), gradient(mirrored, m)
        assert np.abs(g[:, 1] - gm[:, 1]).max() <= 1e-12
        assert np.abs(g[:, 0] + gm[:, 0]).max() <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
    def test_permuting_particles_permutes_gradient_rows(self, n, seed):
        rng = np.random.default_rng(seed)
        pts = random_wealth_points(rng, n)
        perm = rng.permutation(n)
        gradient = build_wealth_model(WealthParams()).population(0).running_cost.gradient
        g = gradient(pts, EmpiricalMeasure(pts))
        gp = gradient(pts[perm], EmpiricalMeasure(pts[perm]))
        assert np.abs(gp - g[perm]).max() <= 1e-12


class TestWealthKernelSharing:
    """Each distinct query coordinate is evaluated once, with the row kernel's bits."""

    @pytest.mark.parametrize("axis", [0, 1])
    def test_face_points_match_row_kernel_bit_for_bit(self, axis):
        params = WealthParams()
        model = build_wealth_model(params)
        m = model.population(0).initial_law.grid_density(DEFAULT_WEALTH_GRID)
        x = DEFAULT_WEALTH_GRID.face_points(axis)
        cost = model.population(0).running_cost
        ref_value, ref_grad = wealth_row_kernel_oracle(params, x, m)
        assert same_bytes(cost.value(x, m), ref_value)
        assert same_bytes(cost.gradient(x, m), ref_grad)

    def test_particle_queries_match_row_kernel_bit_for_bit(self):
        params = WealthParams()
        pts = random_wealth_points(np.random.default_rng(17), 200)
        m = EmpiricalMeasure(pts)
        cost = build_wealth_model(params).population(0).running_cost
        ref_value, ref_grad = wealth_row_kernel_oracle(params, pts, m)
        assert same_bytes(cost.value(pts, m), ref_value)
        assert same_bytes(cost.gradient(pts, m), ref_grad)

    def test_leave_one_out_queries_match_row_kernel_bit_for_bit(self):
        params = WealthParams()
        pts = random_wealth_points(np.random.default_rng(18), 60)
        m = EmpiricalMeasure(pts)
        cost = build_wealth_model(params).population(0).running_cost
        for i in range(0, 60, 7):
            mi = leave_one_out(m, i)
            ref_value, ref_grad = wealth_row_kernel_oracle(params, pts[i], mi)
            assert same_bytes(cost.value(pts[i], mi), ref_value)
            assert same_bytes(cost.gradient(pts[i], mi), ref_grad)

    @settings(max_examples=40, deadline=None)
    @given(
        ny=st.integers(2, 24),
        nz=st.integers(2, 24),
        axis=st.sampled_from([0, 1]),
        psi_width=st.floats(0.2, 3.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_face_query_sets_match_oracle_and_permute_bit_for_bit(self, ny, nz, axis, psi_width, seed):
        rng = np.random.default_rng(seed)
        grid = Grid((-3.0, 1e-6), (3.0, 4.0), (ny, nz))
        m = random_grid_density(grid, rng)
        faces = grid.face_points(axis).reshape(-1, 2)
        n = faces.shape[0]
        query_sets = {
            "faces": faces,
            "duplicated": np.concatenate([faces, faces[rng.integers(0, n, n)]]),
            "dropped": faces[np.sort(rng.choice(n, n // 2 + 1, replace=False))],
            "shuffled": faces[rng.permutation(n)],
        }
        params = WealthParams(psi_width=psi_width)
        cost = build_wealth_model(params).population(0).running_cost
        for name, x in query_sets.items():
            ref_value, ref_grad = wealth_cost_oracle(params, x, m)
            value, grad = cost.value(x, m), cost.gradient(x, m)
            assert np.all(np.abs(value - ref_value) <= 1e-12 * (1 + np.abs(ref_value))), name
            assert np.all(np.abs(grad - ref_grad) <= 1e-12 * (1 + np.abs(ref_grad))), name
            perm = rng.permutation(x.shape[0])
            assert same_bytes(cost.value(x[perm], m), value[perm]), name
            assert same_bytes(cost.gradient(x[perm], m), grad[perm]), name

    def test_gradient_evaluates_each_distinct_coordinate_once(self):
        # the axis-0 faces of the 40 x 40 grid are 41 y values times 40 z values
        k = WealthParams().resolved()
        counts = {"psi": 0, "psi_prime": 0}

        def counting(name):
            def fn(r):
                counts[name] += np.size(r)
                return k[name](r)

            return fn

        model = build_wealth_model(WealthParams(psi=counting("psi"), psi_prime=counting("psi_prime")))
        m = model.population(0).initial_law.grid_density(DEFAULT_WEALTH_GRID)
        counts.update(psi=0, psi_prime=0)
        model.population(0).running_cost.gradient(DEFAULT_WEALTH_GRID.face_points(0), m)
        for name in ("psi", "psi_prime"):
            assert 0 < counts[name] <= (41 + 40) * 40, name


wealth_grids = st.builds(
    lambda ny, nz, y0, y_span, z0, z_span: Grid((y0, z0), (y0 + y_span, z0 + z_span), (ny, nz)),
    st.integers(2, 12),
    st.integers(2, 12),
    st.floats(-5.0, 1.0),
    st.floats(0.5, 8.0),
    st.floats(1e-6, 1.0),
    st.floats(0.5, 6.0),
)


class TestWealthBind:
    """``bind(points, axes)(m)`` is ``gradient(points, m)[..., axes]`` bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(grid=wealth_grids, other=wealth_grids, psi_width=st.floats(0.2, 3.0), seed=st.integers(0, 2**32 - 1))
    def test_bound_components_are_the_gradient_components(self, grid, other, psi_width, seed):
        rng = np.random.default_rng(seed)
        cost = build_wealth_model(WealthParams(psi_width=psi_width)).population(0).running_cost
        scattered = np.column_stack([rng.uniform(-6.0, 10.0, 20), rng.uniform(0.0, 8.0, 20)])
        query_sets = [
            grid.face_points(0),
            grid.face_points(1),
            np.concatenate([scattered, scattered[rng.integers(0, 20, 20)]]),
        ]
        # a second density on the same grid reuses the bound factors; another grid rebuilds them
        measures = [random_grid_density(grid, rng), random_grid_density(grid, rng), random_grid_density(other, rng)]
        measures.append(measures[0])
        for x in query_sets:
            for j in (0, 1):
                bound = cost.bind(x, (j,))
                for m in measures:
                    got, want = bound(m), cost.gradient(x, m)[..., j]
                    assert got.shape == want.shape + (1,)
                    assert got.tobytes() == want.tobytes()

    def test_both_axes_bind_to_the_gradient(self):
        rng = np.random.default_rng(9)
        cost = build_wealth_model(WealthParams()).population(0).running_cost
        m = random_grid_density(WEALTH_GRID, rng)
        x = WEALTH_GRID.face_points(1)
        assert same_bytes(cost.bind(x, (0, 1))(m), cost.gradient(x, m))
        assert same_bytes(cost.bind(x, (1, 0))(m), cost.gradient(x, m)[..., ::-1].copy())

    def test_particle_measures_rebuild_the_factors_every_call(self):
        rng = np.random.default_rng(10)
        cost = build_wealth_model(WealthParams()).population(0).running_cost
        x = random_wealth_points(rng, 30)
        bound = cost.bind(x, (1,))
        for _ in range(3):
            m = EmpiricalMeasure(random_wealth_points(rng, 25))
            assert bound(m).tobytes() == cost.gradient(x, m)[:, 1].tobytes()


CROWD_GRID = Grid((-2.0, -2.0), (2.0, 2.0), (48, 48))


def crowd_initial(model, grid=CROWD_GRID):
    return tuple(model.population(p).initial_law.grid_density(grid) for p in range(2))


class TestCrowdModel:
    def test_negative_aversion_rejected(self):
        with pytest.raises(ValueError, match="lam"):
            build_crowd_model(CrowdParams(lam=-0.5))

    @pytest.mark.parametrize("bandwidth", [0.0, -0.1, np.nan])
    def test_nonpositive_bandwidth_rejected(self, bandwidth):
        with pytest.raises(ValueError, match="kde_bandwidth must be positive"):
            build_crowd_model(CrowdParams(kde_bandwidth=bandwidth))

    @pytest.mark.parametrize("field", ["targets", "ic_centers"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_points_rejected(self, field, bad):
        points = ((0.0, bad), (-1.0, 0.0))
        with pytest.raises(ValueError, match=f"^{field} must be finite, got "):
            build_crowd_model(CrowdParams(**{field: points}))

    def test_mismatched_grids_rejected(self):
        model = build_crowd_model(CrowdParams())
        g1 = CROWD_GRID
        g2 = Grid((-2.0, -2.0), (2.0, 2.0), (32, 32))
        m1 = model.population(0).initial_law.grid_density(g1)
        m2 = model.population(1).initial_law.grid_density(g2)
        with pytest.raises(ValueError, match="mismatched grids"):
            model.population(0).running_cost.value(np.array([[0.0, 0.0]]), (m1, m2))

    def test_zero_aversion_identical_populations_coincide(self):
        params = CrowdParams(
            lam=0.0,
            ic_centers=((0.0, 0.0), (0.0, 0.0)),
            targets=((1.0, 0.0), (1.0, 0.0)),
            horizon=0.25,
        )
        model = build_crowd_model(params)
        m0 = crowd_initial(model)
        path = solve_fpk(model, m0, FpkConfig(t_final=0.25, record_times=(0.0, 0.125, 0.25)))
        gap = np.abs(path.values[:, 0] - path.values[:, 1]).max()
        assert gap <= 1e-12

    def test_aversion_reduces_overlap(self):
        params = CrowdParams(
            lam=6.0,
            sigma=(0.1, 0.1),
            ic_centers=((-0.4, 0.0), (0.4, 0.0)),
            targets=((-1.2, 0.0), (1.2, 0.0)),
            psi_weight=0.2,
            horizon=0.4,
        )
        model = build_crowd_model(params)
        m0 = crowd_initial(model)
        path = solve_fpk(model, m0, FpkConfig(t_final=0.4, record_times=(0.0, 0.4)))
        vol = CROWD_GRID.cell_volume
        overlap0 = np.minimum(path.values[0, 0], path.values[0, 1]).sum() * vol
        overlap1 = np.minimum(path.values[-1, 0], path.values[-1, 1]).sum() * vol
        assert overlap1 < overlap0

    def test_mirror_symmetry(self):
        base = CrowdParams(
            lam=1.5,
            sigma=(0.15, 0.15),
            ic_centers=((-0.5, 0.25), (0.6, 0.0)),
            targets=((1.0, 0.0), (-0.8, 0.2)),
            horizon=0.3,
        )
        mirrored = CrowdParams(
            lam=1.5,
            sigma=(0.15, 0.15),
            ic_centers=((0.5, 0.25), (-0.6, 0.0)),
            targets=((-1.0, 0.0), (0.8, 0.2)),
            horizon=0.3,
        )
        times = (0.0, 0.15, 0.3)
        pa = solve_fpk(build_crowd_model(base), crowd_initial(build_crowd_model(base)), FpkConfig(t_final=0.3, record_times=times))
        pb = solve_fpk(build_crowd_model(mirrored), crowd_initial(build_crowd_model(mirrored)), FpkConfig(t_final=0.3, record_times=times))
        # reflect the first spatial axis of the mirrored solution
        flipped = pb.values[:, :, ::-1, :]
        l1 = np.abs(pa.values - flipped).sum(axis=(2, 3)).max() * CROWD_GRID.cell_volume
        assert l1 <= 1e-3

    def test_positivity_and_mass(self):
        model = build_crowd_model(CrowdParams(horizon=0.3))
        m0 = crowd_initial(model)
        path = solve_fpk(model, m0, FpkConfig(t_final=0.3, record_times=(0.0, 0.3)))
        assert path.report["min_density"] >= -1e-13
        assert path.report["mass_drift_max"] <= 1e-10

    def test_kde_branch_used_for_particle_measures(self):
        model = build_crowd_model(CrowdParams(lam=0.5, kde_bandwidth=0.3))
        rng = np.random.default_rng(9)
        m1 = EmpiricalMeasure(rng.standard_normal((40, 2)) * 0.5)
        m2 = EmpiricalMeasure(rng.standard_normal((40, 2)) * 0.5 + 0.3)
        x = np.array([0.1, -0.2])
        h = model.population(0).running_cost
        val = float(h.value(x, (m1, m2)))
        grad = h.gradient(x, (m1, m2))
        eps = 1e-6
        for k in range(2):
            dx = np.zeros(2)
            dx[k] = eps
            fd = (float(h.value(x + dx, (m1, m2))) - float(h.value(x - dx, (m1, m2)))) / (2 * eps)
            assert grad[k] == pytest.approx(fd, rel=1e-5, abs=1e-9)
        assert val > 0
