"""Measures: empirical clouds, grid densities, moments, Wasserstein distances."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf
from scipy.stats import wasserstein_distance as scipy_w1

from _helpers import wasserstein_bruteforce

from brsmfg.measures import (
    EmpiricalMeasure,
    Grid,
    GridDensity,
    density_at,
    density_gradient_at,
    kernel_integral,
    leave_one_out,
    moments,
    wasserstein_1d,
    format_float,
    wasserstein_small_nd,
    write_csv,
    write_empirical_csv,
    write_grid_csv,
)


def gaussian_grid(nc=400, lo=-6.0, hi=6.0, std=0.5, mean=0.0):
    grid = Grid((lo,), (hi,), (nc,))
    edges = grid.edges(0)
    cdf = 0.5 * (1 + erf((edges - mean) / (std * np.sqrt(2))))
    vals = np.diff(cdf) / grid.widths[0]
    vals /= vals.sum() * grid.cell_volume
    return GridDensity(grid, vals)


class TestEmpirical:
    def test_weights_validation(self):
        with pytest.raises(ValueError):
            EmpiricalMeasure(np.zeros((2, 1)), np.array([0.7, 0.7]))
        with pytest.raises(ValueError):
            EmpiricalMeasure(np.zeros((2, 1)), np.array([-0.2, 1.2]))

    def test_leave_one_out_trivial(self):
        m = EmpiricalMeasure(np.array([0.0, 1.0, 2.0]))
        out = leave_one_out(m, 1)
        assert np.array_equal(out.points[:, 0], [0.0, 2.0])
        assert np.allclose(out.weights, 0.5)

    def test_leave_one_out_to_dirac(self):
        m = EmpiricalMeasure(np.array([0.0, 1.0]))
        out = leave_one_out(m, 0)
        assert out.n == 1 and out.points[0, 0] == 1.0

    def test_leave_one_out_mean_identity(self):
        rng = np.random.default_rng(3)
        pts = rng.standard_normal(5)
        m = EmpiricalMeasure(pts)
        for i in range(5):
            expected = (5 * pts.mean() - pts[i]) / 4
            assert leave_one_out(m, i).mean()[0] == pytest.approx(expected, abs=1e-14)

    def test_leave_one_out_single_point_errors(self):
        with pytest.raises(ValueError, match="empty leave-one-out"):
            leave_one_out(EmpiricalMeasure(np.array([1.0])), 0)


class TestKernelIntegral:
    def test_normalization(self):
        m = EmpiricalMeasure(np.array([0.0, 2.0, 5.0]))
        assert kernel_integral(m, lambda y: np.ones(y.shape[0])) == pytest.approx(1.0)
        g = gaussian_grid(128)
        assert kernel_integral(g, lambda y: np.ones(y.shape[0])) == pytest.approx(1.0)

    def test_mean(self):
        m = EmpiricalMeasure(np.array([0.0, 2.0]))
        assert kernel_integral(m, lambda y: y[:, 0]) == pytest.approx(1.0)

    def test_grid_against_refined_quadrature(self):
        # 10x finer quadrature of the analytic integrand is the oracle
        g = gaussian_grid(200)
        K = lambda y: np.exp(-((y[:, 0] - 0.3) ** 2))
        val = kernel_integral(g, K)
        fine = gaussian_grid(2000)
        oracle = kernel_integral(fine, K)
        assert abs(val - oracle) < 1e-3

    def test_second_order_convergence(self):
        K = lambda y: np.cos(y[:, 0])
        exact = np.exp(-0.125)  # E cos(X), X ~ N(0, 0.25)
        errs = []
        for nc in (100, 200, 400):
            errs.append(abs(kernel_integral(gaussian_grid(nc), K) - exact))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.3)
        assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.3)

    def test_nonfinite_kernel_reports_point(self):
        m = EmpiricalMeasure(np.array([0.0, 3.0]))

        def bad(y):
            out = np.ones(y.shape[0])
            out[y[:, 0] > 2] = np.inf
            return out

        with pytest.raises(ValueError, match="non-finite"):
            kernel_integral(m, bad)


class TestMoments:
    def test_dirac(self):
        m = EmpiricalMeasure(np.array([3.0]))
        mom = moments(m, order=2)
        assert mom.mean[0] == 3.0 and mom.variance[0] == 0.0

    def test_two_points(self):
        m = EmpiricalMeasure(np.array([-1.0, 1.0]))
        mom = moments(m, order=2)
        assert mom.mean[0] == pytest.approx(0.0) and mom.variance[0] == pytest.approx(1.0)

    def test_gaussian_grid_variance(self):
        mom = moments(gaussian_grid(400), order=2)
        assert mom.variance[0] == pytest.approx(0.25, abs=1e-3)


class TestDensityAt:
    def test_uniform_grid(self):
        grid = Grid((0.0,), (1.0,), (16,))
        g = GridDensity(grid, np.ones(16))
        assert density_at(g, np.array([0.5])) == pytest.approx(1.0)

    def test_outside_support(self):
        g = gaussian_grid(64)
        assert density_at(g, np.array([7.0])) == 0.0

    def test_kde_standard_normal(self):
        rng = np.random.default_rng(7)
        m = EmpiricalMeasure(rng.standard_normal(10_000))
        val = density_at(m, np.array([0.0]), bandwidth=0.2)
        assert abs(val - 1.0 / np.sqrt(2 * np.pi)) < 0.05

    def test_kde_needs_a_bandwidth(self):
        m = EmpiricalMeasure(np.array([0.0, 1.0]))
        with pytest.raises(ValueError, match="needs a bandwidth"):
            density_at(m, np.array([0.5]))
        with pytest.raises(ValueError, match="needs a bandwidth"):
            density_gradient_at(m, np.array([0.5]))

    def test_kde_gradient_matches_finite_difference(self):
        rng = np.random.default_rng(11)
        m = EmpiricalMeasure(rng.standard_normal((64, 2)))
        x = np.array([0.2, -0.4])
        grad = density_gradient_at(m, x, bandwidth=0.3)
        eps = 1e-6
        for k in range(2):
            dx = np.zeros(2)
            dx[k] = eps
            fd = (density_at(m, x + dx, 0.3) - density_at(m, x - dx, 0.3)) / (2 * eps)
            assert grad[k] == pytest.approx(fd, rel=1e-5, abs=1e-9)


class TestWasserstein1d:
    def test_diracs(self):
        a = EmpiricalMeasure(np.array([0.0]))
        b = EmpiricalMeasure(np.array([1.0]))
        assert wasserstein_1d(a, b, p=1) == pytest.approx(1.0)

    def test_identity(self):
        rng = np.random.default_rng(0)
        m = EmpiricalMeasure(rng.standard_normal(37))
        assert wasserstein_1d(m, m, p=1) == 0.0
        assert wasserstein_1d(m, m, p=2) == 0.0

    def test_two_point_assignment(self):
        a = EmpiricalMeasure(np.array([0.0, 1.0]))
        b = EmpiricalMeasure(np.array([1.0, 2.0]))
        # exhaustive over both pairings: identity pairing costs 1, swap costs 1
        assert wasserstein_1d(a, b, p=1) == pytest.approx(1.0)

    def test_translation_exact(self):
        rng = np.random.default_rng(5)
        m = EmpiricalMeasure(rng.standard_normal(101))
        for c in (0.37, -1.25):
            assert abs(wasserstein_1d(m, m.translate(c), p=1) - abs(c)) < 1e-12

    def test_matches_scipy_on_unequal_clouds(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            a = rng.standard_normal(23)
            b = 0.5 + rng.standard_normal(41)
            ours = wasserstein_1d(EmpiricalMeasure(a), EmpiricalMeasure(b), p=1)
            assert ours == pytest.approx(scipy_w1(a, b), abs=1e-10)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(13)
        for p in (1, 2):
            for _ in range(10):
                ms = [EmpiricalMeasure(rng.standard_normal(rng.integers(3, 20))) for _ in range(2)]
                ms.append(gaussian_grid(rng.integers(32, 64), std=rng.uniform(0.3, 1.0)))
                d01 = wasserstein_1d(ms[0], ms[1], p)
                d12 = wasserstein_1d(ms[1], ms[2], p)
                d02 = wasserstein_1d(ms[0], ms[2], p)
                assert d02 <= d01 + d12 + 1e-10

    def test_grid_translation(self):
        g = gaussian_grid(300, std=0.4)
        shifted = GridDensity(g.grid, np.roll(g.values, 25))
        # rolling by whole cells translates the density by 25 cell widths
        expect = 25 * g.grid.widths[0]
        assert wasserstein_1d(g, shifted, p=1) == pytest.approx(expect, abs=1e-9)

    def test_grid_vs_empirical(self):
        rng = np.random.default_rng(21)
        emp = EmpiricalMeasure(0.5 * rng.standard_normal(20_000))
        g = gaussian_grid(400)
        assert wasserstein_1d(emp, g, p=1) < 0.02

    def test_rejects_multidimensional(self):
        m = EmpiricalMeasure(np.zeros((3, 2)))
        with pytest.raises(ValueError, match="wasserstein_small_nd"):
            wasserstein_1d(m, m, p=1)


# measures for the W1 properties: uniform and weighted clouds, and densities on one grid
_POINT = st.floats(-10.0, 10.0, allow_nan=False)
_W1_GRID = Grid((-3.0,), (3.0,), (24,))


def _weighted_cloud(pairs):
    pts, w = np.array(pairs).T
    return EmpiricalMeasure(pts, w / w.sum())


def _grid_density(values):
    vals = np.array(values)
    return GridDensity(_W1_GRID, vals / (vals.sum() * _W1_GRID.cell_volume))


_CLOUDS = st.one_of(
    st.lists(_POINT, min_size=1, max_size=25).map(lambda xs: EmpiricalMeasure(np.array(xs))),
    st.lists(st.tuples(_POINT, st.floats(0.1, 1.0)), min_size=1, max_size=25).map(_weighted_cloud),
)
_MEASURES_1D = st.one_of(
    _CLOUDS,
    st.lists(st.one_of(st.just(0.0), st.floats(0.01, 1.0)), min_size=24, max_size=24)
    .filter(lambda v: sum(v) > 0.0)
    .map(_grid_density),
)


class TestWasserstein1dProperties:
    @settings(max_examples=80, deadline=None)
    @given(m=_MEASURES_1D, p=st.sampled_from([1, 2]))
    def test_distance_to_itself_is_zero(self, m, p):
        assert wasserstein_1d(m, m, p) == 0.0

    @settings(max_examples=80, deadline=None)
    @given(a=_MEASURES_1D, b=_MEASURES_1D, p=st.sampled_from([1, 2]))
    def test_symmetry(self, a, b, p):
        assert wasserstein_1d(a, b, p) == pytest.approx(wasserstein_1d(b, a, p), rel=1e-12, abs=1e-12)

    @settings(max_examples=80, deadline=None)
    @given(a=_MEASURES_1D, b=_MEASURES_1D, c=_MEASURES_1D, p=st.sampled_from([1, 2]))
    def test_triangle_inequality(self, a, b, c, p):
        assert wasserstein_1d(a, c, p) <= wasserstein_1d(a, b, p) + wasserstein_1d(b, c, p) + 1e-10

    @settings(max_examples=80, deadline=None)
    @given(m=_CLOUDS, shift=st.floats(-5.0, 5.0))
    def test_translating_a_cloud_moves_it_by_the_shift(self, m, shift):
        assert wasserstein_1d(m, m.translate(shift), p=1) == pytest.approx(abs(shift), abs=1e-11)


class TestWassersteinSmallNd:
    def test_identical(self):
        m = EmpiricalMeasure(np.arange(8.0).reshape(4, 2))
        assert wasserstein_small_nd(m, m, p=1) == 0.0

    def test_vertical_translation(self):
        a = EmpiricalMeasure(np.array([[0.0, 0.0], [1.0, 0.0]]))
        b = EmpiricalMeasure(np.array([[0.0, 1.0], [1.0, 1.0]]))
        assert wasserstein_small_nd(a, b, p=1) == pytest.approx(1.0)

    @pytest.mark.parametrize("p", [1, 2])
    def test_agrees_with_quantile_formula_in_1d(self, p):
        rng = np.random.default_rng(17)
        for _ in range(8):
            a = EmpiricalMeasure(rng.standard_normal(6))
            b = EmpiricalMeasure(rng.standard_normal(6))
            assert wasserstein_small_nd(a, b, p) == pytest.approx(
                wasserstein_1d(a, b, p), abs=1e-12
            )

    @pytest.mark.parametrize("p", [1, 2])
    def test_large_cloud_agrees_with_quantile_formula_in_1d(self, p):
        rng = np.random.default_rng(29)
        a = EmpiricalMeasure(rng.standard_normal(200))
        b = EmpiricalMeasure(0.5 + 2.0 * rng.standard_normal(200))
        assert wasserstein_small_nd(a, b, p) == pytest.approx(wasserstein_1d(a, b, p), abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 7),
        d=st.integers(1, 3),
        p=st.sampled_from([1, 2]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_bruteforce_oracle(self, n, d, p, seed):
        rng = np.random.default_rng(seed)
        a = EmpiricalMeasure(rng.standard_normal((n, d)))
        b = EmpiricalMeasure(rng.standard_normal((n, d)))
        assert wasserstein_small_nd(a, b, p) == pytest.approx(
            wasserstein_bruteforce(a, b, p), rel=1e-12, abs=1e-12
        )


class TestCsv:
    def test_empirical_format(self, tmp_path):
        m = EmpiricalMeasure(np.array([[0.25, 1.5], [2.0, -3.0]]))
        path = tmp_path / "emp.csv"
        write_empirical_csv(path, [m])
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "pop,idx,x0,x1,weight"
        assert lines[1] == "0,0,0.25,1.5,0.5"

    def test_grid_format_and_precision(self, tmp_path):
        grid = Grid((0.0,), (1.0,), (2,))
        g = GridDensity(grid, np.array([1.0 / 3.0, 5.0 / 3.0]))
        path = tmp_path / "grid.csv"
        write_grid_csv(path, grid, ["pop"], [((0,), g.values)])
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "pop,i0,x0,value"
        # 17 significant digits round-trip exactly
        val = float(lines[1].split(",")[-1])
        assert val == 1.0 / 3.0

    def test_negative_density_rejected(self):
        grid = Grid((0.0,), (1.0,), (4,))
        with pytest.raises(ValueError, match="negative density"):
            GridDensity(grid, np.array([1.0, -1e-3, 1.0, 1.0]))

    @pytest.mark.parametrize(
        "values, low",
        [([1.0, -1e-14, 2.0, 1.0], 0.0), ([1.0, 0.25, 2.0, 1.0], 0.25), ([1.0, -0.0, 2.0, 1.0], -0.0)],
    )
    def test_min_value_is_read_after_the_clip(self, values, low):
        g = GridDensity(Grid((0.0,), (1.0,), (4,)), np.array(values))
        assert g.min_value == low and np.signbit(g.min_value) == np.signbit(low)
        assert g.min_value == float(g.values.min())


@st.composite
def grids(draw, max_dim=3):
    dim = draw(st.integers(1, max_dim))
    mins = tuple(draw(st.floats(-1e3, 1e3)) for _ in range(dim))
    maxs = tuple(lo + draw(st.floats(1e-3, 1e3)) for lo in mins)
    cells = tuple(draw(st.integers(1, 12)) for _ in range(dim))
    return Grid(mins, maxs, cells)


def _fresh_geometry(grid: Grid) -> dict:
    """Every geometry array of ``grid`` built from scratch with linspace/meshgrid."""
    edges = [np.linspace(lo, hi, nc + 1) for lo, hi, nc in zip(grid.mins, grid.maxs, grid.cells)]
    mids = [0.5 * (e[:-1] + e[1:]) for e in edges]
    mesh = np.stack(np.meshgrid(*mids, indexing="ij"), axis=-1)
    faces = []
    for axis in range(grid.dim):
        coords = list(mids)
        coords[axis] = edges[axis]
        faces.append(np.stack(np.meshgrid(*coords, indexing="ij"), axis=-1))
    return {"edges": edges, "midpoints": mids, "mesh": mesh, "flat": mesh.reshape(-1, grid.dim), "faces": faces}


def _cached_geometry(grid: Grid) -> dict:
    return {
        "edges": [grid.edges(k) for k in range(grid.dim)],
        "midpoints": [grid.midpoints(k) for k in range(grid.dim)],
        "mesh": grid.midpoint_mesh(),
        "flat": grid.flat_midpoints(),
        "faces": [grid.face_points(k) for k in range(grid.dim)],
    }


def _arrays(geometry: dict) -> list[np.ndarray]:
    return [a for v in geometry.values() for a in (v if isinstance(v, list) else [v])]


class TestGridGeometryCache:
    @settings(max_examples=60, deadline=None)
    @given(grid=grids())
    def test_cached_arrays_equal_fresh_ones_bit_for_bit(self, grid):
        for got, want in zip(_arrays(_cached_geometry(grid)), _arrays(_fresh_geometry(grid))):
            assert got.shape == want.shape and got.dtype == want.dtype
            assert np.array_equal(got, want)

    @settings(max_examples=20, deadline=None)
    @given(grid=grids())
    def test_cached_arrays_are_read_only(self, grid):
        for arr in _arrays(_cached_geometry(grid)):
            with pytest.raises(ValueError):
                arr[(0,) * arr.ndim] = 1.0
        for got, want in zip(_arrays(_cached_geometry(grid)), _arrays(_fresh_geometry(grid))):
            assert np.array_equal(got, want)

    def test_arrays_are_built_once_per_grid(self):
        grid = Grid((0.0, -1.0), (1.0, 1.0), (4, 6))
        assert grid.edges(1) is grid.edges(1)
        assert grid.face_points(0) is grid.face_points(0)
        assert grid.midpoint_mesh() is grid.midpoint_mesh()

    @settings(max_examples=20, deadline=None)
    @given(grid=grids())
    def test_equal_grids_give_equal_arrays(self, grid):
        twin = Grid(tuple(grid.mins), tuple(grid.maxs), tuple(grid.cells))
        assert twin == grid and hash(twin) == hash(grid)
        for a, b in zip(_arrays(_cached_geometry(twin)), _arrays(_cached_geometry(grid))):
            assert np.array_equal(a, b)


def _reference_csv(header, rows, preamble=()) -> str:
    """The row-by-row writer: one format call per value."""

    def fmt(v):
        if isinstance(v, str):
            return v
        if isinstance(v, (int, np.integer)):
            return str(int(v))
        return format_float(v)

    lines = [f"# {line}\n" for line in preamble] + [",".join(header) + "\n"]
    return "".join(lines + [",".join(fmt(v) for v in row) + "\n" for row in rows])


SPECIAL = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1.7976931348623157e308, 0.1, -1.0 / 3.0])


class TestMomentsShareTheMean:
    @pytest.mark.parametrize("dim", [1, 2])
    def test_moments_equal_mean_and_variance_bit_for_bit(self, dim):
        rng = np.random.default_rng(dim)
        grid = Grid((-1.0,) * dim, (2.0,) * dim, (7,) * dim)
        vals = rng.uniform(0.1, 1.0, grid.cells)
        density = GridDensity(grid, vals / (vals.sum() * grid.cell_volume))
        for m in (density, EmpiricalMeasure(rng.standard_normal((9, dim)))):
            mom = moments(m, order=2)
            assert np.array_equal(mom.mean, m.mean()) and np.array_equal(mom.variance, m.variance())
            assert moments(m, order=1).variance is None


class TestCsvBytes:
    @settings(max_examples=40, deadline=None)
    @given(grid=grids(max_dim=2), n_records=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    def test_grid_records_equal_the_row_by_row_writer(self, tmp_path_factory, grid, n_records, seed):
        rng = np.random.default_rng(seed)
        records = []
        for r in range(n_records):
            cells = rng.standard_normal(grid.cells) * 10.0 ** rng.integers(-300, 300)
            cells.reshape(-1)[rng.integers(0, cells.size)] = rng.choice(SPECIAL)
            records.append(((float(rng.choice(SPECIAL)), r), cells))
        path = tmp_path_factory.mktemp("csv") / "grid.csv"
        write_grid_csv(path, grid, ["t", "pop"], iter(records), preamble=["preset=x"])
        d = grid.dim
        header = ["t", "pop"] + [f"i{k}" for k in range(d)] + [f"x{k}" for k in range(d)] + ["value"]
        index = np.stack(np.meshgrid(*[np.arange(nc) for nc in grid.cells], indexing="ij"), -1).reshape(-1, d)
        mids = grid.flat_midpoints()
        rows = [
            [*keys, *index[j], *mids[j], cells.reshape(-1)[j]] for keys, cells in records for j in range(len(index))
        ]
        assert path.read_text() == _reference_csv(header, rows, ["preset=x"])

    def test_generic_rows_equal_the_row_by_row_writer(self, tmp_path):
        rows = [
            [np.float64(0.5), "pop0_mean_x0", np.float64(-0.0)],
            [1, "name", np.inf],
            [np.int64(-7), "", np.nan],
            (True, "x", np.float32(0.1)),
            [2**70, "big", -np.inf],
        ]
        write_csv(tmp_path / "g.csv", ["a", "b", "c"], rows)
        assert (tmp_path / "g.csv").read_text() == _reference_csv(["a", "b", "c"], rows)

    def test_empirical_equals_the_row_by_row_writer(self, tmp_path):
        rng = np.random.default_rng(4)
        pts = rng.standard_normal((7, 2))
        pts[0] = [-0.0, 1e-310]
        w = rng.uniform(size=7)
        ms = [EmpiricalMeasure(pts, w / w.sum()), EmpiricalMeasure(rng.standard_normal((3, 2)))]
        write_empirical_csv(tmp_path / "e.csv", ms)
        rows = [[pop, i, *m.points[i], m.weights[i]] for pop, m in enumerate(ms) for i in range(m.n)]
        expected = _reference_csv(["pop", "idx", "x0", "x1", "weight"], rows)
        assert (tmp_path / "e.csv").read_text() == expected
