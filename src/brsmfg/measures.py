"""Probability measures on R^d: particle clouds, grid densities, and distances.

Two concrete measure representations are used throughout the package:

* :class:`EmpiricalMeasure` -- a weighted particle cloud (weights sum to 1).
* :class:`GridDensity` -- cell-averaged nonnegative density on a rectangular
  grid (finite-volume convention, so mass bookkeeping is exact).

Free functions (``kernel_integral``, ``moments``, ``density_at``, the
Wasserstein distances, ...) accept either representation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence, Union

import numpy as np

__all__ = [
    "Grid",
    "EmpiricalMeasure",
    "GridDensity",
    "MeasureView",
    "Moments",
    "leave_one_out",
    "kernel_integral",
    "moments",
    "density_at",
    "density_gradient_at",
    "wasserstein_1d",
    "wasserstein_small_nd",
    "format_float",
    "format_value",
    "write_csv",
    "write_empirical_csv",
    "write_grid_csv",
]

_WEIGHT_TOL = 1e-12
_NEG_TOL = -1e-13


@dataclass(frozen=True)
class Grid:
    """Axis-aligned rectangular grid described per axis by (min, max, cells)."""

    mins: tuple[float, ...]
    maxs: tuple[float, ...]
    cells: tuple[int, ...]

    def __post_init__(self):
        if not (len(self.mins) == len(self.maxs) == len(self.cells)):
            raise ValueError("mins, maxs, cells must have equal length")
        for lo, hi, nc in zip(self.mins, self.maxs, self.cells):
            if not lo < hi:
                raise ValueError(f"grid axis needs min < max, got [{lo}, {hi}]")
            if nc < 1:
                raise ValueError("grid needs at least one cell per axis")

    @property
    def dim(self) -> int:
        return len(self.cells)

    @cached_property
    def widths(self) -> tuple[float, ...]:
        return tuple(
            (hi - lo) / nc for lo, hi, nc in zip(self.mins, self.maxs, self.cells)
        )

    @cached_property
    def cell_volume(self) -> float:
        return float(np.prod(self.widths))

    # Geometry is built once per grid and shared by every caller, hence read-only.

    @cached_property
    def _axes(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """(edges, midpoints) per axis."""
        axes = []
        for lo, hi, nc in zip(self.mins, self.maxs, self.cells):
            e = np.linspace(lo, hi, nc + 1)
            axes.append((_frozen(e), _frozen(0.5 * (e[:-1] + e[1:]))))
        return tuple(axes)

    @cached_property
    def _meshes(self) -> tuple[np.ndarray, ...]:
        """The midpoint mesh, then per axis the mesh of the faces normal to it."""
        mids = [m for _, m in self._axes]
        coords = [mids] + [mids[:k] + [e] + mids[k + 1 :] for k, (e, _) in enumerate(self._axes)]
        return tuple(_frozen(np.stack(np.meshgrid(*c, indexing="ij"), axis=-1)) for c in coords)

    def edges(self, axis: int) -> np.ndarray:
        return self._axes[axis][0]

    def midpoints(self, axis: int) -> np.ndarray:
        return self._axes[axis][1]

    def midpoint_mesh(self) -> np.ndarray:
        """All cell midpoints, shape ``cells + (dim,)``."""
        return self._meshes[0]

    def flat_midpoints(self) -> np.ndarray:
        """Cell midpoints flattened to shape (n_cells_total, dim)."""
        return self._meshes[0].reshape(-1, self.dim)

    def face_points(self, axis: int) -> np.ndarray:
        """Centres of the faces normal to ``axis``, shape (faces..., dim)."""
        return self._meshes[1:][axis]


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _as_points(points: np.ndarray) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2:
        raise ValueError("points must have shape (N,) or (N, d)")
    return pts


class EmpiricalMeasure:
    """Weighted particle measure sum_j w_j * delta_{x_j} with sum w_j = 1.

    ``checked=True`` takes ``weights`` as already validated for these points.
    """

    def __init__(self, points: np.ndarray, weights: np.ndarray | None = None, *, checked: bool = False):
        self.points = _as_points(points)
        n = self.points.shape[0]
        if n < 1:
            raise ValueError("empirical measure needs at least one point")
        if weights is None:
            weights = np.full(n, 1.0 / n)
        elif not checked:
            weights = np.asarray(weights, dtype=float)
            if weights.shape != (n,):
                raise ValueError("weights must have shape (N,)")
            if np.any(weights < 0):
                raise ValueError("weights must be nonnegative")
            if abs(weights.sum() - 1.0) > _WEIGHT_TOL:
                raise ValueError(f"weights must sum to 1, got {weights.sum()!r}")
        self.weights = weights

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def is_uniform(self) -> bool:
        return bool(np.all(self.weights == self.weights[0]))

    def mean(self) -> np.ndarray:
        return self.weights @ self.points

    def variance(self, mean: np.ndarray | None = None) -> np.ndarray:
        """Per-axis variance; ``mean``, when the caller holds it, is not recomputed."""
        mu = self.mean() if mean is None else mean
        return self.weights @ (self.points - mu) ** 2

    def translate(self, shift) -> "EmpiricalMeasure":
        shift = np.atleast_1d(np.asarray(shift, dtype=float))
        return EmpiricalMeasure(self.points + shift, self.weights.copy())


class GridDensity:
    """Cell-averaged nonnegative density on a :class:`Grid`.

    ``values`` has shape ``grid.cells``; the total mass
    ``sum(values) * cell_volume`` and the smallest value ``min_value`` (after
    the clip of round-off negatives) are cached at construction and kept in
    sync because instances are never mutated in place (solvers build new ones).
    """

    def __init__(self, grid: Grid, values: np.ndarray):
        values = np.asarray(values, dtype=float)
        if values.shape != grid.cells:
            raise ValueError(f"values shape {values.shape} != grid cells {grid.cells}")
        lo = values.min()
        if lo < _NEG_TOL:
            raise ValueError(f"negative density {lo:.3e} beyond {_NEG_TOL:.0e}")
        if lo < 0.0:
            values = np.maximum(values, 0.0)
            lo = values.min()
        self.grid = grid
        self.values = values
        self.min_value = float(lo)
        self.mass = float(values.sum() * grid.cell_volume)

    @property
    def dim(self) -> int:
        return self.grid.dim

    def mean(self) -> np.ndarray:
        mids = self.grid.midpoint_mesh()
        w = self.values[..., None] * self.grid.cell_volume
        return (w * mids).reshape(-1, self.dim).sum(axis=0) / self.mass

    def variance(self, mean: np.ndarray | None = None) -> np.ndarray:
        """Per-axis variance; ``mean``, when the caller holds it, is not recomputed."""
        mids = self.grid.midpoint_mesh()
        mu = self.mean() if mean is None else mean
        w = self.values[..., None] * self.grid.cell_volume
        return (w * (mids - mu) ** 2).reshape(-1, self.dim).sum(axis=0) / self.mass

    def interpolate(self, x: np.ndarray) -> np.ndarray:
        """Multilinear interpolation of cell values at points ``x``; 0 outside."""
        x = np.asarray(x, dtype=float)
        scalar_like = x.ndim == 1
        pts = x[None, :] if scalar_like else x.reshape(-1, self.dim)
        out = _multilinear(self, pts)
        return float(out[0]) if scalar_like else out.reshape(x.shape[:-1])

    def gradient_at(self, x: np.ndarray) -> np.ndarray:
        """Spatial gradient of the density via half-cell centered differences.

        At a face center this reduces to the compact two-cell difference, the
        discrete gradient the finite-volume solver uses.
        """
        x = np.asarray(x, dtype=float)
        scalar_like = x.ndim == 1
        pts = x[None, :] if scalar_like else x.reshape(-1, self.dim)
        grad = np.empty_like(pts)
        for k in range(self.dim):
            h = self.grid.widths[k]
            off = np.zeros(self.dim)
            off[k] = 0.5 * h
            grad[:, k] = (_multilinear(self, pts + off) - _multilinear(self, pts - off)) / h
        return grad[0] if scalar_like else grad.reshape(x.shape)


MeasureView = Union[EmpiricalMeasure, GridDensity]


def _multilinear(gd: GridDensity, pts: np.ndarray) -> np.ndarray:
    grid = gd.grid
    n = pts.shape[0]
    inside = np.ones(n, dtype=bool)
    base = np.empty((n, grid.dim), dtype=np.intp)
    frac = np.empty((n, grid.dim))
    for k in range(grid.dim):
        xk = pts[:, k]
        inside &= (xk >= grid.mins[k]) & (xk <= grid.maxs[k])
        u = (xk - grid.mins[k]) / grid.widths[k] - 0.5
        b = np.floor(u)
        f = u - b
        # clamp to the midpoint range; outer half-cells replicate the edge value
        bi = b.astype(np.intp)
        lowc = bi < 0
        highc = bi > grid.cells[k] - 2
        bi = np.clip(bi, 0, max(grid.cells[k] - 2, 0))
        f = np.where(lowc, 0.0, np.where(highc, 1.0, f))
        if grid.cells[k] == 1:
            f = np.zeros_like(f)
        base[:, k] = bi
        frac[:, k] = f
    out = np.zeros(n)
    for corner in itertools.product((0, 1), repeat=grid.dim):
        w = np.ones(n)
        idx = []
        for k, c in enumerate(corner):
            w *= frac[:, k] if c else 1.0 - frac[:, k]
            idx.append(np.minimum(base[:, k] + c, grid.cells[k] - 1))
        out += w * gd.values[tuple(idx)]
    out[~inside] = 0.0
    return out


def leave_one_out(m: EmpiricalMeasure, i: int) -> EmpiricalMeasure:
    """Uniform empirical measure on all points except the i-th."""
    if m.n < 2:
        raise ValueError("empty leave-one-out: measure has a single point")
    if not m.is_uniform:
        raise ValueError("leave_one_out requires uniform weights")
    if not 0 <= i < m.n:
        raise IndexError(f"index {i} out of range for {m.n} points")
    pts = np.delete(m.points, i, axis=0)
    return EmpiricalMeasure(pts)


def kernel_integral(m: MeasureView, kernel: Callable[[np.ndarray], np.ndarray]):
    """Integral of ``kernel`` against the measure.

    Empirical measures use the weighted sum over particles, grid densities the
    midpoint rule over cells. ``kernel`` receives a batch of points with shape
    (M, d) and returns shape (M,) or (M, k).
    """
    if isinstance(m, EmpiricalMeasure):
        pts, w = m.points, m.weights
    elif isinstance(m, GridDensity):
        pts = m.grid.flat_midpoints()
        w = m.values.reshape(-1) * m.grid.cell_volume
    else:
        raise TypeError(f"unsupported measure type {type(m).__name__}")
    vals = np.asarray(kernel(pts), dtype=float)
    if not np.all(np.isfinite(vals)):
        bad = np.argwhere(~np.isfinite(vals.reshape(vals.shape[0], -1)).all(axis=1))
        j = int(bad[0, 0])
        raise ValueError(f"kernel returned non-finite value at point {pts[j]}")
    if vals.ndim == 1:
        return float(w @ vals)
    return w @ vals


@dataclass(frozen=True)
class Moments:
    mean: np.ndarray
    variance: np.ndarray | None


def moments(m: MeasureView, order: int = 2) -> Moments:
    """Per-axis mean and (for order 2) variance of a normalized measure."""
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    mu = m.mean()
    var = m.variance(mu) if order == 2 else None
    return Moments(mean=np.atleast_1d(mu), variance=None if var is None else np.atleast_1d(var))


def density_at(m: MeasureView, x: np.ndarray, bandwidth: float | np.ndarray | None = None):
    """Pointwise density: grid interpolation, or Gaussian KDE for particles.

    ``bandwidth`` applies to the empirical branch only (scalar or per-axis),
    which requires it. Grid queries outside the bounding box return 0.
    """
    if isinstance(m, GridDensity):
        return m.interpolate(x)
    if not isinstance(m, EmpiricalMeasure):
        raise TypeError(f"unsupported measure type {type(m).__name__}")
    bw = _kde_bandwidth(m, bandwidth)
    x = np.asarray(x, dtype=float)
    scalar_like = x.ndim <= 1 and x.size == m.dim
    pts = np.atleast_2d(x.reshape(-1, m.dim))
    vals = _kde(m, pts, bw)
    return float(vals[0]) if scalar_like else vals.reshape(x.shape[:-1])


def density_gradient_at(
    m: MeasureView, x: np.ndarray, bandwidth: float | np.ndarray | None = None
):
    """Spatial gradient of :func:`density_at` (analytic for the KDE branch)."""
    if isinstance(m, GridDensity):
        return m.gradient_at(x)
    if not isinstance(m, EmpiricalMeasure):
        raise TypeError(f"unsupported measure type {type(m).__name__}")
    bw = _kde_bandwidth(m, bandwidth)
    x = np.asarray(x, dtype=float)
    scalar_like = x.ndim == 1
    pts = np.atleast_2d(x.reshape(-1, m.dim))
    diff = pts[:, None, :] - m.points[None, :, :]  # (M, N, d)
    kern = np.exp(-0.5 * (diff / bw) ** 2) / (bw * np.sqrt(2.0 * np.pi))
    prod = kern.prod(axis=2)  # (M, N)
    grad = np.einsum("mn,mnk->mk", m.weights[None, :] * prod, -diff / bw**2)
    return grad[0] if scalar_like else grad.reshape(x.shape)


def _kde_bandwidth(m: EmpiricalMeasure, bandwidth) -> np.ndarray:
    if bandwidth is None:
        raise ValueError("the KDE of a particle measure needs a bandwidth")
    bw = np.atleast_1d(np.asarray(bandwidth, dtype=float))
    if np.any(bw <= 0):
        raise ValueError("bandwidth must be positive")
    if bw.size == 1:
        bw = np.full(m.dim, bw[0])
    return bw


def _kde(m: EmpiricalMeasure, pts: np.ndarray, bw: np.ndarray) -> np.ndarray:
    diff = pts[:, None, :] - m.points[None, :, :]
    kern = np.exp(-0.5 * (diff / bw) ** 2) / (bw * np.sqrt(2.0 * np.pi))
    return kern.prod(axis=2) @ m.weights


# ---------------------------------------------------------------------------
# Wasserstein distances
# ---------------------------------------------------------------------------


def _require_1d(m: MeasureView, name: str) -> None:
    dim = m.dim
    if dim != 1:
        raise ValueError(
            f"{name} is one-dimensional only (got d={dim}); "
            "use wasserstein_small_nd for equal-size uniform multi-dimensional clouds"
        )


def _quantile_rep(m: MeasureView):
    """Return (interior breakpoints in (0,1), quantile evaluator)."""
    if isinstance(m, EmpiricalMeasure):
        order = np.argsort(m.points[:, 0], kind="stable")
        xs = m.points[order, 0]
        cw = np.cumsum(m.weights[order])
        cw = cw / cw[-1]

        def evaluate(q: np.ndarray) -> np.ndarray:
            idx = np.clip(np.searchsorted(cw, q, side="left"), 0, xs.size - 1)
            return xs[idx]

        breaks = cw[:-1]
        return breaks[(breaks > 0.0) & (breaks < 1.0)], evaluate
    if isinstance(m, GridDensity):
        edges = m.grid.edges(0)
        cellmass = m.values * m.grid.cell_volume
        c = np.concatenate([[0.0], np.cumsum(cellmass)])
        c = c / c[-1]
        dc = np.diff(c)
        dx = m.grid.widths[0]

        def evaluate(q: np.ndarray) -> np.ndarray:
            idx = np.clip(np.searchsorted(c, q, side="right") - 1, 0, dc.size - 1)
            denom = np.where(dc[idx] > 0, dc[idx], 1.0)
            frac = np.where(dc[idx] > 0, (q - c[idx]) / denom, 0.0)
            return edges[idx] + np.clip(frac, 0.0, 1.0) * dx

        breaks = c[1:-1]
        return breaks[(breaks > 0.0) & (breaks < 1.0)], evaluate
    raise TypeError(f"unsupported measure type {type(m).__name__}")


def wasserstein_1d(mu: MeasureView, nu: MeasureView, p: int = 1) -> float:
    """Exact p-Wasserstein distance between one-dimensional measures.

    An exact piecewise-affine inverse-CDF integral: particle quantiles are
    piecewise constant and grid densities have piecewise-linear CDFs, so the
    quantile difference is affine between breakpoints and each piece
    integrates in closed form.
    """
    if p not in (1, 2):
        raise ValueError("p must be 1 or 2")
    _require_1d(mu, "wasserstein_1d")
    _require_1d(nu, "wasserstein_1d")
    b_mu, q_mu = _quantile_rep(mu)
    b_nu, q_nu = _quantile_rep(nu)
    # repeated nodes give the zero-length pieces dropped here (np.unique would load numpy.ma)
    nodes = np.sort(np.concatenate([[0.0], b_mu, b_nu, [1.0]]))
    qa, qb = nodes[:-1], nodes[1:]
    length = qb - qa
    keep = length > 1e-300
    qa, qb, length = qa[keep], qb[keep], length[keep]
    # two interior samples pin the affine quantile difference on each piece
    q1 = qa + length / 3.0
    q2 = qa + 2.0 * length / 3.0
    d1 = q_mu(q1) - q_nu(q1)
    d2 = q_mu(q2) - q_nu(q2)
    va = 2.0 * d1 - d2  # value at qa (from inside)
    vb = 2.0 * d2 - d1  # value at qb
    if p == 2:
        total = float(np.sum(length / 3.0 * (va * va + va * vb + vb * vb)))
        return float(np.sqrt(max(total, 0.0)))
    same = va * vb >= 0.0
    seg = np.where(
        same,
        0.5 * length * (np.abs(va) + np.abs(vb)),
        0.5 * length * (va * va + vb * vb) / np.where(same, 1.0, np.abs(va - vb)),
    )
    return float(np.sum(seg))


def wasserstein_small_nd(mu: EmpiricalMeasure, nu: EmpiricalMeasure, p: int = 1) -> float:
    """Exact W_p between equal-size uniform clouds by optimal assignment.

    For uniform marginals the optimum of the transport problem is attained at
    a permutation (Birkhoff), so the linear assignment of the N x N cost
    matrix is exact in any dimension.
    """
    # imported here: at module level it would add to every import of the package
    from scipy.optimize import linear_sum_assignment

    if p not in (1, 2):
        raise ValueError("p must be 1 or 2")
    if mu.n != nu.n:
        raise ValueError("wasserstein_small_nd requires equal point counts")
    if not (mu.is_uniform and nu.is_uniform):
        raise ValueError("wasserstein_small_nd requires uniform weights")
    diff = mu.points[:, None, :] - nu.points[None, :, :]
    cost = np.linalg.norm(diff, axis=2)
    if p == 2:
        cost = cost**2
    rows, cols = linear_sum_assignment(cost)
    best = float(cost[rows, cols].sum()) / mu.n
    return float(best if p == 1 else np.sqrt(best))


# ---------------------------------------------------------------------------
# CSV serialization
# ---------------------------------------------------------------------------


def format_float(v: float) -> str:
    return f"{float(v):.17g}"


def format_value(v) -> str:
    """A string verbatim, an integer in decimal, anything else as a 17-digit float."""
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return format_float(v)


def write_csv(
    path, header: Sequence[str], rows, preamble: Sequence[str] = (), row_format: str | None = None
) -> None:
    """Write rows of numbers/strings as CSV with :func:`format_value`.

    ``row_format``, the printf template of a whole line, formats each row (a
    tuple) in one operation instead; its ``%.17g`` and ``%d`` print the same
    bytes as :func:`format_value`.
    """
    with open(path, "w", newline="") as fh:
        for line in preamble:
            fh.write(f"# {line}\n")
        fh.write(",".join(header) + "\n")
        if row_format is None:
            fh.writelines(",".join(map(format_value, row)) + "\n" for row in rows)
        else:
            fh.writelines(map(row_format.__mod__, rows))


def write_empirical_csv(path, measures: Sequence[EmpiricalMeasure]) -> None:
    """Rows ``pop,idx,x0,...,x{d-1},weight`` for each population's particles."""
    d = measures[0].dim
    header = ["pop", "idx"] + [f"x{k}" for k in range(d)] + ["weight"]

    def rows():
        for pop, m in enumerate(measures):
            yield from zip(itertools.repeat(pop), range(m.n), *m.points.T.tolist(), m.weights.tolist())

    write_csv(path, header, rows(), row_format="%d,%d," + "%.17g," * d + "%.17g\n")


def write_grid_csv(
    path, grid: Grid, keys: Sequence[str], records, value: str = "value", preamble: Sequence[str] = ()
) -> None:
    """Rows ``keys...,cell indices...,midpoint coords...,value``, one per cell of each record.

    ``records`` yields ``(key values, cell values)`` pairs; the key values
    lead every row of their record. Each record is formatted from column
    lists with one row template.
    """
    d = grid.dim
    header = [*keys, *(f"i{k}" for k in range(d)), *(f"x{k}" for k in range(d)), value]
    index = [ix.reshape(-1).tolist() for ix in np.indices(grid.cells)]
    mids = grid.flat_midpoints().T.tolist()

    def rows():
        for key_values, cells in records:
            prefix = "".join(format_value(v) + "," for v in key_values)
            yield from zip(itertools.repeat(prefix), *index, *mids, cells.reshape(-1).tolist())

    row_format = "%s" + "%d," * d + "%.17g," * d + "%.17g\n"
    write_csv(path, header, rows(), preamble=preamble, row_format=row_format)
