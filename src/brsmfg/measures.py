"""Probability measures on R^d: particle clouds, grid densities, and distances.

Two concrete measure representations are used throughout the package:

* :class:`EmpiricalMeasure` -- a weighted particle cloud (weights sum to 1).
* :class:`GridDensity` -- cell-averaged nonnegative density on a rectangular
  grid (finite-volume convention, so mass bookkeeping is exact).

Free functions (``moments``, ``density_at``, the Wasserstein distances, ...)
accept either representation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Sequence, Union

import numpy as np

__all__ = [
    "Grid",
    "EmpiricalMeasure",
    "GridDensity",
    "MeasureView",
    "Moments",
    "leave_one_out",
    "moments",
    "density_at",
    "density_gradient_at",
    "wasserstein_1d",
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
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError(f"grid axis bounds must be finite, got [{lo}, {hi}]")
            if not lo < hi:
                raise ValueError(f"grid axis needs min < max, got [{lo}, {hi}]")
            if nc < 1:
                raise ValueError("grid needs at least one cell per axis")
        for lo, hi, width in zip(self.mins, self.maxs, self.widths):
            if not math.isfinite(width):
                raise ValueError(f"grid cell width must be finite, got {width} on [{lo}, {hi}]")

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
    if pts.ndim not in (2, 3):
        raise ValueError("points must have shape (N,), (N, d) or (runs, N, d)")
    return pts


class EmpiricalMeasure:
    """Weighted particle measure sum_j w_j * delta_{x_j} with sum w_j = 1.

    Points of shape (runs, N, d) stack the clouds of independent runs on the
    same weights; ``mean`` and ``variance`` then give one row per run.
    ``checked=True`` takes ``weights`` as already validated for these points.
    """

    def __init__(self, points: np.ndarray, weights: np.ndarray | None = None, *, checked: bool = False):
        self.points = _as_points(points)
        n = self.points.shape[-2]
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
        return self.points.shape[-2]

    @property
    def dim(self) -> int:
        return self.points.shape[-1]

    @property
    def is_uniform(self) -> bool:
        return bool(np.all(self.weights == self.weights[0]))

    def mean(self) -> np.ndarray:
        return self.weights @ self.points

    def variance(self, mean: np.ndarray | None = None) -> np.ndarray:
        """Per-axis variance; ``mean``, when the caller holds it, is not recomputed."""
        mu = self.mean() if mean is None else mean
        return self.weights @ (self.points - mu[..., None, :]) ** 2


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
        lo = float(np.minimum.reduce(values, axis=None))  # .min() and .sum() without their Python wrappers
        if not lo >= _NEG_TOL:  # a NaN fails this comparison too
            if not math.isfinite(lo):
                raise ValueError(f"non-finite density value {lo}")
            raise ValueError(f"negative density {lo:.3e} beyond {_NEG_TOL:.0e}")
        if lo < 0.0:
            values = np.maximum(values, 0.0)
            lo = float(np.minimum.reduce(values, axis=None))
        mass = float(np.add.reduce(values, axis=None)) * grid.cell_volume
        if not math.isfinite(mass):
            raise ValueError(f"non-finite density mass {mass}")
        self.grid = grid
        self.values = values
        self.min_value = lo
        self.mass = mass

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


@dataclass(frozen=True)
class Moments:
    mean: np.ndarray
    variance: np.ndarray


def moments(m: MeasureView) -> Moments:
    """Per-axis mean and variance of a normalized measure; the variance reuses the mean."""
    mu = m.mean()
    return Moments(mean=np.atleast_1d(mu), variance=np.atleast_1d(m.variance(mu)))


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
    vals = _kde_kernel(m, pts, bw)[1] @ m.weights
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
    diff, kern = _kde_kernel(m, pts, bw)
    grad = np.einsum("mn,mnk->mk", m.weights[None, :] * kern, -diff / bw**2)
    return grad[0] if scalar_like else grad.reshape(x.shape)


def _kde_bandwidth(m: EmpiricalMeasure, bandwidth) -> np.ndarray:
    if bandwidth is None:
        raise ValueError("the KDE of a particle measure needs a bandwidth")
    bw = np.atleast_1d(np.asarray(bandwidth, dtype=float))
    if not np.all(bw > 0):
        raise ValueError("bandwidth must be positive")
    if bw.size == 1:
        bw = np.full(m.dim, bw[0])
    return bw


def _kde_kernel(m: EmpiricalMeasure, pts: np.ndarray, bw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(pts - particles, shape (M, N, d); the product Gaussian kernel matrix, shape (M, N))."""
    diff = pts[:, None, :] - m.points[None, :, :]
    kern = np.exp(-0.5 * (diff / bw) ** 2) / (bw * np.sqrt(2.0 * np.pi))
    return diff, kern.prod(axis=2)


# ---------------------------------------------------------------------------
# Wasserstein distances
# ---------------------------------------------------------------------------


def _require_1d(m: MeasureView, name: str) -> None:
    dim = m.dim
    if dim != 1:
        raise ValueError(f"{name} is one-dimensional only (got d={dim})")


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
    path, header: Sequence[str], rows, preamble: Sequence[str] = (), row_format: str | None = None, blocks=None
) -> None:
    """Write rows of numbers/strings as CSV with :func:`format_value`.

    ``row_format``, the printf template of a whole line, formats each row (a
    tuple) in one operation instead; its ``%.17g`` and ``%d`` print the same
    bytes as :func:`format_value`. ``blocks`` instead yields ``(template, n)``
    pairs, each template formatting the next n rows, single values, as n
    lines in one operation.
    """
    with open(path, "w", newline="") as fh:
        for line in preamble:
            fh.write(f"# {line}\n")
        fh.write(",".join(header) + "\n")
        if blocks is not None:
            values = iter(rows)
            fh.writelines(template % tuple(itertools.islice(values, n)) for template, n in blocks)
        elif row_format is None:
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
    lead every row of their record. The cell-index and midpoint columns are
    the same in every record, so they are formatted once per file into line
    templates; a record is one format of those joined by its key prefix.
    """
    d = grid.dim
    header = [*keys, *(f"i{k}" for k in range(d)), *(f"x{k}" for k in range(d)), value]

    def along(k: int, columns: list[str]) -> np.ndarray:
        return np.array(columns).reshape([-1 if j == k else 1 for j in range(d)])

    # each axis's index and midpoint columns are formatted once, then broadcast over the cells;
    # the numbers hold no "%", so only the key prefixes need escaping
    columns = [along(k, ["%d," % i for i in range(n)]) for k, n in enumerate(grid.cells)]
    columns += [along(k, ["%.17g," % x for x in grid.midpoints(k).tolist()]) for k in range(d)]
    lines = reduce(np.char.add, [*columns, "%.17g\n"]).reshape(-1).tolist()
    records = list(records)

    def blocks():
        for key_values, _ in records:
            prefix = "".join(format_value(v) + "," for v in key_values).replace("%", "%%")
            yield prefix + prefix.join(lines), len(lines)

    values = itertools.chain.from_iterable(cells.reshape(-1).tolist() for _, cells in records)
    write_csv(path, header, values, preamble=preamble, blocks=blocks())
