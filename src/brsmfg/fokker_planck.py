"""Conservative finite-volume solver for the mean-field continuity equation.

Solves d_t m = div[(grad(h + g/T)/alpha - f) m] + (1/2) sum_k d^2_kk (sigma_k^2 m)
on a rectangular grid (1-d or 2-d tensor), for one or several coupled
populations, with the measure-dependent drift frozen once per step.

Fluxes use exponentially-fitted upwinding (Scharfetter-Gummel): with face
velocity b, face diffusivity D = sigma^2/2 and Peclet number P = b*dx/D, the
face flux is ``b*m_L + G*(m_L - m_R)`` with ``G = b/expm1(P)``. Both weights
are nonnegative, so the explicit update preserves positivity under the CFL
bound, mass telescopes exactly under no-flux boundaries, and the flux
degenerates to plain donor-cell upwinding as D -> 0 and to the centered
second-order flux as P -> 0. Plain donor-cell upwinding everywhere was
measured to inflate the stationary variance of the drift-diffusion benchmark
beyond the accepted tolerance, which is why the fitted weighting is used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .measures import Grid, GridDensity, write_grid_csv
from .model import ModelSpec, coupling_measure, face_velocity

__all__ = [
    "NumericalError",
    "FpkConfig",
    "DensityPath",
    "solve_fpk",
]

BOUNDARIES = ("no_flux", "absorbing")
MIN_CELLS = 8
MAX_STEPS = 5_000_000


class NumericalError(RuntimeError):
    """Step collapse, blow-up, or loss of positivity in a PDE solve."""


@dataclass(frozen=True)
class FpkConfig:
    """Time-stepping controls for :func:`solve_fpk`.

    The solve runs from t = 0 to a positive, finite ``t_final``. The internal
    step is re-bounded every step by the positivity/CFL limit of the current
    drift and diffusion, scaled by ``cfl_safety``, and chopped so snapshots
    land exactly on ``record_times``: strictly increasing times in
    [0, t_final] that end at ``t_final``. ``None`` records (0, t_final).
    ``boundary`` is one label for every side of the box: ``no_flux`` walls
    or ``absorbing`` ones.
    """

    t_final: float
    cfl_safety: float = 0.9
    boundary: str = "no_flux"
    record_times: tuple[float, ...] | None = None

    def __post_init__(self):
        if not 0.0 < self.cfl_safety <= 1.0:
            raise ValueError("cfl_safety must lie in (0, 1]")
        if not 0.0 < self.t_final < math.inf:
            raise ValueError(f"t_final must be positive and finite, got {self.t_final!r}")
        if self.record_times is not None:
            r = np.asarray(self.record_times, dtype=float)
            if not (r.size and r[0] >= -1e-12 and abs(r[-1] - self.t_final) <= 1e-12 and np.all(np.diff(r) > 0)):
                raise ValueError("record_times must increase strictly within [0, t_final] and end at t_final")
        if self.boundary not in BOUNDARIES:
            raise ValueError(f"boundary must be one of {BOUNDARIES}")


def _sg_coefficients(D: np.ndarray, dx: float) -> tuple:
    """What the SG weight takes from the face diffusivities D.

    (D/dx, D with its zeros replaced by 1, the mask of faces with D > 0),
    the mask being None when every face has D > 0 and False when none has.
    """
    diffusive = D > 0.0
    mask = None if diffusive.all() else False if not diffusive.any() else diffusive
    return D / dx, np.where(diffusive, D, 1.0), mask


@np.errstate(over="ignore", divide="ignore", invalid="ignore")  # cheaper per call than a with block
def _sg_weight(b: np.ndarray, dx: float, coefficients: tuple) -> np.ndarray:
    """G = (D/dx) * B(P) with B the Bernoulli function and P = b*dx/D; stable in all limits.

    Where D = 0 the weight is its donor-cell limit max(-b, 0).
    """
    D_dx, safe, diffusive = coefficients
    if diffusive is False:
        return np.maximum(-b, 0.0)
    P = b * dx
    P /= safe
    magnitude = np.abs(P)
    G = np.divide(b, np.expm1(P, out=P), out=P)  # b / expm1(P)
    if np.fmin.reduce(magnitude, axis=None) < 1e-8:  # some |P| < 1e-8 (fmin skips NaNs)
        np.subtract(D_dx, 0.5 * b, out=G, where=magnitude < 1e-8)  # the limit there overwrites b/expm1(P), 0/0 too
    return G if diffusive is None else np.where(diffusive, G, np.maximum(-b, 0.0))


@dataclass(frozen=True)
class _Faces:
    """One population's faces normal to axis ``k``, fixed for a whole solve."""

    k: int
    flat: np.ndarray  # face centres, shape (n_faces, dim)
    shape: tuple[int, ...]  # the face mesh shape
    dx: float
    coefficients: tuple | None  # a declared-constant diffusion's _sg_coefficients, else None
    normal: Callable  # (t, measures) -> the normal velocity at the face centres


class _Step:
    """The explicit step of one :func:`solve_fpk`, built once from (model, grid, velocity, boundary).

    The face centres, dx, the SG coefficients of a declared-constant diffusion
    and each face set's normal velocity are fixed when it is built: the
    best reply's (:func:`face_velocity`, which evaluates only what axis k
    needs), or a ``velocity`` of the same shape. So is one zero-padded
    density buffer per axis, with its two shifted views. Each
    :meth:`assemble` evaluates the normal velocity (and a closure diffusion)
    at the faces, computes the SG weights (axis k swapped to the front),
    zeroes the outer faces under no-flux walls and sums the drain;
    :meth:`apply` copies each density into the padded buffer and updates it
    by the flux differences. A step works on a few hundred or thousand
    values, so its cost is per-call overhead: both work in place on fresh
    temporaries and reduce with ufuncs directly, and give the plain
    expressions in the comments bit for bit.
    """

    def __init__(self, model: ModelSpec, grid: Grid, velocity: Callable | None, boundary: str):
        self.model = model
        velocity = velocity or partial(face_velocity, model)
        self.closed = boundary == "no_flux"
        self.widths = grid.widths
        self.faces = []
        for pop, p in enumerate(model.populations):
            per_axis = []
            for k in range(grid.dim):
                pts, dx, diag = grid.face_points(k), grid.widths[k], p.diffusion.diag
                shape = pts.shape[:-1]
                coefficients = None
                if diag is not None:
                    coefficients = _sg_coefficients((0.5 * np.full(shape, diag[k]) ** 2).swapaxes(0, k), dx)
                flat = pts.reshape(-1, grid.dim)
                per_axis.append(_Faces(k, flat, shape, dx, coefficients, velocity(pop, flat, k)))
            self.faces.append(per_axis)
        self.pads = []  # per axis k, swapped to the front: (cell view, mL = (0, m), mR = (m, 0)) of a zeroed buffer
        for k in range(grid.dim):
            padded = np.zeros((grid.cells[k] + 2,) + np.empty(grid.cells).swapaxes(0, k).shape[1:])
            self.pads.append((padded[1:-1].swapaxes(0, k), padded[:-1], padded[1:]))

    def assemble(self, fields: Sequence[GridDensity], t: float) -> tuple[list[tuple], float]:
        """Per population (face velocities, SG weights, cell drains, largest drain or 0), and the largest of all."""
        measures = coupling_measure(fields)
        out = []
        worst = 0.0
        for pop, per_axis in enumerate(self.faces):
            bs, Gs = [], []
            for ax in per_axis:
                k, dx = ax.k, ax.dx
                vel = ax.normal(t, measures)
                if ax.coefficients is None:
                    sig = np.asarray(self.model.population(pop).diffusion.value(t, ax.flat), dtype=float)
                if not np.logical_and.reduce(np.isfinite(vel), axis=None):
                    raise NumericalError(f"non-finite drift on axis-{k} faces (pop {pop})")
                b = vel.reshape(ax.shape).swapaxes(0, k)
                coefficients = ax.coefficients
                if coefficients is None:
                    if not np.logical_and.reduce(np.isfinite(sig), axis=None):
                        raise NumericalError(f"non-finite diffusion on axis-{k} faces (pop {pop})")
                    coefficients = _sg_coefficients((0.5 * sig[:, k].reshape(ax.shape) ** 2).swapaxes(0, k), dx)
                G = _sg_weight(b, dx, coefficients)
                # no-flux faces carry zero flux and therefore zero drain
                if self.closed:
                    b[0] = b[-1] = 0.0
                    G[0] = G[-1] = 0.0
                bs.append(b)
                Gs.append(G)
                # positivity drain of each cell, ((b + G)[1:] + G[:-1]) / dx: (b + G) from its upper face, G from lower
                d = (b + G)[1:]
                d += G[:-1]
                d /= dx
                drain = d if k == 0 else drain + d.swapaxes(0, k)
            mx = float(np.maximum.reduce(drain, axis=None))
            worst = max(worst, mx)  # a NaN or a negative mx leaves it
            out.append((bs, Gs, drain, mx if mx > 0.0 else 0.0))
        return out, worst

    def apply(self, fields: Sequence[GridDensity], assembled: list[tuple], dt: float) -> tuple[GridDensity, ...]:
        """The densities one step of length dt after ``fields``, with the fluxes :meth:`assemble` gave."""
        new_fields = []
        for f, (bs, Gs, _, _) in zip(fields, assembled):
            for k, (b, G, (cells, mL, mR), dx) in enumerate(zip(bs, Gs, self.pads, self.widths)):
                cells[...] = f.values
                # F = b * mL + G * (mL - mR), then vals += -(dt / dx) * (F[1:] - F[:-1])
                F = b * mL
                jump = mL - mR
                jump *= G
                F += jump
                dvals = F[1:] - F[:-1]
                dvals *= -(dt / dx)
                vals = np.add(f.values, dvals, out=dvals) if k == 0 else vals + dvals.swapaxes(0, k)
            try:
                new_fields.append(GridDensity(f.grid, vals))
            except ValueError as exc:  # the shape is the grid's, so only a value check fails
                raise NumericalError(f"{exc} after step") from None
        return tuple(new_fields)


def _worst_cell(assembled: list[tuple]) -> str:
    """The population and the cell with the largest drain."""
    pop, (_, _, drain, _) = max(enumerate(assembled), key=lambda pa: pa[1][3])
    cell = np.unravel_index(int(np.argmax(drain)), drain.shape)
    return f"pop {pop}, cell {tuple(int(i) for i in cell)}"


def _interpolate_in_time(times: np.ndarray, t: float, at: Callable[[int], np.ndarray]) -> np.ndarray:
    """The slices ``at(k)`` at increasing ``times``, linearly interpolated at t.

    Outside the range the end slice is returned as it is.
    """
    if t <= times[0]:
        return at(0)
    if t >= times[-1]:
        return at(len(times) - 1)
    j = int(times.searchsorted(t, side="right")) - 1
    lam = (t - times[j]) / (times[j + 1] - times[j])
    return (1.0 - lam) * at(j) + lam * at(j + 1)


class DensityPath:
    """Recorded (t, per-population density) snapshots from a forward solve."""

    def __init__(self, grid: Grid, times: np.ndarray, values: np.ndarray, report: dict | None = None):
        self.grid = grid
        self.times = np.asarray(times, dtype=float)
        self.values = np.asarray(values, dtype=float)  # (K, P, *cells)
        self.report = dict(report or {})

    @property
    def n_populations(self) -> int:
        return self.values.shape[1]

    def density(self, k: int, pop: int = 0) -> GridDensity:
        return GridDensity(self.grid, self.values[k, pop])

    def final(self, pop: int = 0) -> GridDensity:
        return self.density(len(self.times) - 1, pop)

    def at_time(self, t: float, pop: int = 0) -> GridDensity:
        """Density linearly interpolated in time (clamped to the range)."""
        return GridDensity(self.grid, _interpolate_in_time(self.times, t, lambda k: self.values[k, pop]))

    def write_csv(self, path, preamble: Sequence[str] = ()) -> None:
        """Rows ``t,pop,cell...,midpoint...,value`` with a key=value header block."""
        records = (
            ((t, pop), self.values[ik, pop])
            for ik, t in enumerate(self.times.tolist())
            for pop in range(self.n_populations)
        )
        write_grid_csv(path, self.grid, ["t", "pop"], records, preamble=preamble)


def _boundary_mass_fraction(values: np.ndarray, grid: Grid) -> float:
    """Mass fraction sitting in the outermost cell layer."""
    total = values.sum()
    if total <= 0:
        return 0.0
    interior = values[(slice(1, -1),) * grid.dim]
    return float((total - interior.sum()) / total)


def solve_fpk(
    model: ModelSpec,
    m0: Sequence[GridDensity] | GridDensity,
    cfg: FpkConfig,
    velocity: Callable | None = None,
) -> DensityPath:
    """March the coupled continuity equations from ``m0`` to ``cfg.t_final``.

    The internal step is ``cfl_safety`` times the positivity bound, recomputed
    every step, and chopped to land exactly on record times. The returned
    path's ``report`` collects the mass drift, the minimum density seen, and
    the worst boundary-layer mass fraction (flag for a too-small domain). A
    CFL-limited step below ``1e-12 * t_final`` raises ``NumericalError``
    naming the population and the cell that limit it. ``velocity(pop, x, k) -> (t, measures) ->``
    the velocity along axis k at face centres x, built once per face set, replaces :func:`face_velocity`.
    """
    fields = (m0,) if isinstance(m0, GridDensity) else tuple(m0)
    if len(fields) != model.n_populations:
        raise ValueError("one initial density per population required")
    grid = fields[0].grid
    if any(f.grid != grid for f in fields):
        raise ValueError("all populations must share one grid")
    if min(grid.cells) < MIN_CELLS:
        raise ValueError(f"grid needs at least {MIN_CELLS} cells per axis")
    for f in fields:
        if abs(f.mass - 1.0) > 1e-8:
            raise ValueError(f"initial density mass {f.mass} != 1")

    record = np.asarray((0.0, cfg.t_final) if cfg.record_times is None else cfg.record_times, dtype=float)
    step = _Step(model, grid, velocity, cfg.boundary)
    # a CFL-limited step below this has collapsed: the solve would not reach t_final
    min_dt = 1e-12 * cfg.t_final
    t = 0.0
    times = [t]
    values = [np.stack([f.values for f in fields])]
    mass0 = [f.mass for f in fields]
    mass_drift = 0.0
    min_density = min(f.min_value for f in fields)
    boundary_mass = max(_boundary_mass_fraction(f.values, grid) for f in fields)

    steps = 0
    for target in record[1:] if record[0] <= 1e-12 else record:
        while t < target - 1e-12:
            asm, drain = step.assemble(fields, t)
            dt = target - t if drain <= 0.0 else cfg.cfl_safety / drain
            if drain > 0.0 and dt < min_dt:  # the chopped remainder before a record may be shorter
                raise NumericalError(
                    f"step collapse: the CFL-limited step {dt:.3e} at t={t:.6g} is below "
                    f"1e-12 * t_final (worst drain at {_worst_cell(asm)})"
                )
            dt = min(dt, target - t)
            fields = step.apply(fields, asm, dt)
            t += dt
            steps += 1
            if steps > MAX_STEPS:
                raise NumericalError(f"exceeded max_steps={MAX_STEPS} before t_final")
            for f, m in zip(fields, mass0):
                min_density = min(min_density, f.min_value)
                mass_drift = max(mass_drift, abs(f.mass - m))
        times.append(t)
        values.append(np.stack([f.values for f in fields]))
        boundary_mass = max(boundary_mass, max(_boundary_mass_fraction(f.values, grid) for f in fields))
    report = {
        "mass_drift_max": mass_drift,
        "min_density": min_density,
        "boundary_mass_max": boundary_mass,
        "boundary_mass_flag": float(boundary_mass > 1e-8),
        "n_steps": float(steps),
    }
    return DensityPath(grid, np.asarray(times), np.asarray(values), report)
