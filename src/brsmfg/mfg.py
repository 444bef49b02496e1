"""Mean-field-game system: backward HJB, forward continuity, Picard coupling.

The value function w solves, backward from w(T, x) = g(x),

    |grad w|^2 / (2 alpha) = h(x, m_t) + d_t w + f . grad w
                             + (1/2) sum_k sigma_k^2 d^2_kk w,

while the density is pushed forward with velocity f - grad(w)/alpha. The two
PDEs are alternated with a damped Picard update of the density path. The
one-window backward solve also powers the check that the best-reply surrogate
value (h + g/T) approximates the window value to first order in the window
size.

Spatial derivatives use central differences with quadratically extrapolated
ghost cells (exact for quadratic solutions, outflow-consistent at the box
edge); the drift handed to the forward solver uses the same discrete
gradient, so both PDEs see one consistent field. Only one-dimensional,
single-population models are solved here.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .brs import mpc_value_surrogate
from .fokker_planck import (
    MIN_CELLS,
    DensityPath,
    FpkConfig,
    NumericalError,
    solve_fpk,
)
from .measures import Grid, GridDensity, wasserstein_1d, write_csv, write_grid_csv
from .model import ModelSpec, PopulationModel, CostFunction

__all__ = [
    "ValueField",
    "PicardConfig",
    "MfgSolution",
    "ReductionResult",
    "CompareResult",
    "hjb_backward",
    "solve_mfg_picard",
    "mpc_reduction_check",
    "compare_brs_mfg",
    "constant_path",
]

_BLOWUP_FACTOR = 1e6
# fraction of the HJB substep bound taken per substep
_CFL_SAFETY = 0.9
# HJB time slices per window in mpc_reduction_check
_WINDOW_SLICES = 4


@dataclass(frozen=True)
class PicardConfig:
    """Fixed-point controls: damping of the HJB input path and stop tolerance.

    The residual compares successive forward-solve outputs (before damping) in
    sup-over-time L1; convergence therefore means the undamped forward map has
    stopped moving, and a decoupled model converges right after iteration 2.
    """

    max_iters: int = 50
    damping: float = 0.5
    tol: float = 1e-4

    def __post_init__(self):
        if not 0.0 < self.damping <= 1.0:
            raise ValueError("damping must lie in (0, 1]")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


class ValueField:
    """Value function w on uniform time slices over a 1-d grid."""

    def __init__(self, grid: Grid, times: np.ndarray, values: np.ndarray):
        self.grid = grid
        self.times = np.asarray(times, dtype=float)
        self.values = np.asarray(values, dtype=float)  # (n_t+1, cells)
        # slice gradients, computed once; read-only since every caller shares them
        self._gradients = np.stack([_gradient_and_laplacian(w, grid.widths[0])[0] for w in self.values])
        self._gradients.flags.writeable = False

    def gradient(self, k: int) -> np.ndarray:
        return self._gradients[k]

    def gradient_at(self, t: float) -> np.ndarray:
        """Spatial gradient at midpoints, linearly interpolated in time."""
        ts = self.times
        if t <= ts[0]:
            return self.gradient(0)
        if t >= ts[-1]:
            return self.gradient(len(ts) - 1)
        j = int(np.searchsorted(ts, t, side="right") - 1)
        lam = (t - ts[j]) / (ts[j + 1] - ts[j])
        return (1.0 - lam) * self.gradient(j) + lam * self.gradient(j + 1)

    def write_csv(self, path, preamble: Sequence[str] = ()) -> None:
        """Rows ``t,cell,midpoint,w``."""
        records = (((t,), w) for t, w in zip(self.times.tolist(), self.values))
        write_grid_csv(path, self.grid, ["t"], records, value="w", preamble=preamble)


def _extend(w: np.ndarray) -> np.ndarray:
    """Attach quadratically extrapolated ghost values on both ends."""
    lo = 3.0 * w[0] - 3.0 * w[1] + w[2]
    hi = 3.0 * w[-1] - 3.0 * w[-2] + w[-3]
    return np.concatenate([[lo], w, [hi]])


def _gradient_and_laplacian(w: np.ndarray, dx: float) -> tuple[np.ndarray, np.ndarray]:
    """Central first and second differences from one ghost-cell extension."""
    we = _extend(w)
    return (we[2:] - we[:-2]) / (2.0 * dx), (we[2:] - 2.0 * we[1:-1] + we[:-2]) / dx**2


def _require_scalar_1d(model: ModelSpec, grid: Grid) -> PopulationModel:
    if model.d != 1 or grid.dim != 1:
        raise NotImplementedError("the MFG solver is one-dimensional")
    if model.n_populations != 1:
        raise NotImplementedError("the MFG solver handles a single population")
    if grid.cells[0] < MIN_CELLS:
        raise ValueError(f"grid needs at least {MIN_CELLS} cells")
    pmod = model.population(0)
    if not np.all(model.mask(0) == 1.0):
        raise NotImplementedError("the MFG solver assumes a fully controlled state")
    return pmod


def constant_path(grid: Grid, density: GridDensity, times: np.ndarray) -> DensityPath:
    """Density path frozen at one field for all requested times."""
    times = np.asarray(times, dtype=float)
    values = np.broadcast_to(
        density.values, (times.size, 1) + density.values.shape
    ).copy()
    return DensityPath(grid, times, values)


def hjb_backward(
    model: ModelSpec,
    density_path: DensityPath,
    grid: Grid,
    n_t: int,
) -> ValueField:
    """March the value function from w(T) = g back to t = 0.

    Explicit in time with internal substeps of 0.9 times the stable bound from
    the parabolic limit of sigma^2 and an advective limit from
    |f| + |grad w|/alpha; the stored slices live on the uniform grid of
    ``n_t + 1`` times. The density path must cover [0, T]; it is interpolated
    linearly at substep times.
    """
    pmod = _require_scalar_1d(model, grid)
    if density_path.grid != grid:
        raise ValueError("density path lives on a different grid")
    if density_path.times[0] > 1e-9 or density_path.times[-1] < model.T - 1e-9:
        raise ValueError("density path must cover [0, T]")
    times = np.linspace(0.0, model.T, n_t + 1)
    mids = grid.midpoints(0)
    pts = mids[:, None]
    dx = grid.widths[0]
    m_T = density_path.at_time(model.T)
    w = np.asarray(pmod.terminal_cost.value(pts, m_T), dtype=float)
    scale = max(1.0, float(np.abs(w).max()))
    values = np.empty((n_t + 1, mids.size))
    values[n_t] = w
    for k in range(n_t - 1, -1, -1):
        t_hi, t_lo = times[k + 1], times[k]
        tau = t_hi
        while tau > t_lo + 1e-13:
            m = density_path.at_time(tau)
            alpha = pmod.penalty.alpha(tau)
            grad, lap = _gradient_and_laplacian(w, dx)
            f = np.asarray(pmod.drift.value(pts, m), dtype=float)[:, 0]
            h = np.asarray(pmod.running_cost.value(pts, m), dtype=float)
            sig2 = np.asarray(pmod.diffusion.value(tau, pts), dtype=float)[:, 0] ** 2
            rhs = h + f * grad + 0.5 * sig2 * lap - grad**2 / (2.0 * alpha)
            speed = float(np.abs(f).max() + np.abs(grad).max() / alpha)
            denom = speed / dx + float(sig2.max()) / dx**2
            delta = (tau - t_lo) if denom <= 0.0 else min(_CFL_SAFETY / denom, tau - t_lo)
            w = w + delta * rhs
            tau -= delta
            if not np.all(np.isfinite(w)) or np.abs(w).max() > _BLOWUP_FACTOR * scale:
                raise NumericalError("HJB unstable, refine grid/time")
        values[k] = w
    return ValueField(grid, times, values)


def _mfg_velocity(model: ModelSpec, value: ValueField, grid: Grid):
    """Forward drift f - grad(w)/alpha using the value field's own gradient."""
    mids = grid.midpoints(0)
    pmod = model.population(0)

    def velocity(pop: int, t: float, x: np.ndarray, measures) -> np.ndarray:
        grad_mid = value.gradient_at(t)
        gx = np.interp(x[:, 0], mids, grad_mid)
        f = np.asarray(pmod.drift.value(x, measures), dtype=float)
        out = f.copy()
        out[:, 0] -= gx / pmod.penalty.alpha(t)
        return out

    return velocity


@dataclass
class MfgSolution:
    value: ValueField
    density_path: DensityPath
    residuals: list[float]
    converged: bool

    @property
    def n_iterations(self) -> int:
        return len(self.residuals)

    def write_iteration_csv(self, path) -> None:
        write_csv(path, ["iter", "residual"], ((k + 1, r) for k, r in enumerate(self.residuals)))


def solve_mfg_picard(
    model: ModelSpec,
    m0: GridDensity,
    grid: Grid,
    n_t: int,
    cfg: PicardConfig | None = None,
) -> MfgSolution:
    """Damped Picard alternation of the backward HJB and forward continuity PDE.

    Non-convergence at ``max_iters`` is reported through the ``converged``
    flag, not raised; the best (last) iterate is returned either way.
    """
    cfg = cfg or PicardConfig()
    _require_scalar_1d(model, grid)
    if abs(m0.mass - 1.0) > 1e-8:
        raise ValueError(f"initial density mass {m0.mass} != 1")
    times = np.linspace(0.0, model.T, n_t + 1)
    fpk_cfg = FpkConfig(t_final=model.T, record_times=tuple(times))
    input_path = constant_path(grid, m0, times)
    prev_new: DensityPath | None = None
    residuals: list[float] = []
    converged = False
    value = None
    new_path = input_path
    vol = grid.cell_volume
    for _ in range(cfg.max_iters):
        value = hjb_backward(model, input_path, grid, n_t)
        new_path = solve_fpk(model, m0, fpk_cfg, velocity=_mfg_velocity(model, value, grid))
        ref = input_path if prev_new is None else prev_new
        res = float(
            np.max(np.sum(np.abs(new_path.values - ref.values), axis=tuple(range(2, new_path.values.ndim)))) * vol
        )
        residuals.append(res)
        if prev_new is not None and res <= cfg.tol:
            converged = True
            break
        blend = cfg.damping * new_path.values + (1.0 - cfg.damping) * input_path.values
        input_path = DensityPath(grid, times, blend)
        prev_new = new_path
    return MfgSolution(value=value, density_path=new_path, residuals=residuals, converged=converged)


@dataclass
class ReductionResult:
    rows: list[tuple[float, float]]  # (window size, sup-norm error)
    fitted_order: float

    def write_csv(self, path) -> None:
        write_csv(path, ["dt", "sup_error"], self.rows)


def mpc_reduction_check(
    model: ModelSpec,
    grid: Grid,
    dt_list: Sequence[float],
) -> ReductionResult:
    """Error of the surrogate value (h + g/T) against the window HJB solve.

    For each window size the backward equation is solved on [0, dt] with
    running cost h/dt, terminal value g/T and the measure frozen at the
    initial law's grid projection; the sup-norm gap at the window start is
    reported together with the least-squares slope on the log-log points.
    """
    dt_list = list(dt_list)
    if len(dt_list) < 2:
        raise ValueError("dt_list needs at least two window sizes to fit an order")
    if any(b >= a for a, b in zip(dt_list, dt_list[1:])):
        raise ValueError("dt_list must be strictly decreasing")
    pmod = _require_scalar_1d(model, grid)
    m_ref = pmod.initial_law.grid_density(grid)
    surrogate = mpc_value_surrogate(model, 0, 0.0, grid.midpoints(0)[:, None], m_ref)
    rows = []
    for dt in dt_list:
        h = pmod.running_cost
        g = pmod.terminal_cost
        window_pop = replace(
            pmod,
            running_cost=CostFunction(
                value=lambda x, m, _h=h, _dt=dt: np.asarray(_h.value(x, m)) / _dt,
                gradient=lambda x, m, _h=h, _dt=dt: np.asarray(_h.gradient(x, m)) / _dt,
            ),
            terminal_cost=CostFunction(
                value=lambda x, m, _g=g, _T=model.T: np.asarray(_g.value(x, m)) / _T,
                gradient=lambda x, m, _g=g, _T=model.T: np.asarray(_g.gradient(x, m)) / _T,
            ),
        )
        window_model = ModelSpec(d=1, T=dt, populations=(window_pop,))
        frozen = constant_path(grid, m_ref, np.array([0.0, dt]))
        w = hjb_backward(window_model, frozen, grid, _WINDOW_SLICES)
        err = float(np.abs(w.values[0] - surrogate).max())
        rows.append((float(dt), err))
    errs = np.array([r[1] for r in rows])
    if np.all(errs > 0):
        order = float(np.polyfit(np.log(dt_list), np.log(errs), 1)[0])
    else:
        order = float("nan")
    return ReductionResult(rows=rows, fitted_order=order)


@dataclass
class CompareResult:
    times: np.ndarray
    w1: np.ndarray
    max_w1: float
    brs_path: DensityPath
    mfg: MfgSolution

    def write_csv(self, path) -> None:
        write_csv(path, ["t", "w1"], zip(self.times, self.w1))


def compare_brs_mfg(
    model: ModelSpec,
    m0: GridDensity,
    grid: Grid,
    n_t: int,
    cfg: PicardConfig | None = None,
) -> CompareResult:
    """1-Wasserstein profile between the best-reply density and the MFG density."""
    _require_scalar_1d(model, grid)
    times = np.linspace(0.0, model.T, n_t + 1)
    brs_path = solve_fpk(model, m0, FpkConfig(t_final=model.T, record_times=tuple(times)))
    mfg = solve_mfg_picard(model, m0, grid, n_t, cfg=cfg)
    w1 = np.array(
        [
            wasserstein_1d(brs_path.density(k, 0), mfg.density_path.density(k, 0), p=1)
            for k in range(times.size)
        ]
    )
    return CompareResult(times=times, w1=w1, max_w1=float(w1.max()), brs_path=brs_path, mfg=mfg)
