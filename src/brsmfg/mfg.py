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
gradient, so both PDEs see one consistent field. The backward sweep takes
one TR-BDF2 step per stored slice (Bank et al., IEEE Trans. CAD 1985), each
implicit stage with the Hamiltonian frozen at an extrapolated gradient, so
the slice count sets its cost and no diffusion bound limits the step (the
implicit MFG schemes of Achdou and Capuzzo-Dolcetta, SIAM J. Numer. Anal.
2010); a drift that spreads paths apart faster than a slice can follow is
refused by name. Only one-dimensional, single-population models are solved
here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .brs import mpc_value_surrogate
from .fokker_planck import (
    MIN_CELLS,
    DensityPath,
    FpkConfig,
    NumericalError,
    _interpolate_in_time,
    solve_fpk,
)
from .measures import Grid, GridDensity, wasserstein_1d, write_csv, write_grid_csv
from .model import ModelSpec, PopulationModel, CostFunction, is_zero

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
# TR-BDF2 stage fraction; with it both implicit stages share one coefficient
_GAMMA = 2.0 - math.sqrt(2.0)
# largest implicit coefficient times growth rate of the frozen drift an HJB stage accepts
_MAX_GROWTH = 0.25
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
        if not 0.0 < self.tol < math.inf:
            raise ValueError(f"tol must be positive and finite, got {self.tol!r}")
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
        """Spatial gradient at midpoints, linearly interpolated in time (clamped to the range)."""
        return _interpolate_in_time(self.times, t, self.gradient)

    def write_csv(self, path) -> None:
        """Rows ``t,cell,midpoint,w``."""
        records = (((t,), w) for t, w in zip(self.times.tolist(), self.values))
        write_grid_csv(path, self.grid, ["t"], records, value="w")


def _gradient_and_laplacian(w: np.ndarray, dx: float) -> tuple[np.ndarray, np.ndarray]:
    """Central first and second differences from one ghost-cell extension.

    The extension attaches quadratically extrapolated ghost values on both ends.
    """
    we = np.empty(w.size + 2)
    we[0] = 3.0 * w[0] - 3.0 * w[1] + w[2]
    we[1:-1] = w
    we[-1] = 3.0 * w[-1] - 3.0 * w[-2] + w[-3]
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


def _require_slices(n_t: int) -> None:
    if n_t < 1:
        raise ValueError(f"n_t must be at least 1, got {n_t}")


def constant_path(grid: Grid, density: GridDensity, times: np.ndarray) -> DensityPath:
    """Density path frozen at one field for all requested times."""
    times = np.asarray(times, dtype=float)
    values = np.broadcast_to(
        density.values, (times.size, 1) + density.values.shape
    ).copy()
    return DensityPath(grid, times, values)


def _solve_slice(rhs: np.ndarray, b: np.ndarray, half_sig2: np.ndarray, theta: float, dx: float) -> np.ndarray:
    """w with (I - theta L) w = rhs, where L w = b w' + half_sig2 w'' in the ghost-cell differences.

    Interior rows are tridiagonal; the folded ghost cells give rows 0 and 1
    entries on w_0..w_2, and rows n-2 and n-1 entries on w_{n-3}..w_{n-1}.
    A Thomas sweep over Python floats, with partial pivoting between the two
    top rows and an exact 2x2 solve for the bottom two, since a boundary row's
    diagonal 1 - theta D/dx^2 +- 3 theta b/(2 dx) vanishes at some slice widths.
    """
    adv = (theta / (2.0 * dx)) * b
    dif = (theta / dx**2) * half_sig2
    sub = (adv - dif).tolist()
    piv = (1.0 + 2.0 * dif).tolist()
    sup = (-adv - dif).tolist()
    y = rhs.tolist()
    n = len(y)
    a, d = float(adv[0]), float(dif[0])
    top = (1.0 + 3.0 * a - d, 2.0 * d - 4.0 * a, a - d, y[0])
    second = (sub[1], piv[1], sup[1], y[1])
    if abs(second[0]) > abs(top[0]):
        top, second = second, top
    a, d = float(adv[-1]), float(dif[-1])
    last = (-a - d, 4.0 * a + 2.0 * d, 1.0 - 3.0 * a - d, y[n - 1])
    try:
        l = second[0] / top[0]
        pv, sv, yv = second[1] - l * top[1], second[2] - l * top[2], second[3] - l * top[3]
        piv[1], sup[1], y[1] = pv, sv, yv
        for i in range(2, n - 2):
            l = sub[i] / pv
            pv = piv[i] = piv[i] - l * sv
            yv = y[i] = y[i] - l * yv
            sv = sup[i]
        # both bottom rows lose w_{n-3} against row n-3, leaving a 2x2 block
        l = sub[n - 2] / piv[n - 3]
        p1, q1, r1 = piv[n - 2] - l * sup[n - 3], sup[n - 2], y[n - 2] - l * y[n - 3]
        l = last[0] / piv[n - 3]
        p2, q2, r2 = last[1] - l * sup[n - 3], last[2], last[3] - l * y[n - 3]
        det = p1 * q2 - q1 * p2
        w = y[n - 2] = (r1 * q2 - q1 * r2) / det
        y[n - 1] = (p1 * r2 - p2 * r1) / det
        for i in range(n - 3, 0, -1):
            w = y[i] = (y[i] - sup[i] * w) / piv[i]
        y[0] = (top[3] - top[1] * y[1] - top[2] * y[2]) / top[0]
    except ZeroDivisionError:
        raise NumericalError("HJB unstable, refine grid/time") from None
    return np.array(y)


def hjb_backward(
    model: ModelSpec,
    density_path: DensityPath,
    grid: Grid,
    n_t: int,
) -> ValueField:
    """March the value function from w(T) = g back to t = 0.

    One TR-BDF2 step per stored slice of the uniform grid of ``n_t + 1``
    times, of width delta: a trapezoidal stage from t_{k+1} to
    t_{k+1} - gamma delta, then a BDF2 stage through the three values to
    t_k, with gamma = 2 - sqrt(2) so that both implicit stages solve with one
    coefficient theta = gamma delta / 2. Each implicit stage freezes the
    Hamiltonian at p, the gradient extrapolated linearly from the two latest
    values (grad g alone on the first stage), so it solves a linear equation
    with drift b = f - p/alpha and source h + |p|^2/(2 alpha); the explicit
    half of the trapezoidal stage uses the full Hamiltonian. h, f, sigma and
    alpha are read at each stage's time, where the density path is
    interpolated linearly; the path must cover [0, T]. The stage ending at
    t = 0 reads alpha at the first slice time instead, so alpha is never read
    at t = 0.

    Where b spreads paths apart faster than a stage can follow (theta times
    the largest increase of b per unit length above 1/4, so the fastest
    growing mode of the frozen operator could come close to making the stage
    singular) the sweep raises ``NumericalError`` naming the regime; more
    slices resolve it.
    """
    pmod = _require_scalar_1d(model, grid)
    _require_slices(n_t)
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

    def half_sig2_at(t: float) -> np.ndarray:
        return 0.5 * np.asarray(pmod.diffusion.value(t, pts), dtype=float)[:, 0] ** 2

    # a declared-constant diffusion is evaluated once per solve, a closure every stage
    fixed_half_sig2 = None if pmod.diffusion.diag is None else half_sig2_at(model.T)
    t_1 = float(times[1])
    delta = model.T / n_t
    theta = 0.5 * _GAMMA * delta

    def coefficients(t: float):
        """alpha, f, h and sigma^2/2 at time t."""
        alpha = pmod.penalty.at(t if t > 0.0 else t_1)
        m = density_path.at_time(t)
        f = np.asarray(pmod.drift.value(pts, m), dtype=float)[:, 0]
        h = np.asarray(pmod.running_cost.value(pts, m), dtype=float)
        return alpha, f, h, half_sig2_at(t) if fixed_half_sig2 is None else fixed_half_sig2

    def implicit(t: float, p: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """w at time t from (I - theta L) w = rhs + theta * source, L and source frozen at p."""
        alpha, f, h, half_sig2 = coefficients(t)
        b = f - p / alpha
        rate = float(np.max(np.diff(b))) / dx
        if theta * rate > _MAX_GROWTH:
            raise NumericalError(
                f"HJB slices too wide near t = {t:.6g}: the frozen drift spreads paths apart "
                f"at rate {rate:.4g} with an implicit coefficient of {theta:.4g}; use more time slices"
            )
        w = _solve_slice(rhs + theta * (h + p**2 / (2.0 * alpha)), b, half_sig2, theta, dx)
        # a NaN or an infinity fails the comparison too
        if not np.abs(w).max() <= _BLOWUP_FACTOR * scale:
            raise NumericalError("HJB unstable, refine grid/time")
        return w

    (grad, lap), grad_prev = _gradient_and_laplacian(w, dx), None
    for k in range(n_t - 1, -1, -1):
        t_hi = float(times[k + 1])
        alpha, f, h, half_sig2 = coefficients(t_hi)
        rhs = w + theta * (h + f * grad + half_sig2 * lap - grad**2 / (2.0 * alpha))
        p = grad if grad_prev is None else grad + _GAMMA * (grad - grad_prev)
        w_stage = implicit(t_hi - _GAMMA * delta, p, rhs)
        grad_stage = _gradient_and_laplacian(w_stage, dx)[0]
        p = grad_stage + (1.0 / _GAMMA - 1.0) * (grad_stage - grad)
        rhs = (w_stage - (1.0 - _GAMMA) ** 2 * w) / (_GAMMA * (2.0 - _GAMMA))
        w = values[k] = implicit(float(times[k]), p, rhs)
        grad_prev = grad
        grad, lap = _gradient_and_laplacian(w, dx)
    return ValueField(grid, times, values)


def _mfg_velocity(model: ModelSpec, value: ValueField, pop: int, x: np.ndarray, k: int) -> Callable:
    """(t, m) -> f - grad(w)/alpha at x from the value field's own gradient: the forward solve's velocity (1-d)."""
    mids = value.grid.midpoints(0)
    pmod = model.population(0)
    zero_f = is_zero(pmod.drift)

    def normal(t: float, measures) -> np.ndarray:
        gx = np.interp(x[:, 0], mids, value.gradient_at(t))
        if zero_f:  # 0.0 - v is zeros - v bit for bit, signed zeros included
            return 0.0 - gx / pmod.penalty.at(t)
        return np.asarray(pmod.drift.value(x, measures), dtype=float)[:, 0] - gx / pmod.penalty.at(t)

    return normal


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
    _require_slices(n_t)
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
        new_path = solve_fpk(model, m0, fpk_cfg, velocity=partial(_mfg_velocity, model, value))
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
    if not all(0.0 < dt < math.inf for dt in dt_list):
        raise ValueError(f"dt_list entries must be positive and finite, got {dt_list!r}")
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
    _require_slices(n_t)
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
