"""Shared builders and independent reference integrators for the test suite."""

from __future__ import annotations

import numpy as np

from brsmfg.applications import WealthParams
from brsmfg.measures import EmpiricalMeasure, Grid
from brsmfg.model import (
    ControlPenalty,
    CostFunction,
    DiffusionFunction,
    DriftFunction,
    GaussianMarginal,
    InitialLaw,
    ModelSpec,
    PopulationModel,
    product_law,
)


def gaussian_law(mean: float = 0.0, std: float = 0.5) -> InitialLaw:
    return product_law([GaussianMarginal(mean, std)])


def point_law(value: float) -> InitialLaw:
    """Initial law putting every particle at one point (for deterministic ODE tests)."""

    def sample(rng, n):
        return np.full((n, 1), value)

    def projection(grid: Grid):
        vals = np.zeros(grid.cells)
        idx = int(
            np.clip(
                (value - grid.mins[0]) / grid.widths[0], 0, grid.cells[0] - 1
            )
        )
        vals[idx] = 1.0 / grid.cell_volume
        return vals

    return InitialLaw(sample=sample, grid_projection=projection)


def scalar_model(
    h: CostFunction | None = None,
    g: CostFunction | None = None,
    f: DriftFunction | None = None,
    sigma: float = 1.0,
    alpha: float = 1.0,
    alpha_dot=None,
    T: float = 1.0,
    init=None,
) -> ModelSpec:
    """1-d single-population model assembled from pieces (zeros by default)."""
    if alpha_dot is None:
        pen = ControlPenalty.constant(alpha)
    else:
        pen = ControlPenalty(alpha=alpha, alpha_dot=alpha_dot)
    pop = PopulationModel(
        drift=f if f is not None else DriftFunction.zero(1),
        running_cost=h if h is not None else CostFunction.zero(1),
        terminal_cost=g if g is not None else CostFunction.zero(1),
        penalty=pen,
        diffusion=DiffusionFunction.constant([sigma]),
        initial_law=init if init is not None else gaussian_law(),
    )
    return ModelSpec(d=1, T=T, populations=(pop,))


def quadratic_cost() -> CostFunction:
    return CostFunction(
        value=lambda x, m: 0.5 * np.asarray(x)[..., 0] ** 2,
        gradient=lambda x, m: np.asarray(x, dtype=float).copy(),
    )


def rk4(f, x0: np.ndarray, t_final: float, n_steps: int) -> np.ndarray:
    """Classic fixed-step Runge-Kutta 4 for dx/dt = f(t, x)."""
    x = np.asarray(x0, dtype=float).copy()
    h = t_final / n_steps
    t = 0.0
    for _ in range(n_steps):
        k1 = f(t, x)
        k2 = f(t + h / 2, x + h / 2 * k1)
        k3 = f(t + h / 2, x + h / 2 * k2)
        k4 = f(t + h, x + h * k3)
        x = x + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t += h
    return x


def riccati_value(T: float, sigma: float, alpha: float, t_eval, x: np.ndarray):
    """High-accuracy reference for the quadratic-cost value function.

    Integrates a' = 2 a^2 / alpha - 1/2, b' = -sigma^2 a backward from
    a(T) = 1/2, b(T) = 0 and returns w(t, x) = a(t) x^2 + b(t) per time.
    """
    from scipy.integrate import solve_ivp

    def rhs(t, y):
        a, b = y
        return [2.0 * a * a / alpha - 0.5, -(sigma**2) * a]

    t_eval = np.atleast_1d(np.asarray(t_eval, dtype=float))
    sol = solve_ivp(
        rhs,
        (T, 0.0),
        [0.5, 0.0],
        t_eval=np.sort(t_eval)[::-1],
        rtol=1e-10,
        atol=1e-12,
        dense_output=False,
    )
    order = np.argsort(sol.t)
    a = sol.y[0][order]
    b = sol.y[1][order]
    ts = sol.t[order]
    out = {}
    for k, t in enumerate(ts):
        out[float(t)] = a[k] * x**2 + b[k]
    return out


class FixedNoise:
    """Stand-in generator returning pre-drawn normal blocks in order."""

    def __init__(self, blocks):
        self.blocks = list(blocks)
        self.k = 0

    def standard_normal(self, shape):
        block = self.blocks[self.k]
        self.k += 1
        assert block.shape == tuple(shape)
        return block


def wealth_cost_oracle(params: WealthParams, x, m):
    """Brute-force wealth trading cost and its gradient, (value, gradient).

    Sums the kernel over every (query point, support point) pair of the flat
    support, building the full (queries x support) arrays; the reference the
    factored kernel of ``build_wealth_model`` is checked against.
    """
    k = params.resolved()
    x = np.asarray(x, dtype=float)
    flat = x.reshape(-1, 2)
    if isinstance(m, EmpiricalMeasure):
        pts, w = m.points, m.weights
    else:
        pts, w = m.grid.flat_midpoints(), m.values.reshape(-1) * m.grid.cell_volume
    dy = flat[:, 0, None] - pts[None, :, 0]
    dz = flat[:, 1, None] - pts[None, :, 1]
    psi_qp = k["psi"](np.abs(dy))
    rho_q = psi_qp @ w
    rho_p = k["psi"](np.abs(pts[:, 0, None] - pts[None, :, 0])) @ w
    arg = 0.5 * (rho_q[:, None] + rho_p[None, :])
    xia = k["xi"](arg)
    dpsi = k["psi_prime"](np.abs(dy)) * np.sign(dy)
    value = (xia * psi_qp * k["phi"](dz)) @ w
    gz = (xia * psi_qp * k["phi_prime"](dz)) @ w
    gy = 0.5 * (dpsi @ w) * ((k["xi_prime"](arg) * psi_qp * k["phi"](dz)) @ w)
    gy = gy + (xia * dpsi * k["phi"](dz)) @ w
    return value.reshape(x.shape[:-1]), np.stack([gy, gz], axis=-1).reshape(x.shape)
