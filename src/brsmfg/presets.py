"""Benchmark model presets with analytic reference solutions.

* ``ou_model`` -- quadratic running cost only; the best-reply dynamics are an
  Ornstein-Uhlenbeck process with stationary variance sigma^2/2.
* ``lq_model`` -- quadratic running and terminal cost; the MFG value function
  is x^2/2 + sigma^2 (T - t)/2 (the quadratic coefficient sits at the fixed
  point of its Riccati equation).
* ``mean_coupling_model`` -- quadratic attraction toward the population mean,
  the minimal genuinely measure-coupled benchmark.
"""

from __future__ import annotations

import math

import numpy as np

from .measures import moments
from .model import (
    ControlPenalty,
    CostFunction,
    DiffusionFunction,
    DriftFunction,
    GaussianMarginal,
    ModelSpec,
    PopulationModel,
    product_law,
)

__all__ = ["ou_model", "lq_model", "mean_coupling_model"]


def _quadratic_cost() -> CostFunction:
    # the gradient x never reads m, so it is linear in m
    return CostFunction(
        value=lambda x, m: 0.5 * np.asarray(x)[..., 0] ** 2,
        gradient=lambda x, m: np.asarray(x, dtype=float).copy(),
        linear=True,
    )


def _scalar_population(h, g, sigma, init_var, alpha) -> PopulationModel:
    if not 0.0 < init_var < math.inf:
        raise ValueError(f"init_var must be positive and finite, got {init_var!r}")
    return PopulationModel(
        drift=DriftFunction.zero(1),
        running_cost=h,
        terminal_cost=g,
        penalty=ControlPenalty.constant(alpha),
        diffusion=DiffusionFunction.constant([sigma]),
        initial_law=product_law([GaussianMarginal(0.0, float(np.sqrt(init_var)))]),
    )


def ou_model(T: float = 8.0, sigma: float = 1.0, init_var: float = 0.25, alpha: float = 1.0) -> ModelSpec:
    """h = x^2/2, g = 0: best-reply drift -x/alpha, stationary N(0, alpha sigma^2/2)."""
    pop = _scalar_population(_quadratic_cost(), CostFunction.zero(1), sigma, init_var, alpha)
    return ModelSpec(d=1, T=T, populations=(pop,))


def lq_model(T: float = 1.0, sigma: float = 1.0, init_var: float = 0.25, alpha: float = 1.0) -> ModelSpec:
    """h = g = x^2/2 with constant penalty and diffusion (Riccati benchmark)."""
    pop = _scalar_population(_quadratic_cost(), _quadratic_cost(), sigma, init_var, alpha)
    return ModelSpec(d=1, T=T, populations=(pop,))


def mean_coupling_model(
    T: float = 1.0,
    sigma: float = 1.0,
    strength: float = 1.0,
    init_var: float = 0.25,
    alpha: float = 1.0,
) -> ModelSpec:
    """h(x, m) = (strength/2) * integral of (x - y)^2 m(dy); g = 0.

    The gradient strength*(x - mean(m)) pulls players toward the population
    mean, so the leave-one-out and full-measure couplings genuinely differ
    (by O(1/N)).
    """
    if not math.isfinite(strength):
        raise ValueError(f"strength must be finite, got {strength!r}")

    def value(x, m):
        x = np.asarray(x, dtype=float)
        mom = moments(m)
        ey2 = float(mom.variance[0] + mom.mean[0] ** 2)
        xs = x[..., 0]
        return 0.5 * strength * (xs**2 - 2.0 * xs * float(mom.mean[0]) + ey2)

    def gradient(x, m):
        x = np.asarray(x, dtype=float)
        mu = m.mean()  # (1,), or one row per run of a stack of runs
        return strength * (x - (mu if mu.ndim == 1 else mu[:, None]))

    h = CostFunction(value=value, gradient=gradient, linear=True)
    pop = _scalar_population(h, CostFunction.zero(1), sigma, init_var, alpha)
    return ModelSpec(d=1, T=T, populations=(pop,))
