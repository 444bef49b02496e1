"""Best reply strategy from one-step model predictive control.

Two deliberately separate routes to the same control are kept as distinct
code paths so their agreement stays testable:

* Method 1 (:func:`brs_control_finite`, :func:`brs_control_limit`) optimizes
  the one-window quadratic cost directly, giving the feedback
  ``-(1/(alpha + dt*alpha_dot)) grad(h + g/T)``.
* Method 2 (:func:`mpc_value_surrogate`) discretizes the window's
  Hamilton-Jacobi-Bellman equation backward in time, whose one-step value is
  ``h + g/T``; differentiating it recovers Method 1's control.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measures import EmpiricalMeasure, leave_one_out
from .model import ModelSpec, cost_gradient_sum, coupling_measure

__all__ = [
    "MpcConfig",
    "brs_control_finite",
    "brs_control_limit",
    "mpc_value_surrogate",
    "penalty_denominator",
]


@dataclass(frozen=True)
class MpcConfig:
    """One-step MPC window of size dt."""

    dt: float

    def validate(self, horizon: float) -> None:
        if not 0.0 < self.dt <= horizon:
            raise ValueError(f"MPC window dt={self.dt} must lie in (0, T={horizon}]")


def penalty_denominator(model: ModelSpec, pop: int, t: float, cfg: MpcConfig) -> float:
    """alpha(t) + dt * alpha_dot(t); must be positive."""
    pen = model.population(pop).penalty
    denom = pen.alpha(t) + cfg.dt * pen.alpha_dot(t)
    if not denom > 0.0:
        raise ValueError(f"penalty denominator nonpositive at t={t}: {denom}")
    return float(denom)


def control_batch(
    model: ModelSpec, pop: int, t: float, x: np.ndarray, m, denom: float
) -> np.ndarray:
    """Shared feedback evaluation -(1/denom) * masked grad(h + g/T)(x, m)."""
    return -cost_gradient_sum(model, pop, x, m) / denom


def brs_control_finite(model: ModelSpec, pop: int, i: int, state, t: float, cfg: MpcConfig):
    """Finite-window best reply for player i against the leave-one-out measure.

    ``state`` is an :class:`~brsmfg.particle_sim.EnsembleState` (or anything
    with ``positions``). Other populations couple through their full empirical
    measures; the player's own population always excludes the player itself.
    """
    cfg.validate(model.T)
    positions = state.positions[pop]
    if positions.shape[0] < 2:
        raise ValueError("need at least two particles for the leave-one-out measure")
    denom = penalty_denominator(model, pop, t, cfg)
    views = []
    for p in range(model.n_populations):
        emp = EmpiricalMeasure(state.positions[p])
        views.append(leave_one_out(emp, i) if p == pop else emp)
    return control_batch(model, pop, t, positions[i], coupling_measure(views), denom)


def brs_control_limit(model: ModelSpec, pop: int, t: float, x: np.ndarray, m) -> np.ndarray:
    """dt -> 0 best reply -(1/alpha(t)) grad(h + g/T)(x, m)."""
    return control_batch(model, pop, t, x, m, float(model.population(pop).penalty.at(t)))


def mpc_value_surrogate(model: ModelSpec, pop: int, t: float, x: np.ndarray, m):
    """One-step value from the backward-discretized window HJB: (h + g/T)(x, m)."""
    p = model.population(pop)
    h = np.asarray(p.running_cost.value(x, m), dtype=float)
    g = np.asarray(p.terminal_cost.value(x, m), dtype=float)
    return h + g / model.T
