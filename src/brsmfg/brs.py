"""Best reply strategy from one-step model predictive control.

Two deliberately separate routes to the same control are kept as distinct
code paths so their agreement stays testable:

* Method 1 (:func:`brs_control_finite`, :func:`brs_control_limit`) optimizes
  the one-window quadratic cost directly, giving the feedback
  ``-(1/(alpha + dt*alpha_dot)) grad(h + g/T)`` for a window dt in (0, T].
* Method 2 (:func:`mpc_value_surrogate`) discretizes the window's
  Hamilton-Jacobi-Bellman equation backward in time, whose one-step value is
  ``h + g/T``; differentiating it recovers Method 1's control.

The particles and the density move by f plus this feedback, :func:`brsmfg.model.brs_drift`.
"""

from __future__ import annotations

import numpy as np

from .measures import EmpiricalMeasure, leave_one_out
from .model import ModelSpec, cost_gradient_sum, coupling_measure

__all__ = ["brs_control_finite", "brs_control_limit", "mpc_value_surrogate"]


def brs_control_finite(model: ModelSpec, pop: int, i: int, state, t: float, dt: float):
    """Best reply on the window dt for player i against the leave-one-out measure.

    ``state`` is an :class:`~brsmfg.particle_sim.EnsembleState` (or anything
    with ``positions``). Other populations couple through their full empirical
    measures; the player's own population always excludes the player itself.
    """
    model.check_window(dt)
    positions = state.positions[pop]
    if positions.shape[0] < 2:
        raise ValueError("need at least two particles for the leave-one-out measure")
    denom = model.population(pop).penalty.at(t, dt)
    views = [EmpiricalMeasure(q) for q in state.positions]
    views[pop] = leave_one_out(views[pop], i)
    return -cost_gradient_sum(model, pop, positions[i], coupling_measure(views)) / denom


def brs_control_limit(model: ModelSpec, pop: int, t: float, x: np.ndarray, m) -> np.ndarray:
    """dt -> 0 best reply -(1/alpha(t)) grad(h + g/T)(x, m)."""
    return -cost_gradient_sum(model, pop, x, m) / model.population(pop).penalty.at(t)


def mpc_value_surrogate(model: ModelSpec, pop: int, t: float, x: np.ndarray, m):
    """One-step value from the backward-discretized window HJB: (h + g/T)(x, m)."""
    p = model.population(pop)
    h = np.asarray(p.running_cost.value(x, m), dtype=float)
    g = np.asarray(p.terminal_cost.value(x, m), dtype=float)
    return h + g / model.T
