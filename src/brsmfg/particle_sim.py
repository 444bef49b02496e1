"""Euler-Maruyama simulation of the N-player game and its mean-field limit.

The integrator is weak order 1 with a fixed step, matching the O(dt) accuracy
of the control derivation. Coupling measures are rebuilt every step. All noise
for a step is drawn in one block per population, in particle order, before any
update runs.

The leave-one-out coupling evaluates each ingredient against every player's
own exclusion measure. Ingredients that declare a pairwise kernel get this
from one full-measure evaluation per step; opaque ones are evaluated player
by player.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .brs import MpcConfig, control_batch, penalty_denominator
from .measures import EmpiricalMeasure, GridDensity, leave_one_out, wasserstein_1d
from .model import ModelSpec, _check_finite

__all__ = [
    "EnsembleState",
    "SimConfig",
    "TrajectoryRecord",
    "ChaosRow",
    "em_step",
    "simulate_brs_nplayer",
    "propagation_of_chaos_study",
]

COUPLINGS = ("leave_one_out", "full_empirical")


@dataclass
class EnsembleState:
    """Particle positions per population plus time and seed lineage."""

    positions: tuple[np.ndarray, ...]
    t: float
    seed: int
    step_index: int = 0
    t0: float = 0.0

    def check(self, dt: float | None = None) -> None:
        for pts in self.positions:
            if not np.all(np.isfinite(pts)):
                raise FloatingPointError("ensemble contains non-finite positions")
        if dt is not None:
            if abs(self.step_index * dt - (self.t - self.t0)) > 1e-12 * max(1.0, abs(self.t)):
                raise ValueError("step_index * dt inconsistent with elapsed time")

    def empirical(self, pop: int = 0) -> EmpiricalMeasure:
        return EmpiricalMeasure(self.positions[pop])


@dataclass(frozen=True)
class SimConfig:
    dt: float
    t_final: float
    n_particles: int
    seed: int
    record_every: int = 1
    coupling: str = "full_empirical"
    t0: float = 0.0
    # accepted for compatibility; has no effect (steps run serially)
    workers: int = 1

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.t_final <= self.t0:
            raise ValueError("t_final must exceed t0")
        if self.n_particles < 2:
            raise ValueError("need at least two particles")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")
        if self.coupling not in COUPLINGS:
            raise ValueError(f"coupling must be one of {COUPLINGS}")

    def n_steps(self) -> int:
        span = self.t_final - self.t0
        steps = span / self.dt
        rounded = round(steps)
        if abs(steps - rounded) > 1e-9 * max(1.0, abs(steps)):
            warnings.warn(
                f"(t_final - t0)/dt = {steps} is not an integer; rounding to {rounded}",
                stacklevel=2,
            )
        return max(int(rounded), 1)


@dataclass
class TrajectoryRecord:
    times: np.ndarray
    snapshots: list[EnsembleState]
    metrics: dict[str, np.ndarray] = field(default_factory=dict)

    def final(self) -> EnsembleState:
        return self.snapshots[-1]


def _measure_views(state: EnsembleState):
    return tuple(EmpiricalMeasure(p) for p in state.positions)


def _coupling_arg(views, n_pop: int):
    return views[0] if n_pop == 1 else views


def _reflect(positions: np.ndarray, floors) -> np.ndarray:
    if floors is None:
        return positions
    for k, lo in enumerate(floors):
        if lo is None:
            continue
        col = positions[:, k]
        below = col < lo
        if np.any(below):
            positions[:, k] = np.where(below, 2.0 * lo - col, col)
    return positions


def _leave_one_out_eval(fn, pair, pts: np.ndarray, views, pop: int) -> np.ndarray:
    """``fn(x_i, m^{-i})`` for every particle i of population ``pop``, shape (N, d).

    ``m^{-i}`` replaces population ``pop``'s measure by the uniform measure on
    its other N - 1 particles; other populations keep their full measures.
    When ``fn(x, m)`` is the integral of a declared pairwise kernel
    ``pair(x, y)`` against m and there is one population, the exclusion is
    exact algebra on the full measure,
    ``fn(x_i, m^{-i}) = (N fn(x_i, m) - pair(x_i, x_i)) / (N - 1)``, so ``fn``
    runs once on all particles. Otherwise each particle is evaluated against
    its own leave-one-out measure.
    """
    n = pts.shape[0]
    # a single particle falls through to leave_one_out, which rejects it
    if pair is not None and len(views) == 1 and n > 1:
        full = fn(pts, views[0])
        diag = _check_finite(pair(pts, pts), "pairwise kernel", f"pop {pop} self-interaction")
        return (n * full - diag) / (n - 1)
    out = np.empty_like(pts)
    for i in range(n):
        vi = tuple(leave_one_out(v, i) if p == pop else v for p, v in enumerate(views))
        try:
            out[i] = fn(pts[i], _coupling_arg(vi, len(vi)))
        except FloatingPointError as exc:
            raise FloatingPointError(f"{exc} (particle {i})") from exc
    return out


def em_step(model: ModelSpec, state: EnsembleState, control, dt: float, rng, coupling: str = "full_empirical") -> EnsembleState:
    """One Euler-Maruyama step X += (f + u) dt + sigma(t, X) sqrt(dt) xi.

    ``control`` is ``None`` or a per-player callable ``(pop, i, t, state) ->
    control vector``. The coupling measure for the drift is the full empirical
    measure or the leave-one-out measure per player. Noise is drawn in particle
    order, one block per population.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if coupling not in COUPLINGS:
        raise ValueError(f"coupling must be one of {COUPLINGS}")
    n_pop = model.n_populations
    views = _measure_views(state)
    noises = [rng.standard_normal(p.shape) for p in state.positions]
    new_positions = []
    for pop in range(n_pop):
        pmod = model.population(pop)
        pts = state.positions[pop]
        n = pts.shape[0]

        def drift(x, m):
            return _check_finite(pmod.drift.value(x, m), "drift f", f"em_step pop {pop}")

        if coupling == "full_empirical":
            f = drift(pts, _coupling_arg(views, n_pop))
        else:
            f = _leave_one_out_eval(drift, pmod.drift.pair_value, pts, views, pop)
        total = f.copy()
        if control is not None:
            for i in range(n):
                ui = np.asarray(control(pop, i, state.t, state), dtype=float)
                if not np.all(np.isfinite(ui)):
                    raise FloatingPointError(
                        f"control produced non-finite value for pop {pop} particle {i}"
                    )
                total[i] += ui
        sig = _check_finite(
            pmod.diffusion.value(state.t, pts), "diffusion sigma", f"em_step pop {pop}"
        )
        new = pts + total * dt + sig * np.sqrt(dt) * noises[pop]
        if not np.all(np.isfinite(new)):
            bad = int(np.argwhere(~np.isfinite(new).all(axis=1))[0, 0])
            raise FloatingPointError(f"non-finite update for pop {pop} particle {bad}")
        new_positions.append(_reflect(new, pmod.reflect_lower))
    return EnsembleState(
        positions=tuple(new_positions),
        t=state.t + dt,
        seed=state.seed,
        step_index=state.step_index + 1,
        t0=state.t0,
    )


def _brs_kernel(model: ModelSpec, pop: int, denom: float):
    """Pairwise kernel of f + u, the best-reply step drift, or ``None``.

    Exists only when the drift f and both costs h and g declare their kernels;
    it mirrors ``f - mask * (grad h + grad g / T) / denom``.
    """
    p = model.population(pop)
    kf, kh, kg = p.drift.pair_value, p.running_cost.pair_gradient, p.terminal_cost.pair_gradient
    if kf is None or kh is None or kg is None:
        return None
    mask = model.mask(pop)
    return lambda x, y: kf(x, y) - mask * (kh(x, y) + kg(x, y) / model.T) / denom


def _brs_step(
    model: ModelSpec,
    state: EnsembleState,
    mpc: MpcConfig,
    dt: float,
    rng,
    coupling: str,
) -> EnsembleState:
    """BRS-controlled step; one vectorized evaluation per population where possible."""
    n_pop = model.n_populations
    views = _measure_views(state)
    noises = [rng.standard_normal(p.shape) for p in state.positions]
    new_positions = []
    for pop in range(n_pop):
        pmod = model.population(pop)
        pts = state.positions[pop]
        denom = penalty_denominator(model, pop, state.t, mpc)

        def step_drift(x, m):
            f = _check_finite(pmod.drift.value(x, m), "drift f", f"step pop {pop}")
            return f + control_batch(model, pop, state.t, x, m, denom)

        if coupling == "full_empirical":
            total = step_drift(pts, _coupling_arg(views, n_pop))
        else:
            total = _leave_one_out_eval(
                step_drift, _brs_kernel(model, pop, denom), pts, views, pop
            )
        sig = _check_finite(
            pmod.diffusion.value(state.t, pts), "diffusion sigma", f"step pop {pop}"
        )
        new = pts + total * dt + sig * np.sqrt(dt) * noises[pop]
        if not np.all(np.isfinite(new)):
            bad = int(np.argwhere(~np.isfinite(new).all(axis=1))[0, 0])
            raise FloatingPointError(f"non-finite update for pop {pop} particle {bad}")
        new_positions.append(_reflect(new, pmod.reflect_lower))
    return EnsembleState(
        positions=tuple(new_positions),
        t=state.t + dt,
        seed=state.seed,
        step_index=state.step_index + 1,
        t0=state.t0,
    )


def initial_state(model: ModelSpec, cfg: SimConfig) -> EnsembleState:
    rng = np.random.default_rng(cfg.seed)
    positions = tuple(
        _reflect(
            model.population(p).initial_law.sample(rng, cfg.n_particles),
            model.population(p).reflect_lower,
        )
        for p in range(model.n_populations)
    )
    return EnsembleState(positions=positions, t=cfg.t0, seed=cfg.seed, t0=cfg.t0)


def simulate_brs_nplayer(model: ModelSpec, cfg: SimConfig, mpc: MpcConfig | None = None) -> TrajectoryRecord:
    """Simulate the N-player game under the finite-window best reply.

    ``leave_one_out`` coupling uses each player's own exclusion measure
    (the N-player game); ``full_empirical`` uses the whole-cloud measure (the
    interacting-particle approximation of the mean-field dynamics). Snapshots
    are recorded every ``record_every`` steps plus the initial and final state.
    """
    if mpc is None:
        mpc = MpcConfig(dt=cfg.dt)
    mpc.validate(model.T)
    state = initial_state(model, cfg)
    # noise generator is separate from the initial-condition draws but derived
    # from the same seed, so one integer pins the whole run
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(1)[0])
    n_steps = cfg.n_steps()
    times = [state.t]
    snaps = [state]
    for k in range(n_steps):
        state = _brs_step(model, state, mpc, cfg.dt, rng, cfg.coupling)
        if (k + 1) % cfg.record_every == 0 or k == n_steps - 1:
            times.append(state.t)
            snaps.append(state)
    return TrajectoryRecord(times=np.asarray(times), snapshots=snaps)


@dataclass
class ChaosRow:
    n_particles: int
    mean_w1: float
    std_w1: float
    values: np.ndarray


def propagation_of_chaos_study(
    model: ModelSpec,
    cfg_base: SimConfig,
    n_list,
    reference,
    seeds,
) -> list[ChaosRow]:
    """Terminal 1-Wasserstein gap between particle clouds and a PDE reference.

    ``reference`` is a density path (anything with ``times`` and a
    ``density(k, pop)`` accessor, e.g. the finite-volume solver's output) that
    must contain the simulation's final time on its own grid of record times.
    Returns one row per N with the mean and standard deviation over seeds.
    """
    if model.d != 1:
        raise ValueError("the W1 study metric is one-dimensional")
    idx = np.nonzero(np.abs(np.asarray(reference.times) - cfg_base.t_final) <= 1e-9)[0]
    if idx.size == 0:
        raise ValueError(
            f"mismatched time grids: reference has no snapshot at t={cfg_base.t_final}"
        )
    ref_density: GridDensity = reference.density(int(idx[0]), 0)
    rows = []
    for n in n_list:
        vals = []
        for seed in seeds:
            cfg = replace(cfg_base, n_particles=int(n), seed=int(seed))
            rec = simulate_brs_nplayer(model, cfg)
            emp = rec.final().empirical(0)
            vals.append(wasserstein_1d(emp, ref_density, p=1))
        vals = np.asarray(vals)
        rows.append(
            ChaosRow(
                n_particles=int(n),
                mean_w1=float(vals.mean()),
                std_w1=float(vals.std(ddof=1)) if vals.size > 1 else 0.0,
                values=vals,
            )
        )
    return rows
