"""Euler-Maruyama simulation of the N-player game and its mean-field limit.

The integrator is weak order 1 with a fixed step, matching the O(dt) accuracy
of the control derivation. The step is built once per run; coupling measures
are rebuilt every step on its shared uniform weights. All noise for a step is
drawn in one block per population, in particle order, before any update runs.

The leave-one-out coupling evaluates each ingredient against every player's
own exclusion measure. Ingredients that declare a pairwise kernel get this
from one full-measure evaluation per step; opaque ones are evaluated player
by player.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np
# imported here, with the package: numpy loads numpy.random lazily, and the
# first generator of a solve would otherwise pay for it
from numpy.random import SeedSequence, default_rng

from .brs import MpcConfig, control_batch, penalty_denominator
from .measures import EmpiricalMeasure, GridDensity, _frozen, leave_one_out, wasserstein_1d
from .model import DriftFunction, ModelSpec, _check_finite, coupling_measure, is_zero

__all__ = [
    "EnsembleState",
    "SimConfig",
    "TrajectoryRecord",
    "ChaosRow",
    "em_step",
    "best_reply",
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

    def check(self, dt: float | None = None) -> None:
        for pts in self.positions:
            if not np.all(np.isfinite(pts)):
                raise FloatingPointError("ensemble contains non-finite positions")
        if dt is not None:
            if abs(self.step_index * dt - self.t) > 1e-12 * max(1.0, abs(self.t)):
                raise ValueError("step_index * dt inconsistent with elapsed time")

    def empirical(self, pop: int = 0) -> EmpiricalMeasure:
        return EmpiricalMeasure(self.positions[pop])


@dataclass(frozen=True)
class SimConfig:
    """One particle run from t = 0 to ``t_final`` in steps of ``dt``.

    Snapshots are kept every ``record_every`` steps, plus the initial and the
    final state.
    """

    dt: float
    t_final: float
    n_particles: int
    seed: int
    record_every: int = 1
    coupling: str = "full_empirical"

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.t_final <= 0.0:
            raise ValueError("t_final must be positive")
        if self.n_particles < 2:
            raise ValueError("need at least two particles")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")
        if self.coupling not in COUPLINGS:
            raise ValueError(f"coupling must be one of {COUPLINGS}")

    def n_steps(self) -> int:
        steps = self.t_final / self.dt
        rounded = round(steps)
        if abs(steps - rounded) > 1e-9 * max(1.0, abs(steps)):
            warnings.warn(
                f"t_final/dt = {steps} is not an integer; rounding to {rounded}",
                stacklevel=2,
            )
        return max(int(rounded), 1)


@dataclass
class TrajectoryRecord:
    times: np.ndarray
    snapshots: list[EnsembleState]

    def final(self) -> EnsembleState:
        return self.snapshots[-1]


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
            out[i] = fn(pts[i], coupling_measure(vi))
        except FloatingPointError as exc:
            raise FloatingPointError(f"{exc} (particle {i})") from exc
    return out


def _step_drift(f: DriftFunction, u: DriftFunction | None, pop: int) -> DriftFunction:
    """f + u as one drift; its pairwise kernel exists when both declare theirs.

    A zero f is skipped: adding it can change only the sign of a zero.
    """
    if u is not None and is_zero(f):
        return u

    def value(x, m):
        total = _check_finite(f.value(x, m), "drift f", f"step pop {pop}")
        return total if u is None else total + u.value(x, m)

    if u is None:
        return DriftFunction(value, f.pair_value)
    kf, ku = f.pair_value, u.pair_value
    pair = None if kf is None or ku is None else (lambda x, y: kf(x, y) + ku(x, y))
    return DriftFunction(value, pair)


def _particle_step(model: ModelSpec, dt: float, coupling: str, control, sizes):
    """The Euler-Maruyama step of one run, ``step(state, rng) -> state``.

    What does not change between steps is built once: read-only uniform
    weights for each population's ``sizes[pop]`` particles, and sigma sqrt(dt)
    of a declared-constant diffusion (finite by construction).
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if coupling not in COUPLINGS:
        raise ValueError(f"coupling must be one of {COUPLINGS}")
    sqrt_dt = np.sqrt(dt)
    weights = [_frozen(np.full(n, 1.0 / n)) for n in sizes]
    scales = [
        None if p.diffusion.diag is None else np.asarray(p.diffusion.diag) * sqrt_dt
        for p in model.populations
    ]

    def step(state: EnsembleState, rng) -> EnsembleState:
        views = tuple(EmpiricalMeasure(p, w, checked=True) for p, w in zip(state.positions, weights))
        noises = [rng.standard_normal(p.shape) for p in state.positions]
        new_positions = []
        for pop, pmod in enumerate(model.populations):
            pts = state.positions[pop]
            drift = _step_drift(pmod.drift, None if control is None else control(pop, state.t), pop)
            if coupling == "full_empirical":
                total = drift.value(pts, coupling_measure(views))
            else:
                total = _leave_one_out_eval(drift.value, drift.pair_value, pts, views, pop)
            scale = scales[pop]
            if scale is None:
                sig = pmod.diffusion.value(state.t, pts)
                scale = _check_finite(sig, "diffusion sigma", f"step pop {pop}") * sqrt_dt
            new = pts + total * dt + scale * noises[pop]
            if not np.isfinite(new).all():
                bad = int(np.argwhere(~np.isfinite(new).all(axis=1))[0, 0])
                raise FloatingPointError(f"non-finite update for pop {pop} particle {bad}")
            new_positions.append(_reflect(new, pmod.reflect_lower))
        return EnsembleState(
            positions=tuple(new_positions),
            t=state.t + dt,
            seed=state.seed,
            step_index=state.step_index + 1,
        )

    return step


def em_step(
    model: ModelSpec,
    state: EnsembleState,
    dt: float,
    rng,
    coupling: str = "full_empirical",
    control=None,
) -> EnsembleState:
    """One Euler-Maruyama step X += (f + u) dt + sigma(t, X) sqrt(dt) xi.

    ``control`` is ``None`` (u = 0) or ``control(pop, t)``, returning
    population pop's feedback u at time t as a :class:`DriftFunction`
    (``value(x, m)`` plus an optional pairwise kernel). f + u is evaluated
    against the full empirical measure, or per player against its
    leave-one-out measure. Noise is drawn in particle order, one block per
    population, before any update runs.
    """
    return _particle_step(model, dt, coupling, control, [p.shape[0] for p in state.positions])(state, rng)


def best_reply(model: ModelSpec, mpc: MpcConfig):
    """The finite-window best reply as an :func:`em_step` control.

    u = -mask * grad(h + g/T) / (alpha + dt * alpha_dot), with the pairwise
    kernel of u when both costs h and g declare theirs. Only the denominator
    depends on t; the kernels of mask * grad(h + g/T) are built once, and a
    declared-constant penalty gives one control for every t (alpha + dt * 0.0
    is alpha).
    """

    def kernel(p, mask):
        kh, kg = p.running_cost.pair_gradient, p.terminal_cost.pair_gradient
        if kh is None or kg is None:
            return None
        return lambda x, y: mask * (kh(x, y) + kg(x, y) / model.T)

    kernels = [kernel(model.population(pop), model.mask(pop)) for pop in range(model.n_populations)]

    def control_at(pop: int, t: float) -> DriftFunction:
        denom = penalty_denominator(model, pop, t, mpc)
        k = kernels[pop]
        return DriftFunction(
            lambda x, m: control_batch(model, pop, t, x, m, denom),
            None if k is None else (lambda x, y: -k(x, y) / denom),
        )

    fixed = [None if p.penalty.value is None else control_at(pop, 0.0) for pop, p in enumerate(model.populations)]
    return lambda pop, t: control_at(pop, t) if fixed[pop] is None else fixed[pop]


def initial_state(model: ModelSpec, cfg: SimConfig) -> EnsembleState:
    rng = default_rng(cfg.seed)
    positions = tuple(
        _reflect(
            model.population(p).initial_law.sample(rng, cfg.n_particles),
            model.population(p).reflect_lower,
        )
        for p in range(model.n_populations)
    )
    return EnsembleState(positions=positions, t=0.0, seed=cfg.seed)


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
    control = best_reply(model, mpc)
    state = initial_state(model, cfg)
    # noise generator is separate from the initial-condition draws but derived
    # from the same seed, so one integer pins the whole run
    rng = default_rng(SeedSequence(cfg.seed).spawn(1)[0])
    step = _particle_step(model, cfg.dt, cfg.coupling, control, [p.shape[0] for p in state.positions])
    n_steps = cfg.n_steps()
    times = [state.t]
    snaps = [state]
    for k in range(n_steps):
        state = step(state, rng)
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
    mpc: MpcConfig | None = None,
) -> list[ChaosRow]:
    """Terminal 1-Wasserstein gap between particle clouds and a PDE reference.

    ``reference`` is a density path (anything with ``times`` and a
    ``density(k, pop)`` accessor, e.g. the finite-volume solver's output) that
    must contain the simulation's final time on its own grid of record times.
    Returns one row per N with the mean and standard deviation over seeds.
    ``mpc`` is the best reply's window, as for :func:`simulate_brs_nplayer`.
    """
    if model.d != 1:
        raise ValueError("the W1 study metric is one-dimensional")
    n_list, seeds = list(n_list), list(seeds)
    if not n_list or not seeds:
        raise ValueError("the study needs at least one particle count and at least one seed")
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
            rec = simulate_brs_nplayer(model, cfg, mpc)
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
