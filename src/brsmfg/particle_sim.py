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

import math
import threading
import warnings
from dataclasses import dataclass, replace

import numpy as np
# imported here, with the package: numpy loads numpy.random lazily, and the
# first generator of a solve would otherwise pay for it
from numpy.random import SeedSequence, default_rng

from .measures import EmpiricalMeasure, GridDensity, _frozen, leave_one_out, wasserstein_1d
from .model import ModelSpec, _check_finite, brs_drift, coupling_measure, is_zero

__all__ = [
    "EnsembleState",
    "SimConfig",
    "TrajectoryRecord",
    "ChaosRow",
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
        if not 0.0 < self.t_final < math.inf:
            raise ValueError(f"t_final must be positive and finite, got {self.t_final!r}")
        if self.n_particles < 2:
            raise ValueError("need at least two particles")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")
        if self.coupling not in COUPLINGS:
            raise ValueError(f"coupling must be one of {COUPLINGS}")

    def n_steps(self, exact: bool = False) -> int:
        """t_final/dt rounded, at least 1; warns if it rounds, or with ``exact`` raises."""
        steps = self.t_final / self.dt
        rounded = round(steps)
        n = max(int(rounded), 1)
        if abs(steps - rounded) > 1e-9 * max(1.0, abs(steps)):
            if exact:
                raise ValueError(f"t_final/dt = {steps} is not an integer: {n} steps end at t={n * self.dt}")
            warnings.warn(f"t_final/dt = {steps} is not an integer; rounding to {rounded}", stacklevel=2)
        return n


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
        diag = _check_finite(pair(pts, pts), "pairwise kernel", "self-interaction")
        return (n * full - diag) / (n - 1)
    out = np.empty_like(pts)
    for i in range(n):
        vi = tuple(leave_one_out(v, i) if p == pop else v for p, v in enumerate(views))
        try:
            out[i] = fn(pts[i], coupling_measure(vi))
        except FloatingPointError as exc:
            raise FloatingPointError(f"{exc} (particle {i})") from exc
    return out


def _particle_step(model: ModelSpec, dt: float, coupling: str, n_particles: int):
    """The Euler-Maruyama step of one run, ``step(state, rng) -> state``.

    X += b dt + sigma(t, X) sqrt(dt) xi, with b = ``brs_drift(..., window=dt)``
    against the full empirical measure, or per player against its
    leave-one-out measure, through b's pairwise kernel
    kf - mask * (kh + kg/T) / (alpha + dt * alpha_dot) when f, h and g all
    declare theirs. Built once: one read-only uniform weight vector for
    ``n_particles`` particles, the kernels, and sigma sqrt(dt) of a
    declared-constant diffusion. Errors of non-finite values name the population.
    """
    sqrt_dt = np.sqrt(dt)
    weights = _frozen(np.full(n_particles, 1.0 / n_particles))
    scales = [None if p.diffusion.diag is None else np.asarray(p.diffusion.diag) * sqrt_dt for p in model.populations]

    def kernel(pop, p):
        kf, kh, kg = p.drift.pair_value, p.running_cost.pair_gradient, p.terminal_cost.pair_gradient
        if kf is None or kh is None or kg is None:
            return None
        mask, zero_f = model.mask(pop), is_zero(p.drift)

        def pair(t, x, y):  # a zero f is skipped, as in brs_drift
            ku = mask * (kh(x, y) + kg(x, y) / model.T) / p.penalty.at(t, dt)
            return -ku if zero_f else kf(x, y) - ku

        return pair

    kernels = [kernel(pop, p) for pop, p in enumerate(model.populations)]

    def step(state: EnsembleState, rng) -> EnsembleState:
        t = state.t
        views = tuple(EmpiricalMeasure(p, weights, checked=True) for p in state.positions)
        noises = [rng.standard_normal(p.shape) for p in state.positions]
        new_positions = []
        for pop, pmod in enumerate(model.populations):
            pts = state.positions[pop]
            try:
                if coupling == "full_empirical":
                    total = brs_drift(model, pop, t, pts, coupling_measure(views), dt)
                else:
                    k = kernels[pop]
                    pair = None if k is None else lambda x, y: k(t, x, y)
                    total = _leave_one_out_eval(lambda x, m: brs_drift(model, pop, t, x, m, dt), pair, pts, views, pop)
            except FloatingPointError as exc:
                raise FloatingPointError(f"{exc} in step pop {pop}") from exc
            scale = scales[pop]
            if scale is None:
                sig = pmod.diffusion.value(t, pts)
                scale = _check_finite(sig, "diffusion sigma", f"step pop {pop}") * sqrt_dt
            new = pts + total * dt + scale * noises[pop]
            if not np.isfinite(new).all():
                bad = int(np.argwhere(~np.isfinite(new).all(axis=1))[0, 0])
                raise FloatingPointError(f"non-finite update for pop {pop} particle {bad}")
            new_positions.append(_reflect(new, pmod.reflect_lower))
        return EnsembleState(positions=tuple(new_positions), t=t + dt, seed=state.seed)

    return step


def initial_state(model: ModelSpec, cfg: SimConfig) -> EnsembleState:
    rng = default_rng(cfg.seed)
    positions = tuple(_reflect(p.initial_law.sample(rng, cfg.n_particles), p.reflect_lower) for p in model.populations)
    return EnsembleState(positions=positions, t=0.0, seed=cfg.seed)


def _noise_generator(seed: int):
    # apart from the initial-condition draws but from the same seed, which pins the run
    return default_rng(SeedSequence(seed).spawn(1)[0])


def _run(model: ModelSpec, cfg: SimConfig, noise) -> TrajectoryRecord:
    """One run whose steps draw from ``noise.standard_normal(shape)``."""
    state = initial_state(model, cfg)
    step = _particle_step(model, cfg.dt, cfg.coupling, cfg.n_particles)
    n_steps = cfg.n_steps()
    times = [state.t]
    snaps = [state]
    for k in range(n_steps):
        state = step(state, noise)
        if (k + 1) % cfg.record_every == 0 or k == n_steps - 1:
            times.append(state.t)
            snaps.append(state)
    return TrajectoryRecord(times=np.asarray(times), snapshots=snaps)


def simulate_brs_nplayer(model: ModelSpec, cfg: SimConfig) -> TrajectoryRecord:
    """Simulate the N-player game under the finite-window best reply.

    The MPC window is the time step, ``cfg.dt``, and must fit in the
    horizon. ``leave_one_out`` coupling uses each player's own exclusion
    measure (the N-player game); ``full_empirical`` uses the whole-cloud
    measure (the interacting-particle approximation of the mean-field
    dynamics). Snapshots are recorded every ``record_every`` steps plus the
    initial and final state.
    """
    model.check_window(cfg.dt)
    return _run(model, cfg, _noise_generator(cfg.seed))


# a block holds whole steps, at most _BLOCK values (128 KiB) or else one step
_BLOCK = 1 << 14
_RING = 3


class _NoiseStream:
    """``standard_normal(shape)`` for a sequence of runs, drawn ahead on one thread.

    ``runs`` lists (generator, step count, values per step) in run order. The
    thread fills blocks of whole steps from each generator in turn (numpy
    draws without the GIL), so every value is the one sequential calls give.
    A returned view into the ring is valid until the next step's first draw.
    Leaving the ``with`` block stops and joins the thread; its errors are
    raised in the caller.
    """

    def __init__(self, runs):
        # imported here: only the study needs it, and other runs' start-up should not pay for it
        from queue import SimpleQueue

        self._runs = [(rng, n_steps, per_step, max(1, _BLOCK // per_step)) for rng, n_steps, per_step in runs]
        self._ring = [np.empty(max(p * b for _, _, p, b in self._runs)) for _ in range(_RING)]
        self._free, self._full = SimpleQueue(), SimpleQueue()
        for i in range(_RING):
            self._free.put(i)
        self._held, self._block, self._pos = None, self._ring[0][:0], 0
        self._thread = threading.Thread(target=self._produce, daemon=True)

    def _produce(self):
        try:
            for rng, n_steps, per_step, per_block in self._runs:
                for first in range(0, n_steps, per_block):
                    i = self._free.get()
                    if i is None:
                        return
                    n = min(per_block, n_steps - first) * per_step
                    rng.standard_normal(out=self._ring[i][:n])
                    self._full.put((i, n))
            raise IndexError("the noise of every run has been taken")
        except BaseException as exc:
            # the caller raises it; anything not handed over would leave it waiting
            self._full.put(exc)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc_info):
        self._free.put(None)
        self._thread.join()

    def standard_normal(self, shape):
        if self._pos == self._block.size:
            # the step that took the held block's last values has read them by now
            if self._held is not None:
                self._free.put(self._held)
            item = self._full.get()
            if isinstance(item, BaseException):
                raise item
            self._held, n = item
            self._block, self._pos = self._ring[self._held][:n], 0
        start = self._pos
        self._pos += math.prod(shape)
        return self._block[start : self._pos].reshape(shape)


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
    Each run is :func:`simulate_brs_nplayer`'s, whose window is the time step,
    and must end at ``t_final``: a step count that rounds is rejected. The
    runs' noise is drawn ahead on one thread, with the same bits. Returns one
    row per N with the mean and standard deviation over seeds.
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
    model.check_window(cfg_base.dt)
    n_steps = cfg_base.n_steps(exact=True)
    runs = [replace(cfg_base, n_particles=int(n), seed=int(seed)) for n in n_list for seed in seeds]
    noise = _NoiseStream([(_noise_generator(c.seed), n_steps, c.n_particles * model.n_populations) for c in runs])
    with noise:
        w1 = [wasserstein_1d(_run(model, c, noise).final().empirical(0), ref_density, p=1) for c in runs]
    rows = []
    for k, n in enumerate(n_list):
        vals = np.asarray(w1[k * len(seeds) : (k + 1) * len(seeds)])
        std = float(vals.std(ddof=1)) if vals.size > 1 else 0.0
        rows.append(ChaosRow(n_particles=int(n), mean_w1=float(vals.mean()), std_w1=std, values=vals))
    return rows
