"""Euler-Maruyama simulation of the N-player game and its mean-field limit.

The integrator is weak order 1 with a fixed step, matching the O(dt) accuracy
of the control derivation. The step is built once per run, or once per stack
of runs that share a particle count, and moves the positions in place;
coupling measures are rebuilt every step on its shared uniform weights. A
step's noise is the next values of its run's stream, one block per population
in particle order, taken before any update runs.

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
        col = positions[..., k]
        below = col < lo
        if np.any(below):
            positions[..., k] = np.where(below, 2.0 * lo - col, col)
    return positions


def _leave_one_out_eval(fn, pair, pts: np.ndarray, views, pop: int) -> np.ndarray:
    """``fn(x_i, m^{-i})`` for every particle i of population ``pop``, shape (..., N, d).

    ``m^{-i}`` replaces population ``pop``'s measure by the uniform measure on
    its other N - 1 particles; other populations keep their full measures.
    When ``fn(x, m)`` is the integral of a declared pairwise kernel
    ``pair(x, y)`` against m and there is one population, the exclusion is
    exact algebra on the full measure,
    ``fn(x_i, m^{-i}) = (N fn(x_i, m) - pair(x_i, x_i)) / (N - 1)``, so ``fn``
    runs once on all particles. Otherwise each particle is evaluated against
    its own leave-one-out measure, run by run when leading axes stack runs.
    """
    n = pts.shape[-2]
    # a single particle falls through to leave_one_out, which rejects it
    if pair is not None and len(views) == 1 and n > 1:
        full = fn(pts, views[0])
        diag = _check_finite(pair(pts, pts), "pairwise kernel", "self-interaction")
        return (n * full - diag) / (n - 1)
    out = np.empty_like(pts)
    for r in np.ndindex(pts.shape[:-2]):
        run = tuple(EmpiricalMeasure(v.points[r], v.weights, checked=True) for v in views)
        for i in range(n):
            vi = tuple(leave_one_out(v, i) if p == pop else v for p, v in enumerate(run))
            try:
                out[r + (i,)] = fn(pts[r + (i,)], coupling_measure(vi))
            except FloatingPointError as exc:
                raise FloatingPointError(f"{exc} (particle {i})") from exc
    return out


def _particle_step(model: ModelSpec, dt: float, coupling: str, n_particles: int):
    """The Euler-Maruyama step ``step(positions, t, noises)`` of one run or of a stack of runs.

    Each population's positions, shape (N, d) or (runs, N, d), move in place
    by X += b dt + sigma(t, X) sqrt(dt) xi. Every b and sigma is taken at
    time t before any population moves; b's own array then holds b dt and
    sigma sqrt(dt) xi in turn, so the update allocates no array of the
    positions' size. b = ``brs_drift(..., window=dt)``
    against the full empirical measure, or per player against its
    leave-one-out measure, through b's pairwise kernel
    kf - mask * (kh + kg/T) / (alpha + dt * alpha_dot) when f, h and g all
    declare theirs; a zero f or g and an all-ones mask are skipped, as in
    ``brs_drift``. Built once: one read-only uniform weight vector, the
    kernels, and sigma sqrt(dt) of a declared-constant diffusion. Errors of
    non-finite values name the population.
    """
    sqrt_dt = np.sqrt(dt)
    weights = _frozen(np.full(n_particles, 1.0 / n_particles))
    scales = [None if p.diffusion.diag is None else np.asarray(p.diffusion.diag) * sqrt_dt for p in model.populations]

    def kernel(pop, p):
        kf, kh, kg = p.drift.pair_value, p.running_cost.pair_gradient, p.terminal_cost.pair_gradient
        if kf is None or kh is None or kg is None:
            return None
        mask = None if p.control_mask is None else model.mask(pop)
        zero_f, zero_g = is_zero(p.drift), is_zero(p.terminal_cost)

        def pair(t, x, y):
            k = kh(x, y) if zero_g else kh(x, y) + kg(x, y) / model.T
            ku = (k if mask is None else mask * k) / p.penalty.at(t, dt)
            return -ku if zero_f else kf(x, y) - ku

        return pair

    kernels = [kernel(pop, p) for pop, p in enumerate(model.populations)]

    def step(positions, t: float, noises) -> None:
        views = tuple(EmpiricalMeasure(p, weights, checked=True) for p in positions)
        moves = []
        for pop, pmod in enumerate(model.populations):
            pts = positions[pop]
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
            # a fresh array of b, unless an ingredient's value broadcasts to the positions
            moves.append((total if total.shape == pts.shape else np.array(np.broadcast_to(total, pts.shape)), scale))
        for pop, (pts, (buf, scale), noise) in enumerate(zip(positions, moves, noises)):
            # the bits of pts + b * dt + scale * noise
            pts += np.multiply(buf, dt, out=buf)
            pts += np.multiply(scale, noise, out=buf)
            if not np.isfinite(pts).all():
                bad = int(np.argwhere(~np.isfinite(pts).all(axis=-1))[0, -1])
                raise FloatingPointError(f"non-finite update for pop {pop} particle {bad}")
            _reflect(pts, model.populations[pop].reflect_lower)

    return step


def initial_state(model: ModelSpec, cfg: SimConfig) -> EnsembleState:
    rng = default_rng(cfg.seed)
    positions = tuple(_reflect(p.initial_law.sample(rng, cfg.n_particles), p.reflect_lower) for p in model.populations)
    return EnsembleState(positions=positions, t=0.0, seed=cfg.seed)


def _noise_generator(seed: int):
    # apart from the initial-condition draws but from the same seed, which pins the run
    return default_rng(SeedSequence(seed).spawn(1)[0])


def simulate_brs_nplayer(model: ModelSpec, cfg: SimConfig) -> TrajectoryRecord:
    """Simulate the N-player game under the finite-window best reply.

    The MPC window is the time step, ``cfg.dt``, and must fit in the
    horizon. ``leave_one_out`` coupling uses each player's own exclusion
    measure (the N-player game); ``full_empirical`` uses the whole-cloud
    measure (the interacting-particle approximation of the mean-field
    dynamics). Snapshots are recorded every ``record_every`` steps plus the
    initial and final state. Each step draws its noise inline, one block
    per population in population order.
    """
    model.check_window(cfg.dt)
    state = initial_state(model, cfg)
    positions = tuple(p.copy() for p in state.positions)
    step = _particle_step(model, cfg.dt, cfg.coupling, cfg.n_particles)
    rng, n_steps, t = _noise_generator(cfg.seed), cfg.n_steps(), state.t
    times, snaps = [t], [state]
    for k in range(n_steps):
        step(positions, t, [rng.standard_normal(p.shape) for p in positions])
        t += cfg.dt
        if (k + 1) % cfg.record_every == 0 or k == n_steps - 1:
            times.append(t)
            snaps.append(EnsembleState(tuple(p.copy() for p in positions), t, cfg.seed))
    return TrajectoryRecord(times=np.asarray(times), snapshots=snaps)


# a block holds at most _BLOCK values (128 KiB) over the seeds of a group. Seeds
# step together in groups of at most _GROUP values a step, so no array a step
# allocates passes 128 KiB, from where glibc may map it afresh on every call:
# on a 2-core host, 8 seeds x 4000 particles in one stack then took 270-430 us
# a step, against 140-220 us for two stacks of 4
_BLOCK = 1 << 14
_GROUP = 1 << 14
_RING = 3


class _NoiseStream:
    """The noise streams of a group of seeds, drawn ahead on one thread.

    Row s of the stream is ``gens[s]``'s sequence of ``total`` standard
    normals. The thread fills a ring of blocks of (seeds x ``_BLOCK //
    seeds`` values) with ``standard_normal(out=...)`` (numpy draws without
    the GIL), so every value is the one sequential draws give. ``window``
    holds the stream's columns from ``start`` on, in the calling thread's
    own buffer; ``advance(keep)`` drops the columns before ``keep``, carries
    the rest (fewer than ``carry``) to the front, appends the next block and
    hands the block back to the thread. Views into the window are valid
    until the next ``advance``. Leaving the ``with`` block stops and joins
    the thread and frees the buffers; the thread's errors are raised in the
    caller.
    """

    def __init__(self, gens, total: int, carry: int):
        # imported here: only the study needs it, and other runs' start-up should not pay for it
        from queue import SimpleQueue

        self._gens, self._total = gens, total
        self._width = max(1, _BLOCK // len(gens))
        self._ring = [np.empty((len(gens), self._width)) for _ in range(_RING)]
        self._buffer = np.empty((len(gens), carry + self._width))
        self._free, self._full = SimpleQueue(), SimpleQueue()
        for i in range(_RING):
            self._free.put(i)
        self.start, self.window = 0, self._buffer[:, :0]
        self._thread = threading.Thread(target=self._produce, daemon=True)

    def _produce(self):
        try:
            for first in range(0, self._total, self._width):
                i = self._free.get()
                if i is None:
                    return
                n = min(self._width, self._total - first)
                for gen, row in zip(self._gens, self._ring[i]):
                    gen.standard_normal(out=row[:n])
                self._full.put((i, n))
            raise IndexError("the noise of every seed has been taken")
        except BaseException as exc:
            # the caller raises it; anything not handed over would leave it waiting
            self._full.put(exc)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc_info):
        self._free.put(None)
        self._thread.join()
        self._ring = self._buffer = self.window = None

    def advance(self, keep: int) -> None:
        item = self._full.get()
        if isinstance(item, BaseException):
            raise item
        i, n = item
        lo = keep - self.start
        tail = self.window.shape[1] - lo
        if lo:
            self._buffer[:, :tail] = self.window[:, lo:]
        self._buffer[:, tail : tail + n] = self._ring[i][:, :n]
        self._free.put(i)
        self.start, self.window = keep, self._buffer[:, : tail + n]


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
    The model has one population in one dimension. Each run is
    :func:`simulate_brs_nplayer`'s, bit for bit, whose window is the time
    step, and must end at ``t_final``: a step count that rounds is rejected.
    A run's noise is its seed's stream whatever N is, so each seed's stream
    is drawn once, ahead on one thread, for the largest N, and every N reads
    a prefix of it. The seeds of one N step as one stack of runs, in groups
    of at most ``_GROUP`` values a step, so the ingredients must broadcast
    over a leading run axis of x and of the measure's points. Returns one
    row per N with the mean and standard deviation over seeds.
    """
    if model.d != 1:
        raise ValueError("the W1 study metric is one-dimensional")
    if model.n_populations != 1:
        raise ValueError(f"the W1 study metric takes one population, the model has {model.n_populations}")
    n_list, seeds = [int(n) for n in n_list], [int(s) for s in seeds]
    if not n_list or not seeds:
        raise ValueError("the study needs at least one particle count and at least one seed")
    idx = np.nonzero(np.abs(np.asarray(reference.times) - cfg_base.t_final) <= 1e-9)[0]
    if idx.size == 0:
        raise ValueError(
            f"mismatched time grids: reference has no snapshot at t={cfg_base.t_final}"
        )
    ref_density: GridDensity = reference.density(int(idx[0]), 0)
    model.check_window(cfg_base.dt)
    n_steps, n_max = cfg_base.n_steps(exact=True), max(n_list)
    size = max(1, _GROUP // n_max)
    w1 = np.empty((len(n_list), len(seeds)))
    for first in range(0, len(seeds), size):
        group = seeds[first : first + size]
        runs = [[replace(cfg_base, n_particles=n, seed=s) for s in group] for n in n_list]
        xs = [np.stack([initial_state(model, c).positions[0] for c in cfgs]) for cfgs in runs]
        steps = [_particle_step(model, cfg_base.dt, cfg_base.coupling, n) for n in n_list]
        taken, times = [0] * len(n_list), [0.0] * len(n_list)
        with _NoiseStream([_noise_generator(s) for s in group], n_steps * n_max, n_max) as noise:
            while True:
                for k, (x, n) in enumerate(zip(xs, n_list)):
                    # one step takes the next n values of every seed's stream
                    while taken[k] < n_steps and (taken[k] + 1) * n <= noise.start + noise.window.shape[1]:
                        lo = taken[k] * n - noise.start
                        steps[k]((x,), times[k], [noise.window[:, lo : lo + n, None]])
                        taken[k] += 1
                        times[k] += cfg_base.dt
                waiting = [j * n for j, n in zip(taken, n_list) if j < n_steps]
                if not waiting:
                    break
                noise.advance(min(waiting))
        for k, x in enumerate(xs):
            w1[k, first : first + len(group)] = [wasserstein_1d(EmpiricalMeasure(run), ref_density, p=1) for run in x]
    rows = []
    for n, vals in zip(n_list, w1):
        std = float(vals.std(ddof=1)) if vals.size > 1 else 0.0
        rows.append(ChaosRow(n_particles=n, mean_w1=float(vals.mean()), std_w1=std, values=vals))
    return rows
