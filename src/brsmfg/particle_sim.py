"""Euler-Maruyama simulation of the N-player game and its mean-field limit.

The integrator is weak order 1 with a fixed step, matching the O(dt) accuracy
of the control derivation. The step is built once per run, or once per stack
of runs that share a particle count, and moves the positions in place;
coupling measures are rebuilt every step on its shared uniform weights. A
step's noise is the next values of its run's stream, one block per population
in particle order, taken before any update runs.

The leave-one-out coupling evaluates the best-reply drift against every
player's own exclusion measure. When a one-population model declares f, h
and g linear in m, that is exact algebra on two evaluations a step, one
against the full measure and one against each player's own point; other
models are evaluated player by player.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, replace

import numpy as np
# imported here, with the package: numpy loads numpy.random lazily, and the
# first generator of a solve would otherwise pay for it
from numpy.random import SeedSequence, default_rng

from .measures import EmpiricalMeasure, GridDensity, _frozen, leave_one_out, wasserstein_1d
from .model import ModelSpec, _check_finite, brs_drift, coupling_measure

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
        if not 0.0 < self.dt < math.inf:
            raise ValueError(f"dt must be positive and finite, got {self.dt!r}")
        if not 0.0 < self.t_final < math.inf:
            raise ValueError(f"t_final must be positive and finite, got {self.t_final!r}")
        if self.n_particles < 2:
            raise ValueError(f"n_particles must be >= 2 (need at least two particles), got {self.n_particles}")
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")
        if self.coupling not in COUPLINGS:
            raise ValueError(f"coupling must be one of {COUPLINGS}")

    def n_steps(self) -> int:
        """t_final/dt, at least 1; a ratio that is not an integer within 1e-9 raises."""
        steps = self.t_final / self.dt
        n = max(round(steps), 1)
        if abs(steps - n) > 1e-9 * max(1.0, steps):
            raise ValueError(f"t_final/dt = {steps} is not an integer: {n} steps end at t={n * self.dt}")
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


# the weight of a one-point measure
_ONE = _frozen(np.ones(1))


def _leave_one_out_eval(fn, linear: bool, pts: np.ndarray, views, pop: int) -> np.ndarray:
    """``fn(x_i, m^{-i})`` for every particle i of population ``pop``, shape (..., N, d).

    ``m^{-i}`` replaces population ``pop``'s measure by the uniform measure on
    its other N - 1 particles; other populations keep their full measures.
    When ``fn`` is ``linear`` in m and there is one population, the exclusion
    is exact algebra, ``fn(x_i, m^{-i}) = (N fn(x_i, m) - fn(x_i, delta_{x_i})) / (N - 1)``:
    ``fn`` runs once on all particles against the full measure and once on
    the one-point measures delta_{x_i}, stacked as runs of one particle, and
    must return a fresh array of its points' shape. Otherwise each particle
    is evaluated against its own leave-one-out measure, run by run when
    leading axes stack runs.
    """
    n = pts.shape[-2]
    # a single particle falls through to leave_one_out, which rejects it
    if linear and len(views) == 1 and n > 1:
        own = pts.reshape(-1, 1, pts.shape[-1])
        full = fn(pts, views[0])
        diag = fn(own, EmpiricalMeasure(own, _ONE, checked=True))
        # the bits of (n * full - diag) / (n - 1), in the fresh array fn returned
        full *= n
        full -= diag.reshape(pts.shape)
        full /= n - 1
        return full
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
    positions' size. b = ``brs_drift(..., window=dt)`` against the full
    empirical measure, or per player against its leave-one-out measure
    (``_leave_one_out_eval``). Built once: one read-only uniform weight
    vector, whether each population's f, h and g are all linear in m, and
    sigma sqrt(dt) of a declared-constant diffusion. Errors of non-finite
    values name the population.
    """
    sqrt_dt = np.sqrt(dt)
    weights = _frozen(np.full(n_particles, 1.0 / n_particles))
    scales = [None if p.diffusion.diag is None else np.asarray(p.diffusion.diag) * sqrt_dt for p in model.populations]
    linear = [p.drift.linear and p.running_cost.linear and p.terminal_cost.linear for p in model.populations]

    def step(positions, t: float, noises) -> None:
        views = tuple(EmpiricalMeasure(p, weights, checked=True) for p in positions)
        moves = []
        for pop, pmod in enumerate(model.populations):
            pts = positions[pop]
            try:
                if coupling == "full_empirical":
                    total = brs_drift(model, pop, t, pts, coupling_measure(views), dt)
                else:
                    total = _leave_one_out_eval(lambda x, m: brs_drift(model, pop, t, x, m, dt), linear[pop], pts, views, pop)
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


# a stack of seeds steps at most _GROUP values a step, so no array a step
# allocates passes 128 KiB, from where glibc may map it afresh on every call:
# on a 2-core host, 8 seeds x 4000 particles in one stack then took 270-430 us
# a step, against 140-220 us for two stacks of 4. A stream serves at most
# _SEEDS seeds on one thread, drawing at least _DRAW values a seed per call;
# the caller holds one or two of its _RING slots. In process on that host, the
# benchmark's study took 0.66 s (median of 12), 0.70 s with 4096-value calls
# and 0.93-1.13 s with 2 slots
_GROUP = 1 << 14
_SEEDS = 8
_DRAW = 1 << 13
_RING = 3


class _NoiseStream:
    """The noise streams of a group of seeds, drawn ahead on one thread.

    Row s of the stream is ``gens[s]``'s sequence of ``total`` standard
    normals. The thread draws ``width`` columns at a time into a ring of
    (seeds x ``width``) slots with ``standard_normal(out=...)`` (numpy draws
    without the GIL), so every value is the one sequential draws give.
    ``take(rows, lo, n)`` gives columns [lo, lo + n) of ``rows``, of the
    ``end`` columns received: a view into their slot or, where they straddle
    two slots (n <= ``width``), a copy in one buffer of ``scratch`` values,
    valid until the next ``take`` or ``advance``. ``advance(keep)`` hands each
    slot wholly before column ``keep`` back to the thread and waits for the
    next. Leaving the ``with`` block stops and joins the thread and frees the
    buffers; the thread's errors are raised in the caller.
    """

    def __init__(self, gens, total: int, width: int, scratch: int):
        # imported here: only the study needs it, and other runs' start-up should not pay for it
        from queue import SimpleQueue

        self._gens, self._total, self._width = gens, total, width
        self._ring = [np.empty((len(gens), width)) for _ in range(_RING)]
        self._scratch = np.empty(scratch)
        self._free, self._full = SimpleQueue(), SimpleQueue()
        for i in range(_RING):
            self._free.put(i)
        # the ring slot of each chunk of columns the caller holds
        self.end, self._held = 0, {}
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
        self._ring = self._scratch = self._held = None

    def take(self, rows: slice, lo: int, n: int) -> np.ndarray:
        chunk, lo = divmod(lo, self._width)
        first = self._ring[self._held[chunk]][rows]
        if lo + n <= self._width:
            return first[:, lo : lo + n]
        out = self._scratch[: first.shape[0] * n].reshape(-1, n)
        head = self._width - lo
        out[:, :head] = first[:, lo:]
        out[:, head:] = self._ring[self._held[chunk + 1]][rows, : n - head]
        return out

    def advance(self, keep: int) -> None:
        for chunk in [c for c in self._held if (c + 1) * self._width <= keep]:
            self._free.put(self._held.pop(chunk))
        item = self._full.get()
        if isinstance(item, BaseException):
            raise item
        i, n = item
        self._held[self.end // self._width] = i
        self.end += n


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
    is drawn once, ahead, for the largest N, and every N reads a prefix of
    it; up to ``_SEEDS`` seeds share one stream and its thread. Each N steps
    a stream's seeds in stacks of at most ``_GROUP // N`` runs (at least
    one), so the ingredients must broadcast over a leading run axis of x and
    of the measure's points. Returns one row per N with the mean and
    standard deviation over seeds.
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
    n_steps, n_max = cfg_base.n_steps(), max(n_list)
    steps = [_particle_step(model, cfg_base.dt, cfg_base.coupling, n) for n in n_list]
    w1 = np.empty((len(n_list), len(seeds)))
    for first in range(0, len(seeds), _SEEDS):
        group = seeds[first : first + _SEEDS]
        # (index of N, N, rows of the group, positions): each N steps at most _GROUP // N seeds a stack
        stacks = []
        for k, n in enumerate(n_list):
            size = max(1, _GROUP // n)
            for lo in range(0, len(group), size):
                cfgs = [replace(cfg_base, n_particles=n, seed=s) for s in group[lo : lo + size]]
                stacks.append((k, n, slice(lo, lo + size), np.stack([initial_state(model, c).positions[0] for c in cfgs])))
        taken, times = [0] * len(stacks), [0.0] * len(stacks)
        gens = [_noise_generator(s) for s in group]
        with _NoiseStream(gens, n_steps * n_max, max(_DRAW, n_max), max(x.size for *_, x in stacks)) as noise:
            while True:
                for j, (k, n, rows, x) in enumerate(stacks):
                    # one step takes the next n values of each of the stack's streams
                    while taken[j] < n_steps and (taken[j] + 1) * n <= noise.end:
                        steps[k]((x,), times[j], [noise.take(rows, taken[j] * n, n)[..., None]])
                        taken[j] += 1
                        times[j] += cfg_base.dt
                waiting = [i * n for i, (_, n, _, _) in zip(taken, stacks) if i < n_steps]
                if not waiting:
                    break
                noise.advance(min(waiting))
        for k, _, rows, x in stacks:
            w1[k, first : first + len(group)][rows] = [wasserstein_1d(EmpiricalMeasure(run), ref_density, p=1) for run in x]
    rows = []
    for n, vals in zip(n_list, w1):
        std = float(vals.std(ddof=1)) if vals.size > 1 else 0.0
        rows.append(ChaosRow(n_particles=n, mean_w1=float(vals.mean()), std_w1=std, values=vals))
    return rows
