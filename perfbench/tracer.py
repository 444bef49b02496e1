"""Spans around the public boundaries of each brsmfg layer, from outside the library.

Each boundary is a module attribute that callers look up at call time (a
module-global name), so replacing the attribute with a timing wrapper puts a
span around every call made through it. Spans nest on one stack; a span's
self time is its duration minus the durations of the spans it directly
contains. Totals are aggregated per span name as the calls happen, so the
cost stays constant per call however many calls a run makes.

A boundary whose module or attribute no longer exists is recorded as absent
instead of failing the run.
"""

from __future__ import annotations

import importlib
import inspect
from dataclasses import asdict, dataclass, field
from time import perf_counter

import numpy as np


def _rows(x, d: int) -> int:
    """Number of d-dimensional query points in ``x``."""
    return np.asarray(x).size // d


def _support_size(m) -> int:
    values = getattr(m, "values", None)
    if values is not None:
        return int(np.asarray(values).size)
    return int(getattr(m, "n", 0))


def _is_wealth_pairwise(model, pop) -> bool:
    grad = model.population(pop).running_cost.gradient
    return getattr(grad, "__qualname__", "").startswith("build_wealth_model.")


@dataclass
class SpanStats:
    total_s: float = 0.0
    self_s: float = 0.0
    calls: int = 0
    counts: dict = field(default_factory=dict)
    hook_errors: int = 0

    def add(self, key: str, amount) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount


class _Call:
    """Arguments of one call, looked up by parameter name."""

    __slots__ = ("index", "args", "kwargs")

    def __init__(self, index: dict[str, int], args: tuple, kwargs: dict):
        self.index, self.args, self.kwargs = index, args, kwargs

    def __getitem__(self, name: str):
        i = self.index[name]
        return self.args[i] if i < len(self.args) else self.kwargs[name]


def _count_fpk(stats, call, result):
    rep = result.report
    stats.add("steps", int(rep["n_steps"]))
    stats.counts["mass_drift_max"] = max(stats.counts.get("mass_drift_max", 0.0), rep["mass_drift_max"])
    stats.counts["min_density"] = min(stats.counts.get("min_density", np.inf), rep["min_density"])


def _count_points(stats, call, result):
    stats.add("points", _rows(call["x"], call["model"].d))


def _count_cost_grad(stats, call, result):
    model, pop, m = call["model"], call["pop"], call["m"]
    n = _rows(call["x"], model.d)
    stats.add("points", n)
    if _is_wealth_pairwise(model, pop):
        stats.add("pairwise_pairs", n * _support_size(m))


def _count_density_grad(stats, call, result):
    x = np.asarray(call["x"])
    stats.add("points", _rows(x, x.shape[-1]))


def _count_simulate(stats, call, result):
    model, cfg = call["model"], call["cfg"]
    stats.add("runs", 1)
    stats.add("particle_steps", cfg.n_particles * cfg.n_steps() * model.n_populations)


def _count_picard(stats, call, result):
    stats.add("iters", result.n_iterations)
    stats.counts["residual_last"] = float(result.residuals[-1])


def _count_rows(stats, index, args, kwargs):
    """Replace the ``rows`` iterable of ``write_csv`` by one that counts what it yields."""

    def counted(rows):
        for row in rows:
            stats.add("rows", 1)
            yield row

    i = index["rows"]
    if i < len(args):
        args = args[:i] + (counted(args[i]),) + args[i + 1 :]
    else:
        kwargs = dict(kwargs, rows=counted(kwargs["rows"]))
    return args, kwargs


# (span name, module, attribute, count hook run on the result, hook run on the arguments)
BOUNDARIES = (
    ("fokker_planck.solve", "brsmfg.cli", "solve_fpk", _count_fpk, None),
    ("fokker_planck.solve", "brsmfg.mfg", "solve_fpk", _count_fpk, None),
    ("model.brs_drift", "brsmfg.fokker_planck", "brs_drift", _count_points, None),
    ("model.cost_grad", "brsmfg.model", "cost_gradient_sum", _count_cost_grad, None),
    ("model.cost_grad", "brsmfg.brs", "cost_gradient_sum", _count_cost_grad, None),
    ("measures.density_grad", "brsmfg.applications", "density_gradient_at", _count_density_grad, None),
    ("measures.moments", "brsmfg.presets", "moments", None, None),
    ("measures.leave_one_out", "brsmfg.particle_sim", "leave_one_out", None, None),
    ("measures.w1", "brsmfg.mfg", "wasserstein_1d", None, None),
    ("measures.w1", "brsmfg.particle_sim", "wasserstein_1d", None, None),
    ("brs.control", "brsmfg.particle_sim", "control_batch", _count_points, None),
    ("particle_sim.simulate", "brsmfg.cli", "simulate_brs_nplayer", _count_simulate, None),
    ("particle_sim.simulate", "brsmfg.particle_sim", "simulate_brs_nplayer", _count_simulate, None),
    ("mfg.picard", "brsmfg.mfg", "solve_mfg_picard", _count_picard, None),
    ("mfg.hjb", "brsmfg.mfg", "hjb_backward", None, None),
    ("cli.write", "brsmfg.measures", "write_csv", None, _count_rows),
    ("cli.write", "brsmfg.cli", "write_csv", None, _count_rows),
    ("cli.write", "brsmfg.mfg", "write_csv", None, _count_rows),
)


class Tracer:
    """Installs the boundary wrappers and aggregates their spans until uninstalled."""

    def __init__(self):
        self.stats: dict[str, SpanStats] = {}
        self.absent: list[str] = []
        self._stack: list[float] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for name, module_name, attr, after, before in BOUNDARIES:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.absent.append(f"{module_name}.{attr}")
                continue
            self.stats.setdefault(name, SpanStats())
            setattr(module, attr, self._wrap(fn, self.stats[name], after, before))
            self._patched.append((module, attr, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def _wrap(self, fn, stats: SpanStats, after, before):
        stack = self._stack
        index = {name: i for i, name in enumerate(inspect.signature(fn).parameters)}

        def traced(*args, **kwargs):
            if before is not None:
                try:
                    args, kwargs = before(stats, index, args, kwargs)
                except (KeyError, IndexError):
                    stats.hook_errors += 1
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                inner = stack.pop()
                if stack:
                    stack[-1] += dur
                stats.total_s += dur
                stats.self_s += dur - inner
                stats.calls += 1
            if after is not None:
                try:
                    after(stats, _Call(index, args, kwargs), result)
                except (KeyError, AttributeError, TypeError, IndexError, ValueError):
                    # the boundary's signature or result changed: its counts are unreliable
                    stats.hook_errors += 1
            return result

        traced.__wrapped__ = fn
        return traced

    def snapshot(self) -> dict:
        """JSON-ready spans by name, plus the boundaries found absent."""
        spans = {name: asdict(s) for name, s in self.stats.items()}
        return {"spans": spans, "absent": list(self.absent)}
