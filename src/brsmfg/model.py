"""Game ingredients as first-class values: drift, costs, penalty, diffusion.

All stored callables follow a batched evaluation contract: the state argument
``x`` has shape ``(..., d)`` and functions vectorize over the leading axes
(costs return ``(...,)``, gradients and drifts ``(..., d)``, diffusions the
``(..., d)`` diagonal entries). Gradients are supplied analytically; finite
differences appear only in test oracles. The measure argument is a single
``MeasureView`` for one-population models and a tuple of per-population views
otherwise.

Everything here is immutable after construction and safe to share across
threads; stored callables must be pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .measures import Grid, GridDensity

__all__ = [
    "ControlPenalty",
    "CostFunction",
    "DriftFunction",
    "DiffusionFunction",
    "InitialLaw",
    "GaussianMarginal",
    "LognormalMarginal",
    "product_law",
    "PopulationModel",
    "ModelSpec",
    "brs_drift",
    "face_velocity",
    "cost_gradient_sum",
    "coupling_measure",
    "is_zero",
]


@dataclass(frozen=True)
class ControlPenalty:
    """Time-dependent quadratic control penalty alpha(t) > 0 and its derivative."""

    alpha: Callable[[float], float]
    alpha_dot: Callable[[float], float]
    # alpha's value when declared constant in t (``ControlPenalty.constant``), else None
    value: float | None = None

    def __post_init__(self):
        if self.value is not None and not (math.isfinite(self.value) and self.value > 0):
            raise ValueError(f"penalty must be positive and finite, got {self.value!r}")

    @staticmethod
    def constant(value: float) -> "ControlPenalty":
        return ControlPenalty(alpha=lambda t: value, alpha_dot=lambda t: 0.0, value=value)

    def at(self, t: float, window: float = 0.0) -> float:
        """alpha(t) + window * alpha_dot(t): a declared value as it is, a closure's checked positive and finite."""
        if self.value is not None:
            return self.value
        a = self.alpha(t) + window * self.alpha_dot(t) if window else self.alpha(t)
        if not np.isfinite(a) or a <= 0:
            name = f"alpha({t}) + {window} * alpha_dot({t})" if window else f"alpha({t})"
            raise FloatingPointError(f"{name} = {a} is not a positive finite number")
        return a


def _zero_kernel(x, y) -> np.ndarray:
    return np.zeros(np.broadcast_shapes(np.shape(x), np.shape(y)))


@dataclass(frozen=True)
class CostFunction:
    """Scalar cost (x, m) -> R with an analytic spatial gradient.

    ``pair_gradient`` optionally declares the gradient's pairwise kernel k,
    gradient(x, m) = integral of k(x, y) m(dy), broadcasting over the leading
    axes of x and y; ``None`` when the gradient is not of that form.

    ``bind(points, axes)``, optional, returns m -> ``gradient(points, m)[..., axes]``
    bit for bit, doing the work that depends only on the points once.
    """

    value: Callable
    gradient: Callable
    pair_gradient: Callable | None = None
    bind: Callable | None = None

    @staticmethod
    def zero(d: int) -> "CostFunction":
        return CostFunction(
            value=lambda x, m: np.zeros(np.shape(x)[:-1]),
            gradient=lambda x, m: np.zeros(np.shape(x)),
            pair_gradient=_zero_kernel,
        )


@dataclass(frozen=True)
class DriftFunction:
    """Vector field (x, m) -> R^d.

    ``pair_value`` optionally declares the pairwise kernel k with
    value(x, m) = integral of k(x, y) m(dy), as for ``CostFunction``.
    """

    value: Callable
    pair_value: Callable | None = None

    @staticmethod
    def zero(d: int) -> "DriftFunction":
        return DriftFunction(value=lambda x, m: np.zeros(np.shape(x)), pair_value=_zero_kernel)


@dataclass(frozen=True)
class DiffusionFunction:
    """Diagonal diffusion (t, x) -> nonnegative diagonal entries, shape (..., d)."""

    value: Callable
    # the diagonal when declared constant in t and x (``DiffusionFunction.constant``), else None
    diag: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.diag is not None and not all(math.isfinite(s) and s >= 0 for s in self.diag):
            raise ValueError(f"diffusion entries must be finite and nonnegative, got {self.diag!r}")

    @staticmethod
    def constant(diag) -> "DiffusionFunction":
        diag = np.atleast_1d(np.asarray(diag, dtype=float))
        return DiffusionFunction(lambda t, x: np.full(np.shape(x), diag, dtype=float), tuple(diag.tolist()))


def is_zero(fn: CostFunction | DriftFunction) -> bool:
    """Whether the ingredient is declared identically zero (``CostFunction.zero``, ``DriftFunction.zero``)."""
    kernel = fn.pair_value if isinstance(fn, DriftFunction) else fn.pair_gradient
    return kernel is _zero_kernel


# ---------------------------------------------------------------------------
# Initial laws
# ---------------------------------------------------------------------------

# elementwise erf from the C library; importing scipy.special for it alone
# would cost most of the package's import time
_erf = np.vectorize(math.erf, otypes=[float])


def _check_width(name: str, value: float) -> None:
    if not 0.0 <= value < math.inf:
        raise ValueError(f"{name} must be nonnegative and finite, got {value!r}")


@dataclass(frozen=True)
class GaussianMarginal:
    mean: float
    std: float

    def __post_init__(self):
        _check_width("std", self.std)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self.mean + self.std * rng.standard_normal(n)

    def cdf(self, x: np.ndarray) -> np.ndarray:
        return 0.5 * (1.0 + _erf((np.asarray(x) - self.mean) / (self.std * np.sqrt(2.0))))


@dataclass(frozen=True)
class LognormalMarginal:
    mu: float
    sigma: float

    def __post_init__(self):
        _check_width("sigma", self.sigma)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.lognormal(self.mu, self.sigma, size=n)

    def cdf(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        pos = x > 0
        out[pos] = 0.5 * (1.0 + _erf((np.log(x[pos]) - self.mu) / (self.sigma * np.sqrt(2.0))))
        return out


@dataclass(frozen=True)
class InitialLaw:
    """Sampler plus exact cell-average projector for the initial distribution."""

    sample: Callable[[np.random.Generator, int], np.ndarray]
    grid_projection: Callable[[Grid], np.ndarray]

    def grid_density(self, grid: Grid) -> GridDensity:
        return GridDensity(grid, self.grid_projection(grid))


def product_law(marginals: Sequence) -> InitialLaw:
    """Independent product of 1-d marginals (each with .sample and .cdf).

    The grid projection integrates the product density cell by cell via the
    marginal CDFs and renormalizes over the box, so total mass is exactly 1.
    """
    marginals = list(marginals)
    d = len(marginals)

    def sample(rng: np.random.Generator, n: int) -> np.ndarray:
        cols = [m.sample(rng, n) for m in marginals]
        return np.stack(cols, axis=1)

    def projection(grid: Grid) -> np.ndarray:
        if grid.dim != d:
            raise ValueError(f"grid dimension {grid.dim} != law dimension {d}")
        per_axis = []
        for k, m in enumerate(marginals):
            cm = np.diff(m.cdf(grid.edges(k)))
            per_axis.append(cm)
        vals = per_axis[0]
        for cm in per_axis[1:]:
            vals = np.multiply.outer(vals, cm)
        total = vals.sum() * 1.0
        if total <= 0:
            raise ValueError("initial law has no mass inside the grid box")
        return vals / (total * grid.cell_volume)

    return InitialLaw(sample=sample, grid_projection=projection)


# ---------------------------------------------------------------------------
# Model specification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PopulationModel:
    """One population's ingredients: drift f, costs h and g, penalty, diffusion."""

    drift: DriftFunction
    running_cost: CostFunction
    terminal_cost: CostFunction
    penalty: ControlPenalty
    diffusion: DiffusionFunction
    initial_law: InitialLaw
    # which state axes the control acts on (1.0 = controlled); None = all
    control_mask: tuple[float, ...] | None = None
    # per-axis reflection floors for particle simulations; None entries are free
    reflect_lower: tuple[float | None, ...] | None = None


@dataclass(frozen=True)
class ModelSpec:
    """Immutable bundle describing the stochastic differential game."""

    d: int
    T: float
    populations: tuple[PopulationModel, ...]
    _masks: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("state dimension must be >= 1")
        if not 0.0 < self.T < math.inf:
            raise ValueError(f"horizon must be positive and finite, got {self.T!r}")
        if len(self.populations) < 1:
            raise ValueError("need at least one population")
        masks = tuple(
            np.ones(self.d) if p.control_mask is None else np.array(p.control_mask, dtype=float)
            for p in self.populations
        )
        for mask in masks:
            mask.flags.writeable = False
        object.__setattr__(self, "_masks", masks)

    @property
    def n_populations(self) -> int:
        return len(self.populations)

    def population(self, pop: int) -> PopulationModel:
        return self.populations[pop]

    def mask(self, pop: int) -> np.ndarray:
        """Population pop's control mask as a read-only array (ones when the control acts on every axis)."""
        return self._masks[pop]

    def with_horizon(self, horizon: float) -> "ModelSpec":
        return replace(self, T=horizon)

    def check_window(self, dt: float) -> None:
        """Reject an MPC window dt of the best reply outside (0, T]."""
        if not 0.0 < dt <= self.T:
            raise ValueError(f"MPC window dt={dt} must lie in (0, T={self.T}]")


def coupling_measure(views: Sequence):
    """The measure argument for per-population ``views``: one population's bare view, else the tuple."""
    return views[0] if len(views) == 1 else tuple(views)


def _check_finite(arr: np.ndarray, ingredient: str, context: str) -> np.ndarray:
    arr = np.asarray(arr, dtype=float)
    if not np.isfinite(arr).all():
        flat = arr.reshape(-1)
        j = int(np.argmin(np.isfinite(flat)))
        raise FloatingPointError(
            f"{ingredient} produced non-finite value ({float(flat[j])!r}) in {context}"
        )
    return arr


def cost_gradient_sum(model: ModelSpec, pop: int, x: np.ndarray, m) -> np.ndarray:
    """Masked gradient of h + g/T at x, the quantity the best reply descends.

    A zero terminal cost and an all-ones mask are skipped: adding 0 can change
    only the sign of a zero, and multiplying by 1 is exact.
    """
    p = model.populations[pop]
    grad = _check_finite(p.running_cost.gradient(x, m), "grad h", "cost_gradient_sum")
    if not is_zero(p.terminal_cost):
        gg = _check_finite(p.terminal_cost.gradient(x, m), "grad g", "cost_gradient_sum")
        grad = grad + gg / model.T
    return grad if p.control_mask is None else model.mask(pop) * grad


def brs_drift(model: ModelSpec, pop: int, t: float, x: np.ndarray, m, window: float = 0.0) -> np.ndarray:
    """Best-reply drift f(x, m) - grad(h + g/T)(x, m) / (alpha(t) + window * alpha_dot(t)).

    The MPC window is the particle step's dt, or 0 for the FPK's limit. Vectorized over
    leading axes of ``x``; non-finite output reports which ingredient produced it. A
    declared-zero f is skipped: ``0.0 - v`` is ``zeros - v`` bit for bit.
    """
    p = model.populations[pop]
    a = p.penalty.at(t, window)
    if is_zero(p.drift):
        return 0.0 - cost_gradient_sum(model, pop, x, m) / a
    f = _check_finite(p.drift.value(x, m), "drift f", "brs_drift")
    grad = cost_gradient_sum(model, pop, x, m)
    return f - grad / a


def face_velocity(model: ModelSpec, pop: int, x: np.ndarray, k: int) -> Callable:
    """(t, m) -> ``brs_drift(model, pop, t, x, m)[..., k]``, the best reply's velocity along axis k at x.

    On an axis the control mask zeroes, f_k - (0 * g_k)/alpha is f_k up to the
    sign of a zero, so only f is evaluated. When the running cost binds and the
    terminal cost is declared zero or binds, the costs are bound to x once and
    :func:`brs_drift`'s operations and finite checks run on component k of the
    gradients alone, bit for bit. Any other cost gives :func:`brs_drift` in
    full, sliced to k.
    """
    p = model.population(pop)
    if model.mask(pop)[k] == 0.0:
        context = f"axis-{k} faces (pop {pop})"
        return lambda t, m: _check_finite(p.drift.value(x, m), "drift f", context)[..., k]
    h, g = p.running_cost, None if is_zero(p.terminal_cost) else p.terminal_cost
    if h.bind is None or (g is not None and g.bind is None):
        return lambda t, m: brs_drift(model, pop, t, x, m)[..., k]
    grad_h, grad_g = h.bind(x, (k,)), None if g is None else g.bind(x, (k,))
    mask = None if p.control_mask is None else model.mask(pop)[k]
    zero_f = is_zero(p.drift)

    def drift(t: float, m) -> np.ndarray:
        a = p.penalty.at(t)
        f = None if zero_f else _check_finite(p.drift.value(x, m), "drift f", "brs_drift")[..., k]
        grad = _check_finite(grad_h(m), "grad h", "cost_gradient_sum")[..., 0]
        if grad_g is not None:
            grad = grad + _check_finite(grad_g(m), "grad g", "cost_gradient_sum")[..., 0] / model.T
        grad = grad if mask is None else mask * grad
        return 0.0 - grad / a if zero_f else f - grad / a

    return drift
