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
from dataclasses import dataclass, field, fields, replace
from typing import Callable, Sequence

import numpy as np

from .measures import EmpiricalMeasure, Grid, GridDensity, wasserstein_1d

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
    "cost_gradient_sum",
    "coupling_measure",
    "is_zero",
    "validate_assumptions",
    "AssumptionReport",
    "PopulationQuotients",
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

    def check(self, horizon: float, samples: int = 33, tol: float = 1e-4) -> None:
        """Sample positivity of alpha and consistency of alpha_dot on [0, T]."""
        ts = np.linspace(0.0, horizon, samples)
        eps = max(1e-6 * horizon, 1e-9)
        for t in ts:
            a = self.alpha(float(t))
            if not a > 0:
                raise ValueError(f"alpha({t}) = {a} is not positive")
            fd = (self.alpha(float(t) + eps) - a) / eps
            ad = self.alpha_dot(float(t))
            if abs(fd - ad) > tol * (1.0 + abs(ad)):
                raise ValueError(
                    f"alpha_dot inconsistent with alpha at t={t}: fd={fd}, stored={ad}"
                )


def _zero_kernel(x, y) -> np.ndarray:
    return np.zeros(np.broadcast_shapes(np.shape(x), np.shape(y)))


@dataclass(frozen=True)
class CostFunction:
    """Scalar cost (x, m) -> R with an analytic spatial gradient.

    ``pair_gradient`` optionally declares the gradient's pairwise kernel k,
    gradient(x, m) = integral of k(x, y) m(dy), broadcasting over the leading
    axes of x and y; ``None`` when the gradient is not of that form.
    """

    value: Callable
    gradient: Callable
    pair_gradient: Callable | None = None

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


@dataclass(frozen=True)
class GaussianMarginal:
    mean: float
    std: float

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self.mean + self.std * rng.standard_normal(n)

    def cdf(self, x: np.ndarray) -> np.ndarray:
        return 0.5 * (1.0 + _erf((np.asarray(x) - self.mean) / (self.std * np.sqrt(2.0))))


@dataclass(frozen=True)
class LognormalMarginal:
    mu: float
    sigma: float

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
        if not self.T > 0:
            raise ValueError("horizon must be positive")
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
    p = model.population(pop)
    grad = _check_finite(p.running_cost.gradient(x, m), "grad h", "cost_gradient_sum")
    if not is_zero(p.terminal_cost):
        gg = _check_finite(p.terminal_cost.gradient(x, m), "grad g", "cost_gradient_sum")
        grad = grad + gg / model.T
    return grad if p.control_mask is None else model.mask(pop) * grad


def brs_drift(model: ModelSpec, pop: int, t: float, x: np.ndarray, m) -> np.ndarray:
    """Limiting best-reply drift f(x, m) - (1/alpha(t)) grad(h + g/T)(x, m).

    Pure composition of the stored analytic gradients; vectorized over leading
    axes of ``x``. Non-finite output reports which ingredient produced it.
    """
    p = model.population(pop)
    a = p.penalty.alpha(t)
    if not np.isfinite(a) or a <= 0:
        raise FloatingPointError(f"alpha({t}) = {a} is not a positive finite number")
    f = _check_finite(p.drift.value(x, m), "drift f", "brs_drift")
    grad = cost_gradient_sum(model, pop, x, m)
    return f - grad / a


# ---------------------------------------------------------------------------
# Empirical assumption audit
# ---------------------------------------------------------------------------


@dataclass
class PopulationQuotients:
    """Max sampled Lipschitz quotients for one population's ingredients."""

    drift_x: float
    drift_measure: float
    running_grad_x: float
    running_grad_measure: float
    terminal_grad_x: float
    terminal_grad_measure: float
    diffusion_t: float
    diffusion_x: float

    def as_dict(self) -> dict[str, float]:
        return dict(self.__dict__)


@dataclass
class AssumptionReport:
    populations: list[PopulationQuotients]
    cap: float
    flagged: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.flagged


def _measure_tuple(model: ModelSpec, rng: np.random.Generator, n_support: int):
    views = tuple(
        EmpiricalMeasure(p.initial_law.sample(rng, n_support))
        for p in model.populations
    )
    return views


def _translate_views(views, shift):
    return tuple(v.translate(shift) for v in views)


def validate_assumptions(
    model: ModelSpec,
    sample_count: int,
    seed: int,
    cap: float = 1e3,
    n_support: int = 24,
) -> AssumptionReport:
    """Empirical Lipschitz audit of the model's standing regularity hypotheses.

    Samples pairs differing in the state (same measure) and pairs differing in
    the measure by a translation (whose 1-Wasserstein distance is exactly the
    shift length; 1-d models also audit general jittered pairs through the
    exact quantile distance). Degenerate zero-distance pairs are skipped;
    quotients above ``cap`` are flagged.
    """
    if sample_count < 2:
        raise ValueError("sample_count must be >= 2")
    rng = np.random.default_rng(seed)
    reports: list[PopulationQuotients] = []
    flagged: list[str] = []
    for pop in range(model.n_populations):
        p = model.population(pop)
        # (quotient name prefix, evaluate(x, m)) of each audited ingredient
        ingredients = (
            ("drift", p.drift.value),
            ("running_grad", p.running_cost.gradient),
            ("terminal_grad", p.terminal_cost.gradient),
        )
        q = dict.fromkeys((f.name for f in fields(PopulationQuotients)), 0.0)
        used = 0
        for _ in range(sample_count):
            views = _measure_tuple(model, rng, n_support)
            marg = coupling_measure(views)
            x1 = p.initial_law.sample(rng, 1)[0]
            step = 10.0 ** rng.uniform(-3, 0)
            direction = rng.standard_normal(model.d)
            nrm = np.linalg.norm(direction)
            if nrm == 0.0:
                continue
            x2 = x1 + step * direction / nrm
            dx = float(np.linalg.norm(x2 - x1))
            if dx == 0.0:
                continue
            used += 1

            def quot_x(fn) -> float:
                return float(np.linalg.norm(np.asarray(fn(x2)) - np.asarray(fn(x1))) / dx)

            for name, fn in ingredients:
                q[f"{name}_x"] = max(q[f"{name}_x"], quot_x(lambda y: fn(y, marg)))

            # exact-distance measure perturbation: translate every population
            shift = step * rng.standard_normal(model.d)
            w1 = float(np.linalg.norm(shift))
            if w1 > 0.0:
                marg2 = coupling_measure(_translate_views(views, shift))
                if model.d == 1:
                    # cross-check the translation distance through the 1-d solver
                    w1 = wasserstein_1d(views[0], views[0].translate(shift), p=1)
                if w1 > 0.0:
                    def quot_m(fn) -> float:
                        return float(
                            np.linalg.norm(np.asarray(fn(marg2)) - np.asarray(fn(marg))) / w1
                        )

                    for name, fn in ingredients:
                        q[f"{name}_measure"] = max(q[f"{name}_measure"], quot_m(lambda mm: fn(x1, mm)))

            # diffusion in t and x
            t1, t2 = rng.uniform(0.0, model.T, size=2)
            if t1 != t2:
                s1 = np.asarray(p.diffusion.value(float(t1), x1))
                s2 = np.asarray(p.diffusion.value(float(t2), x1))
                q["diffusion_t"] = max(
                    q["diffusion_t"], float(np.linalg.norm(s2 - s1) / abs(t2 - t1))
                )
            s1 = np.asarray(p.diffusion.value(float(t1), x1))
            s2 = np.asarray(p.diffusion.value(float(t1), x2))
            q["diffusion_x"] = max(q["diffusion_x"], float(np.linalg.norm(s2 - s1) / dx))
        if used == 0:
            raise ValueError("all sampled pairs were degenerate")
        pq = PopulationQuotients(**q)
        for name, val in pq.as_dict().items():
            if val > cap:
                flagged.append(f"pop {pop}: {name} quotient {val:.3e} exceeds cap {cap:.3e}")
        reports.append(pq)
    return AssumptionReport(populations=reports, cap=cap, flagged=flagged)
