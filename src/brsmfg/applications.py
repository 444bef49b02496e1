"""Application presets: wealth exchange by trading, and two-group crowds.

``build_wealth_model`` assembles the d = 2 trading economy: state (y, z) with
economic configuration y drifting at speed v and wealth z controlled through
the pairwise trading cost

    Phi(x, m) = integral of xi((rho(y) + rho(y'))/2) Psi(|y - y'|) phi(z - z')
                against m(dx'),      rho(y) = integral of Psi(|y - y'|) m(dx'),

whose z-gradient is the trading drift. Only the wealth axis is controlled and
its multiplicative diffusion sqrt(2 kappa) z keeps z positive in law; particle
runs reflect z at a small floor and grid runs place the no-flux wall there.
Psi and xi depend only on (y, y') and phi only on z - z', so with
m = sum_ab W[a, b] delta(y_a, z_b) every term is a contraction
sum_ab A[q, a] W[a, b] B[q, b] of a (queries x y nodes) factor A and a
(queries x z nodes) factor B. A depends on a query only through its y and B
only through its z, so each is evaluated once per distinct query coordinate.
With ky distinct query y and kz distinct query z on an ny x nz grid that costs
O(ky ny + kz nz + ny^2) kernel evaluations and one ky x ny x nz matrix
product; the FPK's face centres (ky kz = Q queries) then read a ky x kz
table, other queries one row of length nz each, and no (queries x cells)
array is formed. Particles are the diagonal case W = diag(w), O(Q N).

``build_crowd_model`` assembles two 2-d populations whose running cost is the
own-group density plus ``lam`` times the other group's density (the aversion
weight), with per-group terminal costs; the best-reply drift of group 1 is
then -grad(m1 + lam m2 + Psi1/T).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .measures import (
    EmpiricalMeasure,
    GridDensity,
    density_at,
    density_gradient_at,
)
from .model import (
    ControlPenalty,
    CostFunction,
    DiffusionFunction,
    DriftFunction,
    GaussianMarginal,
    LognormalMarginal,
    ModelSpec,
    PopulationModel,
    _check_width,
    product_law,
)

__all__ = ["WealthParams", "CrowdParams", "build_wealth_model", "build_crowd_model"]


def _gaussian_kernel(width: float) -> tuple[Callable, Callable]:
    def psi(r):
        return np.exp(-0.5 * (np.asarray(r) / width) ** 2)

    def psi_prime(r):
        r = np.asarray(r)
        return -(r / width**2) * np.exp(-0.5 * (r / width) ** 2)

    return psi, psi_prime


@dataclass(frozen=True)
class WealthParams:
    """Trading-economy ingredients; kernels default to the exactly-solvable set.

    ``kappa`` is the wealth-diffusion constant (the multiplicative noise is
    sqrt(2 kappa) z), ``v`` the speed of the economic configuration, ``psi``
    the even trading-frequency kernel over configuration distance, ``phi`` the
    even C^2 trading interaction potential over wealth difference, and ``xi``
    the modulation by the average local density. Derivatives are supplied
    alongside each kernel because the best reply differentiates the cost
    analytically.
    """

    kappa: float = 0.05
    v: Callable | None = None
    psi: Callable | None = None
    psi_prime: Callable | None = None
    phi: Callable | None = None
    phi_prime: Callable | None = None
    xi: Callable | None = None
    xi_prime: Callable | None = None
    psi_width: float = 1.0
    z_min: float = 1e-6
    y_std: float = 1.0
    z_log_mean: float = 0.0
    z_log_std: float = 0.3

    def resolved(self) -> dict:
        psi, psi_prime = self.psi, self.psi_prime
        if psi is None:
            psi, psi_prime = _gaussian_kernel(self.psi_width)
        elif psi_prime is None:
            raise ValueError("custom psi requires psi_prime")
        phi = self.phi if self.phi is not None else (lambda z: 0.5 * np.asarray(z) ** 2)
        phi_prime = self.phi_prime if self.phi_prime is not None else (lambda z: np.asarray(z, dtype=float))
        if self.phi is not None and self.phi_prime is None:
            raise ValueError("custom phi requires phi_prime")
        xi = self.xi if self.xi is not None else (lambda r: np.asarray(r, dtype=float))
        xi_prime = self.xi_prime if self.xi_prime is not None else (lambda r: np.ones_like(np.asarray(r, dtype=float)))
        if self.xi is not None and self.xi_prime is None:
            raise ValueError("custom xi requires xi_prime")
        v = self.v if self.v is not None else (lambda x: np.zeros(np.shape(x)[:-1]))
        return dict(psi=psi, psi_prime=psi_prime, phi=phi, phi_prime=phi_prime, xi=xi, xi_prime=xi_prime, v=v)

    def validate(self) -> None:
        for name in ("kappa", "psi_width", "z_min"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        for name in ("y_std", "z_log_std"):
            _check_width(name, getattr(self, name))
        k = self.resolved()
        r = np.linspace(0.1, 3.0, 7)
        if np.abs(k["psi"](r) - k["psi"](-r)).max() > 1e-12:
            raise ValueError("psi must be an even function")
        if np.abs(k["phi"](r) - k["phi"](-r)).max() > 1e-12:
            raise ValueError("phi must be an even function")


def _product_support(m):
    """(y nodes, z nodes, y-marginal, weights) of m = sum_ab W[a, b] delta(y_a, z_b).

    A grid carries the full ny x nz weight matrix W; particles carry the
    diagonal W = diag(w) as the weight vector w.
    """
    if isinstance(m, EmpiricalMeasure):
        w = m.weights
        return m.points[:, 0], m.points[:, 1], w, w
    if isinstance(m, GridDensity):
        W = m.values * m.grid.cell_volume
        return m.grid.midpoints(0), m.grid.midpoints(1), W.sum(axis=1), W
    raise TypeError(f"unsupported measure type {type(m).__name__}")


def _distinct(v: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """Distinct values of the 1-d array ``v`` and each entry's index among them.

    Entries are compared by bit pattern after a stable argsort (np.unique would
    load numpy.ma). When no two entries are equal, ``(v, None)`` is returned.
    """
    if v.size < 2:
        return v, None
    order = np.argsort(v, kind="stable")
    sorted_v = v[order]
    new = np.empty(v.size, dtype=bool)
    new[:1] = True
    bits = sorted_v.view(np.uint64)
    np.not_equal(bits[1:], bits[:-1], out=new[1:])
    if new.all():
        return v, None
    inverse = np.empty(v.size, dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return sorted_v[new], inverse


def _rows(a: np.ndarray, index: np.ndarray | None) -> np.ndarray:
    return a if index is None else a[index]


def _contraction(W: np.ndarray, iy: np.ndarray | None, iz: np.ndarray | None, n_queries: int):
    """``contract(A, B)[q] = sum_ab A[iy[q], a] W[a, b] B[iz[q], b]`` for every query q.

    A has one row per distinct query y and B one per distinct query z (a
    ``None`` index: one row per query). Particles give W = diag(w) as the
    vector w and contract row by row. A grid multiplies A @ W once per
    distinct y, then fills a table over the distinct (y, z) pairs when there
    are no more of them than queries, else reads one row per query; either
    way reordering the queries reorders the results bit for bit.
    """
    if W.ndim == 1:
        return lambda A, B: (_rows(A, iy) * _rows(B, iz)) @ W

    def contract(A, B):
        AW = A @ W
        if A.shape[0] * B.shape[0] > n_queries:
            return (_rows(AW, iy) * _rows(B, iz)).sum(axis=1)
        table = (AW[:, None, :] * B[None]).sum(axis=2)
        ty = np.arange(A.shape[0]) if iy is None else iy
        tz = np.arange(B.shape[0]) if iz is None else iz
        return table[ty, tz]

    return contract


def build_wealth_model(params: WealthParams) -> ModelSpec:
    """One-population d = 2 trading model (state (y, z), control on z only).

    The cost's query-side factors are evaluated once per distinct query
    coordinate: psi, psi', rho and xi once per distinct y, phi and phi' once
    per distinct z; ``_contraction`` then combines them per query. Queries
    whose coordinates are all distinct, particles and single leave-one-out
    queries among them, contract exactly as a kernel evaluated per query.

    ``bind(points, axes)`` fixes the queries: their distinct coordinates are
    found once, and psi, psi', phi and phi' of the (query, node) differences
    are kept for the last grid a measure arrived on, so a call computes only
    rho, xi and the requested contractions. Particle supports move, so their
    factors are rebuilt every call. ``value`` and ``gradient`` bind once.
    """
    params.validate()
    k = params.resolved()
    psi, psi_prime = k["psi"], k["psi_prime"]
    phi, phi_prime = k["phi"], k["phi_prime"]
    xi, xi_prime = k["xi"], k["xi_prime"]
    v = k["v"]

    def evaluator(points, parts):
        """m -> the ``parts`` at the fixed ``points``, each flat: "h" the cost, "gy" and "gz" its gradient."""
        flat = np.asarray(points, dtype=float).reshape(-1, 2)
        (yq, iy), (zq, iz) = _distinct(flat[:, 0]), _distinct(flat[:, 1])
        last = None  # (grid, node factors) of the last grid measure

        def node_factors(yp, zp):
            dy, dz = yq[:, None] - yp[None, :], zq[:, None] - zp[None, :]
            # d/dy of rho(y) feeds the xi argument; the Psi factor contributes directly
            dpsi = psi_prime(np.abs(dy)) * np.sign(dy)
            return psi(np.abs(dy)), psi(np.abs(yp[:, None] - yp[None, :])), dpsi, phi(dz), phi_prime(dz)

        def evaluate(m):
            nonlocal last
            yp, zp, wy, W = _product_support(m)
            on_grid = isinstance(m, GridDensity)
            if on_grid and (last is None or last[0] != m.grid):
                last = (m.grid, node_factors(yp, zp))
            psi_qa, psi_aa, dpsi, phi_dz, dphi_dz = last[1] if on_grid else node_factors(yp, zp)
            contract = _contraction(W, iy, iz, flat.shape[0])
            arg = 0.5 * ((psi_qa @ wy)[:, None] + (psi_aa @ wy)[None, :])
            xia = xi(arg)
            compute = {
                "h": lambda: contract(xia * psi_qa, phi_dz),
                "gy": lambda: 0.5 * _rows(dpsi @ wy, iy) * contract(xi_prime(arg) * psi_qa, phi_dz)
                + contract(xia * dpsi, phi_dz),
                "gz": lambda: contract(xia * psi_qa, dphi_dz),
            }
            return [compute[part]() for part in parts]

        return evaluate

    def bind(points, axes):
        evaluate = evaluator(points, [("gy", "gz")[a] for a in axes])
        shape = np.shape(points)[:-1] + (len(axes),)
        return lambda m: np.stack(evaluate(m), axis=-1).reshape(shape)

    def value(x, m):
        return evaluator(x, ["h"])(m)[0].reshape(np.shape(x)[:-1])

    def gradient(x, m):
        return bind(x, (0, 1))(m)

    def drift_value(x, m):
        x = np.asarray(x, dtype=float)
        speed = np.asarray(v(x), dtype=float)
        return np.stack([speed, np.zeros_like(speed)], axis=-1)

    def diffusion_value(t, x):
        x = np.asarray(x, dtype=float)
        z = np.abs(x[..., 1])
        return np.stack([np.zeros_like(z), np.sqrt(2.0 * params.kappa) * z], axis=-1)

    pop = PopulationModel(
        drift=DriftFunction(value=drift_value),
        running_cost=CostFunction(value=value, gradient=gradient, bind=bind),
        terminal_cost=CostFunction.zero(2),
        penalty=ControlPenalty.constant(1.0),
        diffusion=DiffusionFunction(value=diffusion_value),
        initial_law=product_law(
            [
                GaussianMarginal(0.0, params.y_std),
                LognormalMarginal(params.z_log_mean, params.z_log_std),
            ]
        ),
        control_mask=(0.0, 1.0),
        reflect_lower=(None, params.z_min),
    )
    return ModelSpec(d=2, T=1.0, populations=(pop,))


@dataclass(frozen=True)
class CrowdParams:
    """Two-group pedestrian setup on a rectangle.

    ``lam`` weighs aversion to the other group's density; ``sigma`` is the
    common diagonal diffusion; ``kde_bandwidth`` is used whenever the group
    densities are carried by particles instead of a grid. Terminal costs
    are quadratic wells of weight ``psi_weight`` around ``targets``.
    """

    lam: float = 1.0
    sigma: tuple[float, float] = (0.2, 0.2)
    domain: tuple[tuple[float, float], tuple[float, float]] = ((-2.0, 2.0), (-2.0, 2.0))
    kde_bandwidth: float = 0.2
    horizon: float = 0.5
    psi_weight: float = 1.0
    targets: tuple[tuple[float, float], tuple[float, float]] = ((1.0, 0.0), (-1.0, 0.0))
    ic_centers: tuple[tuple[float, float], tuple[float, float]] = ((-0.5, 0.0), (0.5, 0.0))
    ic_std: float = 0.5

    def validate(self) -> None:
        if not 0.0 <= self.lam < math.inf:
            raise ValueError(f"aversion weight lam must be nonnegative and finite, got {self.lam!r}")
        if not math.isfinite(self.psi_weight):
            raise ValueError(f"psi_weight must be finite, got {self.psi_weight!r}")
        if any(s < 0 for s in self.sigma):
            raise ValueError("sigma entries must be nonnegative")
        if not self.kde_bandwidth > 0:
            raise ValueError("kde_bandwidth must be positive")
        _check_width("ic_std", self.ic_std)
        for (lo, hi) in self.domain:
            if not lo < hi:
                raise ValueError("domain must be a nondegenerate rectangle")
        for name, points in (("targets", self.targets), ("ic_centers", self.ic_centers)):
            if not np.all(np.isfinite(points)):
                raise ValueError(f"{name} must be finite, got {points!r}")


def _quadratic_well(center, weight: float) -> CostFunction:
    c = np.asarray(center, dtype=float)
    return CostFunction(
        value=lambda x, m: 0.5 * weight * ((np.asarray(x) - c) ** 2).sum(axis=-1),
        gradient=lambda x, m: weight * (np.asarray(x, dtype=float) - c),
    )


def _crowd_cost(own: int, other: int, lam: float, bandwidth: float) -> CostFunction:
    def views(m):
        if not isinstance(m, tuple) or len(m) != 2:
            raise TypeError("crowd costs couple through a tuple of two measures")
        a, b = m[own], m[other]
        if isinstance(a, GridDensity) and isinstance(b, GridDensity) and a.grid != b.grid:
            raise ValueError("crowd populations live on mismatched grids")
        return a, b

    def value(x, m):
        mi, mj = views(m)
        return density_at(mi, x, bandwidth) + lam * density_at(mj, x, bandwidth)

    def gradient(x, m):
        mi, mj = views(m)
        return density_gradient_at(mi, x, bandwidth) + lam * density_gradient_at(
            mj, x, bandwidth
        )

    return CostFunction(value=value, gradient=gradient)


def build_crowd_model(params: CrowdParams) -> ModelSpec:
    """Two-population d = 2 crowd model with density-aversion running costs."""
    params.validate()
    terminal = [_quadratic_well(target, params.psi_weight) for target in params.targets]
    pops = []
    for i in range(2):
        pops.append(
            PopulationModel(
                drift=DriftFunction.zero(2),
                running_cost=_crowd_cost(i, 1 - i, params.lam, params.kde_bandwidth),
                terminal_cost=terminal[i],
                penalty=ControlPenalty.constant(1.0),
                diffusion=DiffusionFunction.constant(list(params.sigma)),
                initial_law=product_law(
                    [
                        GaussianMarginal(params.ic_centers[i][0], params.ic_std),
                        GaussianMarginal(params.ic_centers[i][1], params.ic_std),
                    ]
                ),
            )
        )
    return ModelSpec(d=2, T=params.horizon, populations=tuple(pops))
