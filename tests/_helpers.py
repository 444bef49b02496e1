"""Shared builders and independent reference integrators for the test suite."""

from __future__ import annotations

import itertools
from dataclasses import replace

import numpy as np
from scipy.optimize import linear_sum_assignment

from brsmfg.applications import WealthParams
from brsmfg.fokker_planck import NumericalError
from brsmfg.measures import EmpiricalMeasure, Grid, GridDensity, format_value, write_csv
from brsmfg.model import (
    ControlPenalty,
    CostFunction,
    DiffusionFunction,
    DriftFunction,
    GaussianMarginal,
    InitialLaw,
    ModelSpec,
    PopulationModel,
    brs_drift,
    coupling_measure,
    product_law,
)
from brsmfg.particle_sim import _leave_one_out_eval, _reflect


def without_bind(model: ModelSpec) -> ModelSpec:
    """``model`` with no cost offering ``bind``, so every solve takes the unbound path."""

    def unbound(p: PopulationModel) -> PopulationModel:
        return replace(p, running_cost=replace(p.running_cost, bind=None), terminal_cost=replace(p.terminal_cost, bind=None))

    return replace(model, populations=tuple(unbound(p) for p in model.populations))


def gaussian_law(mean: float = 0.0, std: float = 0.5) -> InitialLaw:
    return product_law([GaussianMarginal(mean, std)])


def point_law(value: float) -> InitialLaw:
    """Initial law putting every particle at one point (for deterministic ODE tests)."""

    def sample(rng, n):
        return np.full((n, 1), value)

    def projection(grid: Grid):
        vals = np.zeros(grid.cells)
        idx = int(
            np.clip(
                (value - grid.mins[0]) / grid.widths[0], 0, grid.cells[0] - 1
            )
        )
        vals[idx] = 1.0 / grid.cell_volume
        return vals

    return InitialLaw(sample=sample, grid_projection=projection)


def scalar_model(
    h: CostFunction | None = None,
    g: CostFunction | None = None,
    f: DriftFunction | None = None,
    sigma: float = 1.0,
    alpha: float = 1.0,
    alpha_dot=None,
    T: float = 1.0,
    init=None,
) -> ModelSpec:
    """1-d single-population model assembled from pieces (zeros by default)."""
    if alpha_dot is None:
        pen = ControlPenalty.constant(alpha)
    else:
        pen = ControlPenalty(alpha=alpha, alpha_dot=alpha_dot)
    pop = PopulationModel(
        drift=f if f is not None else DriftFunction.zero(1),
        running_cost=h if h is not None else CostFunction.zero(1),
        terminal_cost=g if g is not None else CostFunction.zero(1),
        penalty=pen,
        diffusion=DiffusionFunction.constant([sigma]),
        initial_law=init if init is not None else gaussian_law(),
    )
    return ModelSpec(d=1, T=T, populations=(pop,))


def quadratic_cost() -> CostFunction:
    return CostFunction(
        value=lambda x, m: 0.5 * np.asarray(x)[..., 0] ** 2,
        gradient=lambda x, m: np.asarray(x, dtype=float).copy(),
    )


def rk4(f, x0: np.ndarray, t_final: float, n_steps: int) -> np.ndarray:
    """Classic fixed-step Runge-Kutta 4 for dx/dt = f(t, x)."""
    x = np.asarray(x0, dtype=float).copy()
    h = t_final / n_steps
    t = 0.0
    for _ in range(n_steps):
        k1 = f(t, x)
        k2 = f(t + h / 2, x + h / 2 * k1)
        k3 = f(t + h / 2, x + h / 2 * k2)
        k4 = f(t + h, x + h * k3)
        x = x + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t += h
    return x


def riccati_value(T: float, sigma: float, alpha: float, t_eval, x: np.ndarray):
    """High-accuracy reference for the quadratic-cost value function.

    Integrates a' = 2 a^2 / alpha - 1/2, b' = -sigma^2 a backward from
    a(T) = 1/2, b(T) = 0 and returns w(t, x) = a(t) x^2 + b(t) per time.
    """
    from scipy.integrate import solve_ivp

    def rhs(t, y):
        a, b = y
        return [2.0 * a * a / alpha - 0.5, -(sigma**2) * a]

    t_eval = np.atleast_1d(np.asarray(t_eval, dtype=float))
    sol = solve_ivp(
        rhs,
        (T, 0.0),
        [0.5, 0.0],
        t_eval=np.sort(t_eval)[::-1],
        rtol=1e-10,
        atol=1e-12,
        dense_output=False,
    )
    order = np.argsort(sol.t)
    a = sol.y[0][order]
    b = sol.y[1][order]
    ts = sol.t[order]
    out = {}
    for k, t in enumerate(ts):
        out[float(t)] = a[k] * x**2 + b[k]
    return out


class FixedNoise:
    """Stand-in generator returning pre-drawn normal blocks in order."""

    def __init__(self, blocks):
        self.blocks = list(blocks)
        self.k = 0

    def standard_normal(self, shape):
        block = self.blocks[self.k]
        self.k += 1
        assert block.shape == tuple(shape)
        return block


def wealth_cost_oracle(params: WealthParams, x, m):
    """Brute-force wealth trading cost and its gradient, (value, gradient).

    Sums the kernel over every (query point, support point) pair of the flat
    support, building the full (queries x support) arrays; the reference the
    factored kernel of ``build_wealth_model`` is checked against.
    """
    k = params.resolved()
    x = np.asarray(x, dtype=float)
    flat = x.reshape(-1, 2)
    if isinstance(m, EmpiricalMeasure):
        pts, w = m.points, m.weights
    else:
        pts, w = m.grid.midpoint_mesh().reshape(-1, m.grid.dim), m.values.reshape(-1) * m.grid.cell_volume
    dy = flat[:, 0, None] - pts[None, :, 0]
    dz = flat[:, 1, None] - pts[None, :, 1]
    psi_qp = k["psi"](np.abs(dy))
    rho_q = psi_qp @ w
    rho_p = k["psi"](np.abs(pts[:, 0, None] - pts[None, :, 0])) @ w
    arg = 0.5 * (rho_q[:, None] + rho_p[None, :])
    xia = k["xi"](arg)
    dpsi = k["psi_prime"](np.abs(dy)) * np.sign(dy)
    value = (xia * psi_qp * k["phi"](dz)) @ w
    gz = (xia * psi_qp * k["phi_prime"](dz)) @ w
    gy = 0.5 * (dpsi @ w) * ((k["xi_prime"](arg) * psi_qp * k["phi"](dz)) @ w)
    gy = gy + (xia * dpsi * k["phi"](dz)) @ w
    return value.reshape(x.shape[:-1]), np.stack([gy, gz], axis=-1).reshape(x.shape)


def wealth_row_kernel_oracle(params: WealthParams, x, m):
    """The wealth trading cost and its gradient as the row kernel computed them.

    Every query-side factor is evaluated once per query point, and a grid
    contracts ``((A @ W) * B).sum(axis=1)`` over all queries; particles
    contract ``(A * B) @ w``. Kept frozen as the bit-identity reference for
    the kernel of ``build_wealth_model``, which evaluates each distinct query
    coordinate once.
    """
    k = params.resolved()
    x = np.asarray(x, dtype=float)
    flat = x.reshape(-1, 2)
    if isinstance(m, EmpiricalMeasure):
        yp, zp, wy = m.points[:, 0], m.points[:, 1], m.weights
        contract = lambda A, B: (A * B) @ wy
    else:
        W = m.values * m.grid.cell_volume
        yp, zp, wy = m.grid.midpoints(0), m.grid.midpoints(1), W.sum(axis=1)
        contract = lambda A, B: ((A @ W) * B).sum(axis=1)
    dy = flat[:, 0, None] - yp[None, :]
    dz = flat[:, 1, None] - zp[None, :]
    psi_qa = k["psi"](np.abs(dy))
    rho_q = psi_qa @ wy
    rho_a = k["psi"](np.abs(yp[:, None] - yp[None, :])) @ wy
    arg = 0.5 * (rho_q[:, None] + rho_a[None, :])
    xia = k["xi"](arg)
    phi_dz = k["phi"](dz)
    value = contract(xia * psi_qa, phi_dz)
    gz = contract(xia * psi_qa, k["phi_prime"](dz))
    dpsi = k["psi_prime"](np.abs(dy)) * np.sign(dy)
    gy = 0.5 * (dpsi @ wy) * contract(k["xi_prime"](arg) * psi_qa, phi_dz)
    gy = gy + contract(xia * dpsi, phi_dz)
    return value.reshape(x.shape[:-1]), np.stack([gy, gz], axis=-1).reshape(x.shape)


def wasserstein_small_nd(mu: EmpiricalMeasure, nu: EmpiricalMeasure, p: int = 1) -> float:
    """Exact W_p between equal-size uniform clouds by optimal assignment.

    For uniform marginals the optimum of the transport problem is attained at
    a permutation (Birkhoff), so the linear assignment of the N x N cost
    matrix is exact in any dimension.
    """
    if p not in (1, 2):
        raise ValueError("p must be 1 or 2")
    if mu.n != nu.n:
        raise ValueError("wasserstein_small_nd requires equal point counts")
    if not (mu.is_uniform and nu.is_uniform):
        raise ValueError("wasserstein_small_nd requires uniform weights")
    diff = mu.points[:, None, :] - nu.points[None, :, :]
    cost = np.linalg.norm(diff, axis=2)
    if p == 2:
        cost = cost**2
    rows, cols = linear_sum_assignment(cost)
    best = float(cost[rows, cols].sum()) / mu.n
    return float(best if p == 1 else np.sqrt(best))


def wasserstein_bruteforce(mu: EmpiricalMeasure, nu: EmpiricalMeasure, p: int) -> float:
    """W_p between equal-size uniform clouds as the minimum over all N! pairings."""
    n = mu.n
    cost = np.linalg.norm(mu.points[:, None, :] - nu.points[None, :, :], axis=2) ** p
    rows = np.arange(n)
    perms = np.array(list(itertools.permutations(range(n))))
    best = float(cost[rows, perms].sum(axis=1).min()) / n
    return best ** (1.0 / p)


# ---------------------------------------------------------------------------
# Reference explicit FPK step: the straightforward form of the solver's step,
# which rebuilds the face points and pads with concatenations every step.
# ``fpk_step`` and ``solve_fpk`` must reproduce it bit for bit.
# ---------------------------------------------------------------------------


def _oracle_sg_weight(b, D, dx):
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        P = np.where(D > 0.0, b * dx / np.where(D > 0.0, D, 1.0), np.inf * np.sign(b))
        P = np.where((D <= 0.0) & (b == 0.0), 0.0, P)
        small = np.abs(P) < 1e-8
        em1 = np.expm1(np.where(small, 1.0, P))
        G = np.where(small, D / dx - 0.5 * b, b / em1)
    return G


def _oracle_face_points(grid, axis):
    coords = [np.linspace(grid.mins[k], grid.maxs[k], grid.cells[k] + 1) for k in range(grid.dim)]
    coords = [0.5 * (e[:-1] + e[1:]) for e in coords]
    coords[axis] = np.linspace(grid.mins[axis], grid.maxs[axis], grid.cells[axis] + 1)
    return np.stack(np.meshgrid(*coords, indexing="ij"), axis=-1)


def fpk_assemble_oracle(model, fields, t, velocity, boundary):
    """Per population: (face velocities per axis, SG weights per axis, max drain, drain message)."""
    grid = fields[0].grid
    measures = fields[0] if model.n_populations == 1 else tuple(fields)
    out = []
    for pop in range(model.n_populations):
        pmod = model.population(pop)
        bs, Gs = [], []
        max_drain = 0.0
        info = ""
        drain = None
        for k in range(grid.dim):
            pts = _oracle_face_points(grid, k)
            flat = pts.reshape(-1, grid.dim)
            if velocity is None:
                vel = brs_drift(model, pop, t, flat, measures)
                if not np.all(np.isfinite(vel)):
                    raise NumericalError(f"non-finite drift on axis-{k} faces (pop {pop})")
                vel = vel[:, k]
            else:
                vel = np.asarray(velocity(pop, flat, k)(t, measures), dtype=float)
                if not np.all(np.isfinite(vel)):
                    raise NumericalError(f"non-finite drift on axis-{k} faces (pop {pop})")
            sig = np.asarray(pmod.diffusion.value(t, flat), dtype=float)
            shape = pts.shape[:-1]
            b = vel.reshape(shape)
            D = 0.5 * sig[:, k].reshape(shape) ** 2
            dx = grid.widths[k]
            b = np.moveaxis(b, k, 0)
            D = np.moveaxis(D, k, 0)
            G = _oracle_sg_weight(b, D, dx)
            if boundary == "no_flux":
                b[0] = 0.0
                G[0] = 0.0
                b[-1] = 0.0
                G[-1] = 0.0
            bs.append(b)
            Gs.append(G)
            cell_drain = ((b + G)[1:] + G[:-1]) / dx
            d = np.moveaxis(cell_drain, 0, k)
            drain = d if drain is None else drain + d
        mx = float(drain.max()) if drain.size else 0.0
        if mx > max_drain:
            idx = np.unravel_index(int(np.argmax(drain)), drain.shape)
            info = f"pop {pop}, cell {tuple(int(i) for i in idx)}"
            max_drain = mx
        out.append((bs, Gs, max_drain, info))
    return out


def fpk_apply_oracle(fields, assembled, dt):
    grid = fields[0].grid
    new_fields = []
    for f, (bs, Gs, _, _) in zip(fields, assembled):
        vals = f.values.copy()
        for k in range(grid.dim):
            dx = grid.widths[k]
            m = np.moveaxis(f.values, k, 0)
            zeros = np.zeros_like(m[:1])
            mL = np.concatenate([zeros, m], axis=0)
            mR = np.concatenate([m, zeros], axis=0)
            F = bs[k] * mL + Gs[k] * (mL - mR)
            dvals = -(dt / dx) * (F[1:] - F[:-1])
            vals += np.moveaxis(dvals, 0, k)
        lo = float(vals.min())
        if lo < -1e-13:
            raise NumericalError(f"negative density {lo:.3e} after step (upwinding should prevent it)")
        new_fields.append(GridDensity(grid, vals))
    return tuple(new_fields)


def fpk_solve_oracle(model, fields, t_final, record_times, boundary="no_flux", velocity=None, cfl_safety=0.9):
    """(times, values (K, P, cells...), report) of the reference time loop from t = 0."""
    grid = fields[0].grid
    record = np.asarray(record_times, dtype=float)
    t = 0.0
    times = [t]
    values = [np.stack([f.values for f in fields])]
    mass0 = np.array([f.mass for f in fields])
    mass_drift = 0.0
    min_density = min(float(f.values.min()) for f in fields)
    next_record_idx = 1 if abs(record[0] - t) <= 1e-12 else 0
    steps = 0
    while t < t_final - 1e-13:
        asm = fpk_assemble_oracle(model, fields, t, velocity, boundary)
        drain = max(a[2] for a in asm)
        dt = t_final - t if drain <= 0.0 else cfl_safety / drain
        dt = min(dt, t_final - t)
        if next_record_idx < record.size:
            dt = min(dt, record[next_record_idx] - t)
        fields = fpk_apply_oracle(fields, asm, dt)
        t += dt
        steps += 1
        min_density = min(min_density, min(float(f.values.min()) for f in fields))
        mass = np.array([f.mass for f in fields])
        mass_drift = max(mass_drift, float(np.abs(mass - mass0).max()))
        if next_record_idx < record.size and abs(t - record[next_record_idx]) <= 1e-12:
            next_record_idx += 1
            times.append(t)
            values.append(np.stack([f.values for f in fields]))
    report = {"mass_drift_max": mass_drift, "min_density": min_density, "n_steps": float(steps)}
    return np.asarray(times), np.asarray(values), report


def path_masses(path) -> np.ndarray:
    """Total mass per recorded time and population of a ``DensityPath``, shape (K, P)."""
    return path.values.reshape(path.values.shape[0], path.n_populations, -1).sum(axis=2) * path.grid.cell_volume


# ---------------------------------------------------------------------------
# Reference backward HJB sweep: explicit Euler substeps of 0.9 times the
# parabolic and advective stability bound, with the same central differences
# and ghost cells as ``hjb_backward``. It evaluates alpha, f and sigma every
# substep and extends w with a fresh concatenation. The implicit sweep must
# agree with it up to the two schemes' time errors, and stay finite where it
# stops with "HJB unstable".
# ---------------------------------------------------------------------------


def _oracle_extend(w):
    lo = 3.0 * w[0] - 3.0 * w[1] + w[2]
    hi = 3.0 * w[-1] - 3.0 * w[-2] + w[-3]
    return np.concatenate([[lo], w, [hi]])


def _oracle_gradient_and_laplacian(w, dx):
    we = _oracle_extend(w)
    return (we[2:] - we[:-2]) / (2.0 * dx), (we[2:] - 2.0 * we[1:-1] + we[:-2]) / dx**2


def hjb_backward_oracle(model, density_path, grid, n_t):
    """(times, values (n_t + 1, cells)) of the explicit reference backward sweep."""
    pmod = model.population(0)
    times = np.linspace(0.0, model.T, n_t + 1)
    mids = grid.midpoints(0)
    pts = mids[:, None]
    dx = grid.widths[0]
    m_T = density_path.at_time(model.T)
    w = np.asarray(pmod.terminal_cost.value(pts, m_T), dtype=float)
    scale = max(1.0, float(np.abs(w).max()))
    values = np.empty((n_t + 1, mids.size))
    values[n_t] = w
    for k in range(n_t - 1, -1, -1):
        t_hi, t_lo = times[k + 1], times[k]
        tau = t_hi
        while tau > t_lo + 1e-13:
            m = density_path.at_time(tau)
            alpha = pmod.penalty.alpha(tau)
            grad, lap = _oracle_gradient_and_laplacian(w, dx)
            f = np.asarray(pmod.drift.value(pts, m), dtype=float)[:, 0]
            h = np.asarray(pmod.running_cost.value(pts, m), dtype=float)
            sig2 = np.asarray(pmod.diffusion.value(tau, pts), dtype=float)[:, 0] ** 2
            rhs = h + f * grad + 0.5 * sig2 * lap - grad**2 / (2.0 * alpha)
            speed = float(np.abs(f).max() + np.abs(grad).max() / alpha)
            denom = speed / dx + float(sig2.max()) / dx**2
            delta = (tau - t_lo) if denom <= 0.0 else min(0.9 / denom, tau - t_lo)
            w = w + delta * rhs
            tau -= delta
            if not np.all(np.isfinite(w)) or np.abs(w).max() > 1e6 * scale:
                raise NumericalError("HJB unstable, refine grid/time")
        values[k] = w
    return times, values


# ---------------------------------------------------------------------------
# Reference particle step: the straightforward composition of the best-reply
# drift, which evaluates every ingredient (zero ones included), multiplies by
# the control mask even when it is all ones, and rebuilds the mask and the
# pairwise kernel every step. The library's particle step must reproduce it
# exactly.
# ---------------------------------------------------------------------------


def em_step_oracle(model, state, dt, noises, coupling):
    """Positions per population after one best-reply Euler-Maruyama step, on the window dt, with the given noise blocks."""
    views = tuple(EmpiricalMeasure(p) for p in state.positions)
    new_positions = []
    for pop in range(model.n_populations):
        p = model.population(pop)
        pts = state.positions[pop]
        denom = p.penalty.alpha(state.t) + dt * p.penalty.alpha_dot(state.t)
        assert denom > 0.0
        cm = p.control_mask
        mask = np.ones(model.d) if cm is None else np.asarray(cm, dtype=float)
        h, g, f = p.running_cost, p.terminal_cost, p.drift

        def value(x, m, f=f, h=h, g=g, mask=mask, denom=denom):
            grad = mask * (np.asarray(h.gradient(x, m), dtype=float) + np.asarray(g.gradient(x, m), dtype=float) / model.T)
            return np.asarray(f.value(x, m), dtype=float) + -grad / denom

        kf, kh, kg = f.pair_value, h.pair_gradient, g.pair_gradient
        pair = None
        if kf is not None and kh is not None and kg is not None:

            def pair(x, y, kf=kf, kh=kh, kg=kg, mask=mask, denom=denom):
                return kf(x, y) + -(mask * (kh(x, y) + kg(x, y) / model.T)) / denom

        if coupling == "full_empirical":
            total = value(pts, coupling_measure(views))
        else:
            total = _leave_one_out_eval(value, pair, pts, views, pop)
        sig = np.asarray(p.diffusion.value(state.t, pts), dtype=float)
        new = pts + total * dt + sig * np.sqrt(dt) * noises[pop]
        new_positions.append(_reflect(new, p.reflect_lower))
    return tuple(new_positions)


def write_grid_csv_oracle(path, grid: Grid, keys, records, value: str = "value", preamble=()) -> None:
    """The grid writer that formats the cell-index and midpoint columns again in every record."""
    d = grid.dim
    header = [*keys, *(f"i{k}" for k in range(d)), *(f"x{k}" for k in range(d)), value]
    index = [ix.reshape(-1).tolist() for ix in np.indices(grid.cells)]
    mids = grid.midpoint_mesh().reshape(-1, grid.dim).T.tolist()

    def rows():
        for key_values, cells in records:
            prefix = "".join(format_value(v) + "," for v in key_values)
            yield from zip(itertools.repeat(prefix), *index, *mids, cells.reshape(-1).tolist())

    row_format = "%s" + "%d," * d + "%.17g," * d + "%.17g\n"
    write_csv(path, header, rows(), preamble=preamble, row_format=row_format)
