"""Acceptance gate: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings. All tolerances are pinned here, not configurable.
"""

import filecmp
import time

import numpy as np
import pytest

from brsmfg.applications import CrowdParams, WealthParams, build_crowd_model, build_wealth_model
from brsmfg.brs import brs_control_finite, brs_control_limit, mpc_value_surrogate
from brsmfg.cli import run as cli_run
from brsmfg.fokker_planck import FpkConfig, solve_fpk
from brsmfg.measures import EmpiricalMeasure, Grid, leave_one_out, wasserstein_1d
from brsmfg.mfg import constant_path, hjb_backward, mpc_reduction_check, solve_mfg_picard
from brsmfg.model import brs_drift
from brsmfg.particle_sim import (
    EnsembleState,
    SimConfig,
    propagation_of_chaos_study,
    simulate_brs_nplayer,
)
from brsmfg.presets import lq_model, mean_coupling_model, ou_model

GRID_400 = Grid((-6.0,), (6.0,), (400,))


def _preset_states(name, rng, n_states, n_support=16):
    """(model, list of (pop, EnsembleState, player index)) samples for a preset."""
    if name == "ou":
        model = ou_model()
    elif name == "lq":
        model = lq_model()
    elif name == "mean_coupling":
        model = mean_coupling_model()
    elif name == "wealth":
        model = build_wealth_model(WealthParams())
    else:
        model = build_crowd_model(CrowdParams())
    out = []
    for _ in range(n_states):
        positions = tuple(
            model.population(p).initial_law.sample(rng, n_support)
            for p in range(model.n_populations)
        )
        state = EnsembleState(positions=positions, t=0.0, seed=0)
        pop = int(rng.integers(model.n_populations))
        i = int(rng.integers(n_support))
        out.append((pop, state, i))
    return model, out


def _views_for_player(model, state, pop, i):
    views = []
    for p in range(model.n_populations):
        emp = EmpiricalMeasure(state.positions[p])
        views.append(leave_one_out(emp, i) if p == pop else emp)
    return views[0] if model.n_populations == 1 else tuple(views)


PRESETS = ("ou", "lq", "mean_coupling", "wealth", "crowd")


class TestCriterion1MethodEquivalence:
    def test_limit_control_equals_surrogate_gradient(self):
        t0 = time.time()
        for name in PRESETS:
            rng = np.random.default_rng(101)
            model, samples = _preset_states(name, rng, 100)
            for pop, state, i in samples:
                m = _views_for_player(model, state, pop, i)
                x = state.positions[pop][i]
                lim = brs_control_limit(model, pop, 0.1, x, m)
                alpha = model.population(pop).penalty.alpha(0.1)
                mask = model.mask(pop)
                for k in range(model.d):
                    eps = 1e-6 * (1.0 + abs(x[k]))
                    dx = np.zeros(model.d)
                    dx[k] = eps
                    fd = (
                        float(mpc_value_surrogate(model, pop, 0.1, x + dx, m))
                        - float(mpc_value_surrogate(model, pop, 0.1, x - dx, m))
                    ) / (2 * eps)
                    expect = -mask[k] * fd / alpha
                    assert abs(lim[k] - expect) <= 1e-5 * (1.0 + abs(expect))
        elapsed = time.time() - t0
        print(f"PASS criterion 1a: limit control = -(1/alpha) grad surrogate "
              f"(100 states x {len(PRESETS)} presets, rel tol 1e-5) [{elapsed:.1f} s]")

    def test_finite_control_matches_grid_search(self):
        t0 = time.time()
        u_grid = np.arange(-10.0, 10.0 + 1e-9, 1e-3)
        dt = 0.05
        for name in PRESETS:
            rng = np.random.default_rng(202)
            model, samples = _preset_states(name, rng, 10)
            for pop, state, i in samples[:10]:
                m = _views_for_player(model, state, pop, i)
                x = state.positions[pop][i]
                u = brs_control_finite(model, pop, i, state, 0.0, dt)
                pen = model.population(pop).penalty
                denom = pen.alpha(0.0) + dt * pen.alpha_dot(0.0)
                mask = model.mask(pop)
                for k in range(model.d):
                    if mask[k] == 0.0:
                        assert u[k] == 0.0
                        continue
                    eps = 1e-6 * (1.0 + abs(x[k]))
                    dx = np.zeros(model.d)
                    dx[k] = eps
                    fd = (
                        float(mpc_value_surrogate(model, pop, 0.0, x + dx, m))
                        - float(mpc_value_surrogate(model, pop, 0.0, x - dx, m))
                    ) / (2 * eps)
                    cost = u_grid * fd + 0.5 * denom * u_grid**2
                    best = u_grid[int(np.argmin(cost))]
                    assert abs(u[k] - best) <= 1e-3
        elapsed = time.time() - t0
        print(f"PASS criterion 1b: finite control matches one-step grid search "
              f"(resolution 1e-3) [{elapsed:.1f} s]")


class TestCriterion2ReductionOrder:
    def test_lq_window_order(self):
        t0 = time.time()
        model = lq_model(T=1.0)
        grid = Grid((-4.0,), (4.0,), (320,))
        res = mpc_reduction_check(model, grid, [0.1, 0.05, 0.025, 0.0125])
        assert res.fitted_order == pytest.approx(1.0, abs=0.3)
        elapsed = time.time() - t0
        print(f"PASS criterion 2: surrogate reduction order {res.fitted_order:.3f} "
              f"in 1.0 +/- 0.3 [{elapsed:.1f} s]")


@pytest.fixture(scope="module")
def ou_fpk_path():
    model = ou_model(T=8.0)
    m0 = model.population(0).initial_law.grid_density(GRID_400)
    cfg = FpkConfig(t_final=8.0, record_times=tuple(np.linspace(0.0, 8.0, 9)))
    return solve_fpk(model, m0, cfg)


@pytest.fixture(scope="module")
def chaos_reference():
    model = ou_model(T=8.0)
    m0 = model.population(0).initial_law.grid_density(GRID_400)
    cfg = FpkConfig(t_final=1.0, record_times=(0.0, 0.5, 1.0))
    return solve_fpk(model, m0, cfg)


@pytest.fixture(scope="module")
def crowd_paths():
    times = (0.0, 0.125, 0.25)
    lam0 = CrowdParams(
        lam=0.0, ic_centers=((0.0, 0.0), (0.0, 0.0)), targets=((1.0, 0.0), (1.0, 0.0)), horizon=0.25
    )
    model0 = build_crowd_model(lam0)
    grid = Grid((-2.0, -2.0), (2.0, 2.0), (48, 48))
    m0 = tuple(model0.population(p).initial_law.grid_density(grid) for p in range(2))
    decoupled = solve_fpk(model0, m0, FpkConfig(t_final=0.25, record_times=times))

    base = CrowdParams(
        lam=1.5, sigma=(0.15, 0.15), ic_centers=((-0.5, 0.25), (0.6, 0.0)),
        targets=((1.0, 0.0), (-0.8, 0.2)), horizon=0.25,
    )
    mirror = CrowdParams(
        lam=1.5, sigma=(0.15, 0.15), ic_centers=((0.5, 0.25), (-0.6, 0.0)),
        targets=((-1.0, 0.0), (0.8, 0.2)), horizon=0.25,
    )
    ma, mb = build_crowd_model(base), build_crowd_model(mirror)
    pa = solve_fpk(ma, tuple(ma.population(p).initial_law.grid_density(grid) for p in range(2)),
                   FpkConfig(t_final=0.25, record_times=times))
    pb = solve_fpk(mb, tuple(mb.population(p).initial_law.grid_density(grid) for p in range(2)),
                   FpkConfig(t_final=0.25, record_times=times))
    return decoupled, pa, pb, grid


@pytest.fixture(scope="module")
def wealth_grid_path():
    model = build_wealth_model(WealthParams())
    grid = Grid((-2.0, 1e-6), (2.0, 4.0), (16, 24))
    m0 = model.population(0).initial_law.grid_density(grid)
    return solve_fpk(model, m0, FpkConfig(t_final=0.1, record_times=(0.0, 0.1)))


class TestCriterion3OuBenchmark:
    def test_particle_and_pde_agree(self, ou_fpk_path):
        t0 = time.time()
        model = ou_model(T=8.0)
        variances = []
        for seed in range(20):
            cfg = SimConfig(dt=1e-3, t_final=8.0, n_particles=10_000, seed=seed, record_every=10_000_000)
            rec = simulate_brs_nplayer(model, cfg)
            variances.append(rec.final().empirical().variance()[0])
        mean_var = float(np.mean(variances))
        assert abs(mean_var - 0.5) <= 0.05

        fpk_var = ou_fpk_path.final(0).variance()[0]
        assert abs(fpk_var - 0.5) <= 0.01

        cfg1 = SimConfig(dt=1e-3, t_final=1.0, n_particles=10_000, seed=0, record_every=10_000_000)
        rec1 = simulate_brs_nplayer(model, cfg1)
        k1 = int(np.argmin(np.abs(ou_fpk_path.times - 1.0)))
        w1 = wasserstein_1d(rec1.final().empirical(), ou_fpk_path.density(k1, 0), p=1)
        assert w1 <= 0.05
        elapsed = time.time() - t0
        print(f"PASS criterion 3: particle var {mean_var:.4f} (0.5±0.05), "
              f"FPK var {fpk_var:.4f} (0.5±0.01), W1(t=1) {w1:.4f} <= 0.05 [{elapsed:.1f} s]")


class TestCriterion4PropagationOfChaos:
    def test_w1_decreases_with_n(self, chaos_reference):
        t0 = time.time()
        model = ou_model(T=8.0)
        cfg = SimConfig(dt=1e-3, t_final=1.0, n_particles=2, seed=0, record_every=10_000_000)
        rows = propagation_of_chaos_study(
            model, cfg, [250, 1000, 4000], chaos_reference, seeds=range(20)
        )
        means = [r.mean_w1 for r in rows]
        assert means[0] > means[1] > means[2]
        ratio = means[0] / means[2]
        assert ratio >= 2.0
        elapsed = time.time() - t0
        print(f"PASS criterion 4: mean W1 {means[0]:.4f} > {means[1]:.4f} > {means[2]:.4f}, "
              f"N=250/4000 ratio {ratio:.2f} >= 2 [{elapsed:.1f} s]")


class TestCriterion5MfgSolver:
    def test_riccati_value_and_immediate_picard_convergence(self):
        t0 = time.time()
        model = lq_model(T=1.0)
        m0 = model.population(0).initial_law.grid_density(GRID_400)
        w = hjb_backward(model, constant_path(GRID_400, m0, np.array([0.0, 1.0])), GRID_400, n_t=8)
        mid = GRID_400.midpoints(0)
        worst = max(
            np.abs(w.values[k] - (mid**2 / 2 + (1.0 - t) / 2)).max()
            for k, t in enumerate(w.times)
        )
        assert worst <= 2e-2

        sol = solve_mfg_picard(model, m0, GRID_400, n_t=8)
        assert sol.converged and sol.n_iterations == 2
        assert sol.residuals[1] <= 1e-12
        elapsed = time.time() - t0
        print(f"PASS criterion 5: Riccati Linf {worst:.2e} <= 2e-2, "
              f"decoupled Picard residual {sol.residuals[1]:.1e} <= 1e-12 at iteration 2 [{elapsed:.1f} s]")


class TestCriterion6ConservationPositivity:
    def test_all_acceptance_pde_runs(self, ou_fpk_path, chaos_reference, crowd_paths, wealth_grid_path):
        paths = [ou_fpk_path, chaos_reference, wealth_grid_path] + list(crowd_paths[:3])
        for path in paths:
            assert path.report["mass_drift_max"] <= 1e-10
            assert path.report["min_density"] >= -1e-13
        # the whole-space benchmark domains are wide enough that no mass
        # reaches the box (the bounded wealth/crowd domains report theirs)
        for path in (ou_fpk_path, chaos_reference):
            assert path.report["boundary_mass_max"] <= 1e-8
        print("PASS criterion 6: mass drift <= 1e-10 and min density >= -1e-13 "
              f"on {len(paths)} acceptance PDE runs")


class TestCriterion7Crowd:
    def test_decoupling_and_mirror_symmetry(self, crowd_paths):
        t0 = time.time()
        decoupled, pa, pb, grid = crowd_paths
        gap = np.abs(decoupled.values[:, 0] - decoupled.values[:, 1]).max()
        assert gap <= 1e-12

        flipped = pb.values[:, :, ::-1, :]
        l1 = np.abs(pa.values - flipped).sum(axis=(2, 3)).max() * grid.cell_volume
        assert l1 <= 1e-3
        elapsed = time.time() - t0
        print(f"PASS criterion 7: lam=0 population gap {gap:.1e} <= 1e-12, "
              f"mirror L1 gap {l1:.1e} <= 1e-3 [{elapsed:.1f} s]")


class TestCriterion8WealthOracle:
    def test_double_loop_and_antisymmetry(self):
        t0 = time.time()
        params = WealthParams()
        model = build_wealth_model(params)
        k = params.resolved()
        rng = np.random.default_rng(77)
        n = 100
        pts = np.column_stack([rng.standard_normal(n), rng.lognormal(0, 0.3, n)])
        m = EmpiricalMeasure(pts)
        drift = brs_drift(model, 0, 0.0, pts, m)
        rho = [sum(float(k["psi"](abs(pts[a, 0] - pts[l, 0]))) for l in range(n)) / n for a in range(n)]
        worst = 0.0
        for i in range(n):
            acc = 0.0
            for j in range(n):
                acc -= (
                    float(k["xi"](0.5 * (rho[i] + rho[j])))
                    * float(k["psi"](abs(pts[i, 0] - pts[j, 0])))
                    * float(k["phi_prime"](pts[i, 1] - pts[j, 1]))
                ) / n
            worst = max(worst, abs(drift[i, 1] - acc))
        assert worst <= 1e-12

        pair_sum = abs(drift[:, 1].sum()) / n
        assert pair_sum <= 1e-12
        elapsed = time.time() - t0
        print(f"PASS criterion 8: N=100 double-loop gap {worst:.1e} <= 1e-12, "
              f"antisymmetry sum {pair_sum:.1e} <= 1e-12 [{elapsed:.1f} s]")


class TestCriterion9Determinism:
    def test_repeat_runs_agree_byte_for_byte(self, tmp_path):
        t0 = time.time()
        # criterion-3 style particle run
        sim_args = [
            "model.preset=ou", "model.T=8.0", "sim.dt=0.001", "sim.t_final=8.0",
            "sim.n_particles=10000", "sim.seed=0", "sim.record_every=2000",
        ]
        outs = []
        for tag in ("sim_a", "sim_b"):
            out = tmp_path / tag
            assert cli_run("simulate", None, list(sim_args), str(out)) == 0
            outs.append(out)
        for name in ("particles_final.csv", "metrics.csv", "report.txt"):
            assert filecmp.cmp(outs[0] / name, outs[1] / name, shallow=False)

        # criterion-7 style crowd run
        crowd_args = ["crowd.cells=32", "crowd.t_final=0.125", "crowd.n_records=2", "crowd.sigma=0.15"]
        outs = []
        for tag in ("crowd_a", "crowd_b"):
            out = tmp_path / tag
            assert cli_run("crowd", None, list(crowd_args), str(out)) == 0
            outs.append(out)
        for name in ("density.csv", "report.txt"):
            assert filecmp.cmp(outs[0] / name, outs[1] / name, shallow=False)
        elapsed = time.time() - t0
        print(f"PASS criterion 9: byte-identical outputs across two runs of one config "
              f"on the particle and crowd runs [{elapsed:.1f} s]")
