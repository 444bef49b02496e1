"""Particle system: integrator contract, determinism, couplings, chaos metrics."""

import itertools
import re
import sys
import threading
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import FixedNoise, em_step_oracle, gaussian_law, point_law, quadratic_cost, rk4, scalar_model

import brsmfg.particle_sim as particle_sim
from brsmfg.applications import CrowdParams, WealthParams, build_crowd_model, build_wealth_model
from brsmfg.brs import brs_control_finite
from brsmfg.fokker_planck import FpkConfig, solve_fpk
from brsmfg.measures import EmpiricalMeasure, Grid, leave_one_out, wasserstein_1d
from brsmfg.model import (
    ControlPenalty,
    CostFunction,
    DiffusionFunction,
    DriftFunction,
    ModelSpec,
    PopulationModel,
    brs_drift,
)
from brsmfg.particle_sim import (
    COUPLINGS,
    EnsembleState,
    SimConfig,
    propagation_of_chaos_study,
    simulate_brs_nplayer,
)
from brsmfg.presets import lq_model, mean_coupling_model, ou_model


def state_of(points):
    return EnsembleState(positions=(np.atleast_2d(np.asarray(points, dtype=float)).T,), t=0.0, seed=0)


def one_step(model, state, dt, rng, coupling="full_empirical"):
    """One particle step, built for ``state``'s particle count and taken once on a copy of its positions."""
    positions = tuple(p.copy() for p in state.positions)
    step = particle_sim._particle_step(model, dt, coupling, positions[0].shape[0])
    step(positions, state.t, [rng.standard_normal(p.shape) for p in positions])
    return EnsembleState(positions, state.t + dt, state.seed)


class TestEmStep:
    def test_deterministic_euler_with_constant_drift(self):
        # zero costs make the best reply 0, so f alone moves the particles
        model = scalar_model(f=DriftFunction(lambda x, m: np.full(np.shape(x), 2.0)), sigma=0.0)
        out = one_step(model, state_of([1.0, 1.0]), 0.1, np.random.default_rng(0))
        assert np.allclose(out.positions[0], 1.2)
        assert out.t == pytest.approx(0.1)

    def test_linear_drift(self):
        drift = DriftFunction(value=lambda x, m: -np.asarray(x, dtype=float))
        model = scalar_model(f=drift, sigma=0.0)
        out = one_step(model, state_of([1.0, 2.0]), 0.1, np.random.default_rng(0))
        assert np.allclose(out.positions[0][:, 0], [0.9, 1.8])

    def test_noise_matches_replayed_generator(self):
        model = scalar_model(sigma=1.0)
        x0 = np.array([[0.3], [-0.7], [1.1]])
        state = EnsembleState(positions=(x0,), t=0.0, seed=5)
        out = one_step(model, state, 0.04, np.random.default_rng(99))
        draw = np.random.default_rng(99).standard_normal((3, 1))
        assert np.array_equal(out.positions[0], x0 + np.sqrt(0.04) * draw)

    def test_overflowing_update_reports_particle(self):
        model = scalar_model(f=DriftFunction(lambda x, m: np.array([[0.0], [1e308]])), sigma=0.0)
        with np.errstate(over="ignore"), pytest.raises(FloatingPointError, match="^non-finite update for pop 0 particle 1$"):
            one_step(model, state_of([0.0, 0.0]), 10.0, np.random.default_rng(0))

    def test_exchangeability(self):
        model = mean_coupling_model()
        rng = np.random.default_rng(3)
        pts = rng.standard_normal((6, 1))
        perm = rng.permutation(6)
        noise = rng.standard_normal((6, 1))
        a = one_step(model, EnsembleState((pts,), 0.0, 0), 0.1, FixedNoise([noise]))
        b = one_step(model, EnsembleState((pts[perm],), 0.0, 0), 0.1, FixedNoise([noise[perm]]))
        assert np.array_equal(a.positions[0][perm], b.positions[0])


def not_linear(model):
    """The same model with no ingredient declared linear in m, so leave-one-out takes the per-player loop."""
    pops = tuple(
        replace(
            p,
            drift=replace(p.drift, linear=False),
            running_cost=replace(p.running_cost, linear=False),
            terminal_cost=replace(p.terminal_cost, linear=False),
        )
        for p in model.populations
    )
    return replace(model, populations=pops)


def pull(coef: float):
    """coef * (x - mean of population 0's measure) + x / 2, linear in m.

    The local term x / 2 makes the self term at delta_{x_i}, x_i / 2, non-zero.
    """

    def value(x, m):
        x = np.asarray(x, dtype=float)
        mu = (m[0] if isinstance(m, tuple) else m).mean()  # (d,), or one row per run of a stack of runs
        return coef * (x - (mu if mu.ndim == 1 else mu[:, None])) + 0.5 * x

    return value


def pull_cost(coef: float, d: int) -> CostFunction:
    if coef == 0.0:
        return CostFunction.zero(d)
    return CostFunction(value=lambda x, m: np.zeros(np.shape(x)[:-1]), gradient=pull(coef), linear=True)


def pull_drift(coef: float, d: int) -> DriftFunction:
    if coef == 0.0:
        return DriftFunction.zero(d)
    return DriftFunction(pull(coef), linear=True)


def step_model(d, n_pops, f_coef, g_coef, mask, floors, T=0.7, penalty=None, diffusion=None):
    """Pull-toward-the-mean ingredients; by default a time-varying penalty and a constant diffusion."""
    pop = PopulationModel(
        drift=pull_drift(f_coef, d),
        running_cost=pull_cost(1.1, d),
        terminal_cost=pull_cost(g_coef, d),
        penalty=penalty or ControlPenalty(alpha=lambda t: 1.5 + t, alpha_dot=lambda t: 1.0),
        diffusion=diffusion or DiffusionFunction.constant([0.4] * d),
        initial_law=gaussian_law(),
        control_mask=mask,
        reflect_lower=(-0.1,) + (None,) * (d - 1) if floors else None,
    )
    return ModelSpec(d=d, T=T, populations=(pop,) * n_pops)


class TestStepOracle:
    # every combination is run on each drawn cloud: (d, control mask), populations,
    # zero or non-zero f and g, reflection floors, coupling, declared linear or not
    STRUCTURES = list(
        itertools.product(
            [(1, None), (2, None), (2, (1.0, 0.0))],
            [1, 2],
            [0.0, -0.7],
            [0.0, 1.3],
            [False, True],
            COUPLINGS,
            [True, False],
        )
    )

    @settings(max_examples=15, deadline=None)
    @given(
        n=st.integers(2, 12),
        t=st.floats(0.0, 0.5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_best_reply_step_matches_reference_composition(self, n, t, seed):
        rng = np.random.default_rng(seed)
        for (d, mask), n_pops, f_coef, g_coef, floors, coupling, linear in self.STRUCTURES:
            model = step_model(d, n_pops, f_coef, g_coef, mask, floors)
            if not linear:
                model = not_linear(model)
            state = EnsembleState(tuple(rng.standard_normal((n, d)) for _ in range(n_pops)), t, 0)
            noises = [rng.standard_normal((n, d)) for _ in range(n_pops)]
            out = one_step(model, state, 0.05, FixedNoise(noises), coupling)
            want = em_step_oracle(model, state, 0.05, noises, coupling)
            for got, ref in zip(out.positions, want):
                assert np.array_equal(got, ref)


def varying_diffusion(t, x):
    """sigma(t, x) = 0.3 + 0.1 |x| + t: a closure with no declared diagonal."""
    return 0.3 + 0.1 * np.abs(np.asarray(x, dtype=float)) + t


def run_model(d, n_pops, f_coef, floors, constant_penalty, constant_diffusion):
    """A step model whose penalty and diffusion are declared constant or are closures of t."""
    return step_model(
        d, n_pops, f_coef, 1.3, None if d == 1 else (1.0, 0.0), floors,
        penalty=ControlPenalty.constant(1.5) if constant_penalty else None,
        diffusion=None if constant_diffusion else DiffusionFunction(varying_diffusion),
    )


class TestPerRunStep:
    # (d, populations, f, reflection floor, coupling, constant penalty, constant diffusion)
    STRUCTURES = list(
        itertools.product([1, 2], [1, 2], [0.0, -0.7], [False, True], COUPLINGS, [True, False], [True, False])
    )

    @pytest.mark.parametrize("d, n_pops, f_coef, floors, coupling, constant_penalty, constant_diffusion", STRUCTURES)
    def test_steps_of_one_run_match_the_reference_composition(
        self, d, n_pops, f_coef, floors, coupling, constant_penalty, constant_diffusion
    ):
        model = run_model(d, n_pops, f_coef, floors, constant_penalty, constant_diffusion)
        n, dt = 9, 0.05
        rng = np.random.default_rng(7)
        state = EnsembleState(tuple(rng.standard_normal((n, d)) for _ in range(n_pops)), 0.0, 0)
        step = particle_sim._particle_step(model, dt, coupling, n)
        want, positions, t = state.positions, tuple(p.copy() for p in state.positions), state.t
        for _ in range(6):
            noises = [rng.standard_normal((n, d)) for _ in range(n_pops)]
            want = em_step_oracle(model, EnsembleState(want, t, 0), dt, noises, coupling)
            step(positions, t, noises)
            t += dt
            for got, ref in zip(positions, want):
                assert np.array_equal(got, ref)

    @pytest.mark.parametrize("coupling", COUPLINGS)
    @pytest.mark.parametrize("constant", [True, False])
    def test_simulate_equals_repeated_reference_steps(self, coupling, constant):
        model = run_model(1, 2, -0.7, True, constant, constant)
        cfg = SimConfig(dt=0.05, t_final=0.35, n_particles=7, seed=3, coupling=coupling)
        positions = particle_sim.initial_state(model, cfg).positions
        rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(1)[0])
        t = 0.0
        for _ in range(cfg.n_steps()):
            noises = [rng.standard_normal((7, 1)) for _ in range(2)]
            positions = em_step_oracle(model, EnsembleState(positions, t, 0), cfg.dt, noises, coupling)
            t += cfg.dt
        for got, ref in zip(simulate_brs_nplayer(model, cfg).final().positions, positions):
            assert np.array_equal(got, ref)

    @pytest.mark.parametrize("window", [0.0, 0.05, 7.0])
    def test_a_declared_penalty_is_the_constant_at_any_window(self, window):
        def unused(t):
            raise AssertionError("a declared-constant penalty must not call its closures")

        value = 1.0 / 3.0
        penalty = ControlPenalty(alpha=unused, alpha_dot=unused, value=value)
        for t in (0.0, 0.4, 2.5):
            got = penalty.at(t, window)
            assert got is value
        model = step_model(2, 1, -0.7, 1.3, (1.0, 0.0), False, penalty=penalty)
        pts = np.random.default_rng(5).standard_normal((6, 2))
        m = EmpiricalMeasure(pts)
        assert np.array_equal(brs_drift(model, 0, 0.4, pts, m, window), brs_drift(model, 0, 0.4, pts, m))

    @pytest.mark.parametrize("mask", [None, (1.0, 0.0), (0.5, 2.0)])
    @pytest.mark.parametrize("f_coef", [0.0, -0.7])
    def test_the_window_drift_divides_by_alpha_plus_window_times_alpha_dot(self, mask, f_coef):
        # step_model's penalty is the closure alpha(t) = 1.5 + t, alpha_dot = 1
        model = step_model(2, 1, f_coef, 1.3, mask, False)
        p = model.population(0)
        pts = np.random.default_rng(11).standard_normal((7, 2))
        m = EmpiricalMeasure(pts)
        f = np.asarray(p.drift.value(pts, m), dtype=float)
        weights = np.ones(2) if mask is None else np.asarray(mask)
        grad = weights * (p.running_cost.gradient(pts, m) + p.terminal_cost.gradient(pts, m) / model.T)
        for t, dt in ((0.0, 0.05), (0.3, 0.01), (0.6, 0.1)):
            window = brs_drift(model, 0, t, pts, m, dt)
            assert np.array_equal(window, f - grad / ((1.5 + t) + dt * 1.0))
            limit = brs_drift(model, 0, t, pts, m, 0.0)
            assert np.array_equal(limit, f - grad / (1.5 + t))
            assert np.array_equal(limit, brs_drift(model, 0, t, pts, m))
            # the particle step moves by the window drift, in both couplings
            for coupling in COUPLINGS:
                out = one_step(model, EnsembleState((pts,), t, 0), dt, FixedNoise([np.zeros((7, 2))]), coupling)
                want = em_step_oracle(model, EnsembleState((pts,), t, 0), dt, [np.zeros((7, 2))], coupling)
                assert np.array_equal(out.positions[0], want[0])

    def test_a_nonpositive_window_denominator_names_t(self):
        # alpha(t) + dt * alpha_dot(t) = 0.1 + 0.1 * (-10) < 0, while alpha alone is positive
        model = step_model(1, 1, 0.0, 0.0, None, False, penalty=ControlPenalty(lambda t: 0.1, lambda t: -10.0))
        pts = np.array([[0.1], [0.2], [0.3]])
        message = "alpha(0.25) + 0.1 * alpha_dot(0.25) = -0.9 is not a positive finite number"
        with pytest.raises(FloatingPointError, match=f"^{re.escape(message)}$"):
            brs_drift(model, 0, 0.25, pts, EmpiricalMeasure(pts), 0.1)
        for coupling in COUPLINGS:
            with pytest.raises(FloatingPointError, match=f"^{re.escape(message)} in step pop 0$"):
                one_step(model, EnsembleState((pts,), 0.25, 0), 0.1, np.random.default_rng(0), coupling)
        assert brs_drift(model, 0, 0.25, pts, EmpiricalMeasure(pts)).shape == (3, 1)

    def test_steps_share_one_read_only_weight_vector(self):
        seen = []

        def value(x, m):
            seen.append(m.weights)
            return np.zeros(np.shape(x))

        step = particle_sim._particle_step(scalar_model(f=DriftFunction(value), sigma=0.5), 0.1, "full_empirical", 5)
        positions = state_of(np.linspace(0.0, 1.0, 5)).positions
        for k in range(3):
            step(positions, 0.1 * k, [np.random.default_rng(k).standard_normal((5, 1))])
        assert seen[0] is seen[1] is seen[2]
        assert not seen[0].flags.writeable
        assert np.array_equal(seen[0], np.full(5, 0.2))


def nonfinite_at(row: int, bad: float = np.inf):
    """An ingredient value (x, m) -> x, with ``bad`` in the given row."""

    def value(x, m):
        out = np.array(x, dtype=float)
        out[row] = bad
        return out

    return value


class TestNamedStepFailures:
    def two_pop_step(self, pop1, dt=0.1):
        """One best-reply step of a two-population model whose population 1 is ``pop1``."""
        pop0 = step_model(1, 1, 0.0, 0.0, None, False).population(0)
        model = ModelSpec(d=1, T=1.0, populations=(pop0, pop1))
        pts = np.array([[0.1], [0.2], [0.3]])
        one_step(model, EnsembleState((pts, pts.copy()), 0.0, 0), dt, np.random.default_rng(0))

    @pytest.mark.parametrize(
        "field, ingredient, message",
        [
            ("drift", DriftFunction(nonfinite_at(2)), "drift f produced non-finite value (inf) in brs_drift in step pop 1"),
            (
                "running_cost",
                CostFunction(value=None, gradient=nonfinite_at(2, np.nan)),
                "grad h produced non-finite value (nan) in cost_gradient_sum in step pop 1",
            ),
            (
                "terminal_cost",
                CostFunction(value=None, gradient=nonfinite_at(2)),
                "grad g produced non-finite value (inf) in cost_gradient_sum in step pop 1",
            ),
            (
                "diffusion",
                DiffusionFunction(lambda t, x: nonfinite_at(2, -np.inf)(x, None)),
                "diffusion sigma produced non-finite value (-inf) in step pop 1",
            ),
        ],
    )
    def test_ingredient_is_named(self, field, ingredient, message):
        pop1 = replace(step_model(1, 1, 0.0, 0.0, None, False).population(0), **{field: ingredient})
        with pytest.raises(FloatingPointError, match=f"^{re.escape(message)}$"):
            self.two_pop_step(pop1)

    @pytest.mark.parametrize("bad, shown", [(np.inf, "inf"), (np.nan, "nan"), (-np.inf, "-inf"), (-0.5, "-0.5")])
    def test_nonfinite_constant_diffusion_is_named(self, bad, shown):
        # a declared diagonal is checked where it is declared, so no step or run sees it
        message = f"diffusion entries must be finite and nonnegative, got (0.5, {shown})"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            DiffusionFunction.constant([0.5, bad])
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            DiffusionFunction(lambda t, x: np.zeros(np.shape(x)), diag=(0.5, bad))

    def test_nonfinite_update_names_population_and_particle(self):
        def huge(x, m):
            out = np.zeros(np.shape(x))
            out[2] = 1e308
            return out

        pop1 = replace(step_model(1, 1, 0.0, 0.0, None, False).population(0), drift=DriftFunction(huge))
        with np.errstate(over="ignore"), pytest.raises(FloatingPointError, match="^non-finite update for pop 1 particle 2$"):
            self.two_pop_step(pop1, dt=10.0)


def preset_model(name: str) -> ModelSpec:
    return {
        "ou": lambda: ou_model(T=1.0),
        "lq": lambda: lq_model(T=1.0),
        "mean_coupling": lambda: mean_coupling_model(strength=2.0),
        "wealth": lambda: build_wealth_model(WealthParams()),
        "crowd": lambda: build_crowd_model(CrowdParams()),
    }[name]()


class TestPermutationEquivariance:
    @pytest.mark.parametrize("preset", ["ou", "lq", "mean_coupling", "wealth", "crowd"])
    @pytest.mark.parametrize("coupling", COUPLINGS)
    @settings(max_examples=20, deadline=None)
    @given(linear=st.booleans(), n=st.integers(2, 20), seed=st.integers(0, 2**32 - 1))
    def test_permuting_particles_permutes_the_step(self, preset, coupling, linear, n, seed):
        model = preset_model(preset)
        if not linear:
            model = not_linear(model)
        rng = np.random.default_rng(seed)
        if model.d == 1:
            positions = (rng.uniform(-5.0, 5.0, (n, 1)),)
        else:
            # wealth and crowd evaluate player by player: a few particles from their initial laws
            n = min(n, 6)
            positions = tuple(p.initial_law.sample(rng, n) for p in model.populations)
        noises = [rng.standard_normal(p.shape) for p in positions]
        # each population by its own permutation
        perms = [rng.permutation(n) for _ in positions]
        a = one_step(model, EnsembleState(positions, 0.0, 0), 0.1, FixedNoise(noises), coupling)
        permuted = EnsembleState(tuple(p[k] for p, k in zip(positions, perms)), 0.0, 0)
        b = one_step(model, permuted, 0.1, FixedNoise([z[k] for z, k in zip(noises, perms)]), coupling)
        for got, ref, k in zip(b.positions, a.positions, perms):
            # the measure's sums take the points in another order: a few ulps
            np.testing.assert_allclose(got, ref[k], rtol=0.0, atol=1e-12)


class TestMirrorEquivariance:
    @pytest.mark.parametrize("preset", ["ou", "lq", "mean_coupling"])
    @pytest.mark.parametrize("coupling", COUPLINGS)
    @pytest.mark.parametrize("shape", [(15, 1), (3, 15, 1)], ids=["lone", "stacked"])
    def test_mirroring_positions_and_noise_mirrors_the_step(self, preset, coupling, shape):
        """The drifts are odd in x, negation is exact and rounding is symmetric: the bits mirror."""
        model = {"ou": ou_model(T=1.0), "lq": lq_model(T=1.0), "mean_coupling": mean_coupling_model(strength=2.0)}[preset]
        rng = np.random.default_rng(3)
        x, noise = rng.uniform(-4.0, 4.0, shape), rng.standard_normal(shape)
        step = particle_sim._particle_step(model, 0.1, coupling, shape[-2])
        ahead, mirrored = x.copy(), -x
        step((ahead,), 0.3, [noise])
        step((mirrored,), 0.3, [-noise])
        assert np.array_equal(mirrored, -ahead)


class TestSimulate:
    def test_determinism_bitwise(self):
        model = ou_model(T=1.0)
        cfg = SimConfig(dt=0.01, t_final=1.0, n_particles=500, seed=11, record_every=20)
        a = simulate_brs_nplayer(model, cfg)
        b = simulate_brs_nplayer(model, cfg)
        for sa, sb in zip(a.snapshots, b.snapshots):
            assert np.array_equal(sa.positions[0], sb.positions[0])

    def test_particle_count_conserved(self):
        model = ou_model(T=1.0)
        cfg = SimConfig(dt=0.05, t_final=0.5, n_particles=64, seed=0)
        rec = simulate_brs_nplayer(model, cfg)
        assert all(s.positions[0].shape == (64, 1) for s in rec.snapshots)

    def test_deterministic_exponential_decay(self):
        # sigma = 0, h = x^2/2: every particle follows dx/dt = -x from x0 = 1
        model = scalar_model(h=quadratic_cost(), sigma=0.0, init=point_law(1.0))
        cfg = SimConfig(dt=0.01, t_final=1.0, n_particles=8, seed=0)
        rec = simulate_brs_nplayer(model, cfg)
        final = rec.final().positions[0]
        assert np.allclose(final, np.exp(-1.0), atol=0.5 * cfg.dt)

    def test_order_against_rk4_reference(self):
        model = scalar_model(h=quadratic_cost(), sigma=0.0, init=point_law(1.0))
        errs = []
        for dt in (0.1, 0.05):
            cfg = SimConfig(dt=dt, t_final=1.0, n_particles=4, seed=0, record_every=1000)
            rec = simulate_brs_nplayer(model, cfg)
            ref = rk4(lambda t, x: -x, np.ones(1), 1.0, 512)
            errs.append(abs(rec.final().positions[0][0, 0] - ref[0]))
        order = np.log2(errs[0] / errs[1])
        assert order >= 0.9

    def test_ou_terminal_variance(self):
        model = ou_model(T=4.0)
        cfg = SimConfig(dt=0.002, t_final=4.0, n_particles=4000, seed=7, record_every=500)
        rec = simulate_brs_nplayer(model, cfg)
        var = rec.final().empirical().variance()[0]
        assert var == pytest.approx(0.5, abs=0.08)

    def test_nonintegral_step_count_is_rejected(self):
        with pytest.raises(ValueError, match=r"^t_final/dt = 3\.33+[0-9]* is not an integer: 3 steps end at t=0\.8999"):
            SimConfig(dt=0.3, t_final=1.0, n_particles=4, seed=0).n_steps()

    def test_coupling_gap_scales_like_one_over_n(self):
        model = mean_coupling_model(T=0.5)
        gaps = []
        for n in (100, 400):
            cfg_full = SimConfig(dt=0.025, t_final=0.5, n_particles=n, seed=21, coupling="full_empirical")
            cfg_loo = SimConfig(dt=0.025, t_final=0.5, n_particles=n, seed=21, coupling="leave_one_out")
            a = simulate_brs_nplayer(model, cfg_full).final().positions[0]
            b = simulate_brs_nplayer(model, cfg_loo).final().positions[0]
            gap = float(np.abs(a - b).max())
            gaps.append(gap)
            assert gap <= 10.0 / n
        slope = np.log(gaps[0] / gaps[1]) / np.log(400 / 100)
        assert slope == pytest.approx(1.0, abs=0.4)

    def test_repeat_runs_give_identical_results(self):
        model = mean_coupling_model(T=0.2)
        cfg = SimConfig(dt=0.02, t_final=0.2, n_particles=60, seed=5, coupling="leave_one_out")
        a = simulate_brs_nplayer(model, cfg)
        b = simulate_brs_nplayer(model, cfg)
        assert np.array_equal(a.final().positions[0], b.final().positions[0])

    @pytest.mark.parametrize("t_final", [0.0, -1.0, np.inf, np.nan])
    def test_t_final_must_be_positive_and_finite(self, t_final):
        with pytest.raises(ValueError, match="t_final must be positive and finite"):
            SimConfig(dt=0.01, t_final=t_final, n_particles=4, seed=0)

    @pytest.mark.parametrize("dt, shown", [(0.0, "0.0"), (-1.0, "-1.0"), (np.inf, "inf"), (np.nan, "nan")])
    def test_dt_must_be_positive_and_finite(self, dt, shown):
        # NaN used to pass the check and fail later, converting t_final/dt to a step count
        with pytest.raises(ValueError, match=f"^dt must be positive and finite, got {shown}$"):
            SimConfig(dt=dt, t_final=1.0, n_particles=4, seed=0)

    def test_record_times_strictly_increasing_and_state_consistent(self):
        model = ou_model(T=1.0)
        cfg = SimConfig(dt=0.01, t_final=1.0, n_particles=16, seed=0, record_every=7)
        rec = simulate_brs_nplayer(model, cfg)
        assert np.all(np.diff(rec.times) > 0)
        # snapshots every record_every steps, plus the final state
        steps = [*range(0, cfg.n_steps(), cfg.record_every), cfg.n_steps()]
        assert len(rec.snapshots) == len(steps)
        for snap, k, t in zip(rec.snapshots, steps, rec.times):
            assert all(np.isfinite(pts).all() for pts in snap.positions)
            assert snap.t == t
            assert abs(snap.t - k * cfg.dt) <= 1e-12


@pytest.fixture
def loo_calls(monkeypatch):
    """Counts the leave-one-out measures the particle step builds."""
    calls = []

    def counted(m, i):
        calls.append(i)
        return leave_one_out(m, i)

    monkeypatch.setattr(particle_sim, "leave_one_out", counted)
    return calls


def linear_ingredients():
    """(name, d, F) for every ingredient a shipped model declares linear in m: a drift's value, a cost's gradient."""
    found = []
    for name in ("ou", "lq", "mean_coupling", "wealth", "crowd"):
        model = preset_model(name)
        for pop, p in enumerate(model.populations):
            for field, ingredient, fn in (
                ("f", p.drift, p.drift.value),
                ("grad h", p.running_cost, p.running_cost.gradient),
                ("grad g", p.terminal_cost, p.terminal_cost.gradient),
            ):
                if ingredient.linear:
                    found.append((f"{name} pop {pop} {field}", model.d, fn))
    return found


class TestLeaveOneOutAlgebra:
    def test_declared_linear_cost_matches_generic_loop(self, loo_calls):
        model = mean_coupling_model(T=0.2)
        cfg = SimConfig(dt=0.02, t_final=0.2, n_particles=60, seed=5, coupling="leave_one_out")
        fast = simulate_brs_nplayer(model, cfg).final().positions[0]
        assert loo_calls == []
        slow = simulate_brs_nplayer(not_linear(model), cfg).final().positions[0]
        assert len(loo_calls) == 60 * cfg.n_steps()
        np.testing.assert_allclose(fast, slow, rtol=0.0, atol=1e-12)

    def test_linear_drift_matches_generic_loop(self, loo_calls):
        # a Gaussian-kernel drift, the integral of exp(-(x - y)^2) m(dy): its self term at delta_{x_i} is 1, not 0
        def value(x, m):
            x, y = np.asarray(x, dtype=float), m.points
            # a stack of runs meets its own run's points
            k = np.exp(-((x[..., None, :] - (y if y.ndim == 2 else y[:, None])) ** 2))
            return (k * m.weights[:, None]).sum(axis=-2)

        model = scalar_model(f=DriftFunction(value=value, linear=True))
        rng = np.random.default_rng(8)
        pts = rng.standard_normal((12, 1))
        noise = rng.standard_normal((12, 1))
        state = EnsembleState((pts,), 0.0, 0)
        a = one_step(model, state, 0.1, FixedNoise([noise]), "leave_one_out")
        assert loo_calls == []
        b = one_step(not_linear(model), state, 0.1, FixedNoise([noise]), "leave_one_out")
        assert len(loo_calls) == 12
        np.testing.assert_allclose(a.positions[0], b.positions[0], rtol=0.0, atol=1e-12)
        # a stack of three runs steps as the three runs one by one
        runs = rng.standard_normal((3, 12, 1))
        noises = rng.standard_normal((3, 12, 1))
        stacked = runs.copy()
        particle_sim._particle_step(model, 0.1, "leave_one_out", 12)((stacked,), 0.0, [noises])
        for run, z, got in zip(runs, noises, stacked):
            want = one_step(model, EnsembleState((run,), 0.0, 0), 0.1, FixedNoise([z]), "leave_one_out")
            assert np.array_equal(got, want.positions[0])

    @pytest.mark.parametrize("preset", ["ou", "lq"])
    def test_quadratic_costs_step_as_the_generic_loop(self, preset, loo_calls):
        model = preset_model(preset)
        rng = np.random.default_rng(4)
        pts = model.population(0).initial_law.sample(rng, 7)
        noise = rng.standard_normal(pts.shape)
        state = EnsembleState((pts,), 0.0, 0)
        a = one_step(model, state, 0.05, FixedNoise([noise]), "leave_one_out")
        assert loo_calls == []
        b = one_step(not_linear(model), state, 0.05, FixedNoise([noise]), "leave_one_out")
        np.testing.assert_allclose(a.positions[0], b.positions[0], rtol=0.0, atol=1e-12)

    def test_a_nonfinite_self_term_is_named_as_its_ingredient(self):
        def value(x, m):
            # finite against the full measure, infinite against the one-point measures
            return np.full(np.shape(x), np.inf if m.n == 1 else 0.0)

        model = scalar_model(f=DriftFunction(value, linear=True))
        message = "drift f produced non-finite value (inf) in brs_drift in step pop 0"
        with pytest.raises(FloatingPointError, match=f"^{re.escape(message)}$"):
            one_step(model, state_of([0.1, 0.2, 0.3]), 0.1, np.random.default_rng(0), "leave_one_out")

    def test_single_particle_is_rejected_when_linear(self):
        state = EnsembleState((np.zeros((1, 1)),), 0.0, 0)
        with pytest.raises(ValueError, match="leave-one-out"):
            one_step(mean_coupling_model(), state, 0.1, np.random.default_rng(0), "leave_one_out")

    def test_shipped_linear_ingredients_are_found(self):
        # mean_coupling's h, the OU and LQ quadratic costs, and the zero f and g
        names = [name for name, _, _ in linear_ingredients()]
        for want in ("mean_coupling pop 0 grad h", "ou pop 0 grad h", "lq pop 0 grad g", "ou pop 0 f", "ou pop 0 grad g"):
            assert want in names

    @settings(max_examples=60, deadline=None)
    @given(
        cloud=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=25),
        raw_weights=st.lists(st.floats(0.01, 1.0), min_size=25, max_size=25),
        query=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=5),
    )
    def test_linear_ingredients_are_linear_in_m(self, cloud, raw_weights, query):
        for name, d, fn in linear_ingredients():
            pts = np.asarray(cloud).reshape(-1, 1).repeat(d, axis=1)
            if d == 2:
                # a positive second axis, where the wealth state lives
                pts[:, 1] = 1.0 + np.abs(pts[:, 1])
            x = np.asarray(query)[:, None].repeat(d, axis=1)
            w = np.asarray(raw_weights[: len(pts)])
            w = w / w.sum()
            # F(x, sum_j w_j delta_{y_j}) = sum_j w_j F(x, delta_{y_j})
            mixed = sum(wj * np.asarray(fn(x, EmpiricalMeasure(y[None]))) for wj, y in zip(w, pts))
            np.testing.assert_allclose(fn(x, EmpiricalMeasure(pts, w)), mixed, rtol=0.0, atol=1e-12, err_msg=name)
            # the one-point measures delta_{x_i} as a stack of runs, bit for bit the loop over i
            own = x.reshape(-1, 1, d)
            stacked = np.asarray(fn(own, EmpiricalMeasure(own, np.ones(1))))
            looped = np.array([fn(x[i : i + 1], EmpiricalMeasure(x[i : i + 1])) for i in range(len(x))])
            assert stacked.shape == own.shape and stacked.tobytes() == looped.tobytes(), name

    def test_opaque_callables_take_the_generic_path(self, loo_calls):
        model = build_wealth_model(WealthParams())
        n, dt, t = 6, 0.01, 0.0
        rng = np.random.default_rng(17)
        pts = model.population(0).initial_law.sample(rng, n)
        noise = rng.standard_normal((n, 2))
        state = EnsembleState(positions=(pts,), t=t, seed=0)
        out = one_step(model, state, dt, FixedNoise([noise]), "leave_one_out")
        assert loo_calls == list(range(n))
        pmod = model.population(0)
        sig = pmod.diffusion.value(t, pts)
        for i in range(n):
            f = pmod.drift.value(pts[i], leave_one_out(EmpiricalMeasure(pts), i))
            u = brs_control_finite(model, 0, i, state, t, dt)
            want = pts[i] + (f + u) * dt + sig[i] * np.sqrt(dt) * noise[i]
            np.testing.assert_allclose(out.positions[0][i], want, rtol=1e-13, atol=1e-15)


@pytest.fixture(scope="module")
def reference():
    model = ou_model(T=1.0)
    grid = Grid((-6.0,), (6.0,), (200,))
    m0 = model.population(0).initial_law.grid_density(grid)
    path = solve_fpk(model, m0, FpkConfig(t_final=1.0, record_times=(0.0, 1.0)))
    return model, path


class TestChaosStudy:
    def test_identical_measures_have_zero_distance(self):
        m = EmpiricalMeasure(np.random.default_rng(0).standard_normal(50))
        assert wasserstein_1d(m, m, p=1) == 0.0

    def test_distance_decreases_with_n(self, reference):
        model, path = reference
        cfg = SimConfig(dt=0.01, t_final=1.0, n_particles=2, seed=0, record_every=1000)
        rows = propagation_of_chaos_study(model, cfg, [50, 200, 800], path, seeds=range(5))
        means = [r.mean_w1 for r in rows]
        assert means[0] > means[1] > means[2]

    def test_monte_carlo_error_scaling(self, reference):
        model, path = reference
        cfg = SimConfig(dt=0.01, t_final=1.0, n_particles=2, seed=0, record_every=1000)
        rows = propagation_of_chaos_study(model, cfg, [100], path, seeds=range(40))
        vals = rows[0].values
        sem10 = vals[:10].std(ddof=1) / np.sqrt(10)
        sem40 = vals.std(ddof=1) / np.sqrt(40)
        assert sem10 / sem40 == pytest.approx(2.0, rel=0.3)

    def test_each_value_is_the_w1_of_a_simulated_final_cloud(self, reference):
        _, path = reference
        # a time-varying penalty, so the window's dt * alpha_dot term is in the control
        model = scalar_model(h=quadratic_cost(), alpha=lambda t: 1.0 + t, alpha_dot=lambda t: 1.0)
        cfg = SimConfig(dt=0.05, t_final=1.0, n_particles=2, seed=0, record_every=1000)
        # three seeds, each stepped at three particle counts
        rows = propagation_of_chaos_study(model, cfg, [30, 40, 50], path, seeds=[4, 5, 6])
        assert [row.n_particles for row in rows] == [30, 40, 50]
        for row in rows:
            for seed, value in zip([4, 5, 6], row.values):
                run = replace(cfg, n_particles=row.n_particles, seed=seed)
                emp = simulate_brs_nplayer(model, run).final().empirical(0)
                assert value == wasserstein_1d(emp, path.final(0), p=1)

    @settings(max_examples=12, deadline=None)
    @given(
        n_values=st.lists(st.integers(2, 50), min_size=1, max_size=3, unique=True),
        n_seeds=st.integers(1, 4),
        streams=st.integers(1, 2),
        stacks=st.integers(1, 2),
        draw=st.integers(1, 200),
        coupling=st.sampled_from(COUPLINGS),
        preset=st.sampled_from(["mean_coupling", "closures"]),
        seed0=st.integers(0, 2**20),
    )
    def test_values_are_the_w1_of_independent_runs(
        self, reference, n_values, n_seeds, streams, stacks, draw, coupling, preset, seed0
    ):
        _, path = reference
        if preset == "mean_coupling":
            # declared linear in m: leave-one-out takes the linear algebra
            model = mean_coupling_model(strength=1.7)
        else:
            # not declared linear: leave-one-out takes the per-player path; penalty and diffusion are closures of t
            pop = scalar_model(h=quadratic_cost(), alpha=lambda t: 1.0 + t, alpha_dot=lambda t: 1.0).population(0)
            model = ModelSpec(d=1, T=1.0, populations=(replace(pop, diffusion=DiffusionFunction(varying_diffusion)),))
        cfg = SimConfig(dt=0.1, t_final=1.0, n_particles=2, seed=0, coupling=coupling)
        seeds = [seed0 + k for k in range(n_seeds)]
        n_max = max(n_values)
        with pytest.MonkeyPatch.context() as mp:
            # the seeds fall into `streams` streams, the largest N steps a stream's seeds
            # in `stacks` stacks, and slots of max(draw, N) values make steps straddle slots
            per_stream = -(-n_seeds // streams)
            mp.setattr(particle_sim, "_SEEDS", per_stream)
            mp.setattr(particle_sim, "_GROUP", n_max * -(-per_stream // stacks))
            mp.setattr(particle_sim, "_DRAW", draw)
            rows = propagation_of_chaos_study(model, cfg, n_values, path, seeds)
        for row, n in zip(rows, n_values):
            assert row.n_particles == n
            for seed, value in zip(seeds, row.values):
                emp = simulate_brs_nplayer(model, replace(cfg, n_particles=n, seed=seed)).final().empirical(0)
                assert value == wasserstein_1d(emp, path.final(0), p=1), (n, seed)

    def test_a_model_of_two_populations_is_rejected(self, reference):
        _, path = reference
        pop = ou_model(T=1.0).population(0)
        model = ModelSpec(d=1, T=1.0, populations=(pop, pop))
        cfg = SimConfig(dt=0.05, t_final=1.0, n_particles=10, seed=0)
        with pytest.raises(ValueError, match="^the W1 study metric takes one population, the model has 2$"):
            propagation_of_chaos_study(model, cfg, [10, 20], path, seeds=[0])

    def test_mismatched_time_grid_rejected(self, reference):
        model, path = reference
        cfg = SimConfig(dt=0.01, t_final=0.5, n_particles=10, seed=0)
        with pytest.raises(ValueError, match="mismatched time grids"):
            propagation_of_chaos_study(model, cfg, [10], path, seeds=[0])

    @pytest.mark.parametrize("n_list, seeds", [([], [0]), ([10], range(0))])
    def test_empty_study_rejected(self, reference, n_list, seeds):
        model, path = reference
        cfg = SimConfig(dt=0.01, t_final=1.0, n_particles=10, seed=0)
        with pytest.raises(ValueError, match="at least one particle count and at least one seed"):
            propagation_of_chaos_study(model, cfg, n_list, path, seeds)

    def test_a_rounded_step_count_is_rejected(self, reference):
        # 1.0 / 0.3 rounds to 3 steps, which end at t = 0.9, not at the reference's t = 1
        model, path = reference
        cfg = SimConfig(dt=0.3, t_final=1.0, n_particles=10, seed=0)
        threads = threading.active_count()
        with pytest.raises(ValueError, match=r"^t_final/dt = 3\.33+[0-9]* is not an integer: 3 steps end at t=0\.8999"):
            propagation_of_chaos_study(model, cfg, [10, 20], path, seeds=[0])
        assert threading.active_count() == threads
        with pytest.raises(ValueError, match=r"^t_final/dt = 3\.33+[0-9]* is not an integer: 3 steps end at t=0\.8999"):
            simulate_brs_nplayer(model, cfg)


class BrokenGenerator:
    """Stand-in generator whose draws fail after its first ``good`` draws."""

    def __init__(self, good=0, seed=0):
        self.good, self.rng = good, np.random.default_rng(seed)

    def standard_normal(self, out=None):
        if self.good == 0:
            raise RuntimeError("generator failed")
        self.good -= 1
        return self.rng.standard_normal(out=out)


class CountingGenerator:
    """A generator that counts the values it draws."""

    def __init__(self, rng):
        self.rng, self.drawn = rng, 0

    def standard_normal(self, out=None):
        self.drawn += out.size
        return self.rng.standard_normal(out=out)


def windows(stream, consumers, n_steps, before_advance=lambda: None):
    """Each step's (consumer, step, values) as the study reads them: consumer k is (rows, n), n values of each row a step."""
    taken = [0] * len(consumers)
    while True:
        for k, (rows, n) in enumerate(consumers):
            while taken[k] < n_steps and (taken[k] + 1) * n <= stream.end:
                yield k, taken[k], stream.take(rows, taken[k] * n, n)
                taken[k] += 1
        waiting = [j * n for j, (_, n) in zip(taken, consumers) if j < n_steps]
        if not waiting:
            return
        before_advance()
        stream.advance(min(waiting))


class TestNoiseStream:
    """Each seed's noise stream, drawn ahead on one thread, against sequential draws."""

    ALL = slice(None)
    # (seeds, consumers as (rows, values a step), slot width, steps): with a slot of
    # 8192 values a seed, steps of 1000 and 7000 straddle slots and steps of 4096 end
    # on slot ends, read by stacks of two seeds and of one; with 1 seed, 1500 steps of
    # 3 and 10 share each slot and straddle it; with 2 seeds and slots of the largest
    # step, 30 000, steps of 20 000 straddle every other slot end
    CASES = [
        ([11, 12, 13], [(ALL, 1000), (slice(0, 2), 4096), (slice(2, 3), 4096), (ALL, 7000)], 8192, 6),
        ([14], [(ALL, 3), (ALL, 10)], 8192, 1500),
        ([15, 16], [(slice(0, 1), 20000), (slice(1, 2), 20000), (ALL, 30000)], 30000, 3),
    ]

    # the default switch interval, and a short one that makes the two threads
    # interleave often, so a slot handed back too early would be overwritten
    @pytest.mark.parametrize("switch_s", [None, 1e-6])
    def test_values_are_the_sequential_draws_bit_for_bit(self, switch_s):
        threads = threading.active_count()
        interval = sys.getswitchinterval()
        try:
            sys.setswitchinterval(switch_s or interval)
            for seeds, consumers, width, n_steps in self.CASES:
                total = n_steps * max(n for _, n in consumers)
                want = np.stack([np.random.default_rng(seed).standard_normal(total) for seed in seeds])
                scratch = max(len(range(len(seeds))[rows]) * n for rows, n in consumers)
                stream = particle_sim._NoiseStream([np.random.default_rng(seed) for seed in seeds], total, width, scratch)
                seen, in_place = [], []

                def still_held():
                    # the views read in place since the last advance stay valid until it:
                    # the thread has had time to overwrite any slot handed back early
                    time.sleep(1e-3)
                    for values, wanted in in_place:
                        assert values.tobytes() == wanted.tobytes()
                    in_place.clear()

                with stream:
                    for k, step, values in windows(stream, consumers, n_steps, still_held):
                        rows, n = consumers[k]
                        wanted = want[rows, step * n : (step + 1) * n]
                        assert values.tobytes() == wanted.tobytes(), (seeds, k, step)
                        # read in place, unless the step straddles two slots
                        straddles = step * n // width != ((step + 1) * n - 1) // width
                        assert np.shares_memory(values, stream._scratch) == straddles, (seeds, k, step)
                        if not straddles:
                            in_place.append((values, wanted))
                        seen.append((k, step))
                    with pytest.raises(IndexError, match="the noise of every seed has been taken"):
                        stream.advance(stream.end)
                assert sorted(seen) == [(k, step) for k in range(len(consumers)) for step in range(n_steps)]
        finally:
            sys.setswitchinterval(interval)
        assert threading.active_count() == threads

    def test_producer_error_is_raised_in_the_caller(self):
        threads = threading.active_count()
        # the second seed's second slot fails: the first slot's steps are read, then the error
        stream = particle_sim._NoiseStream([np.random.default_rng(0), BrokenGenerator(good=1)], 5 * 8192, 8192, 10)
        steps = []
        with stream:
            with pytest.raises(RuntimeError, match="^generator failed$"):
                for _, step, _ in windows(stream, [(self.ALL, 5)], 8192):
                    steps.append(step)
        assert len(steps) == 8192 // 5
        assert threading.active_count() == threads

    def test_a_failing_generator_fails_the_study(self, reference, monkeypatch):
        model, path = reference

        real = particle_sim._noise_generator
        monkeypatch.setattr(particle_sim, "_noise_generator", lambda seed: BrokenGenerator() if seed == 5 else real(seed))
        cfg = SimConfig(dt=0.05, t_final=1.0, n_particles=2, seed=0)
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match="^generator failed$"):
            propagation_of_chaos_study(model, cfg, [10, 20], path, seeds=[4, 5])
        assert threading.active_count() == threads

    def test_a_failing_run_raises_its_own_error(self, reference):
        _, path = reference
        calls = []

        def value(x, m):
            calls.append(x.shape)
            if len(calls) == 30:  # the N = 20 stack's tenth step, after the N = 10 stack's 20
                raise FloatingPointError("drift failed")
            return np.zeros_like(x)

        model = scalar_model(f=DriftFunction(value))
        cfg = SimConfig(dt=0.05, t_final=1.0, n_particles=2, seed=0)
        threads = threading.active_count()
        # the step adds the population to the run's own error
        with pytest.raises(FloatingPointError, match="^drift failed in step pop 0$"):
            propagation_of_chaos_study(model, cfg, [10, 20], path, seeds=[4, 5])
        # one call a step for both seeds of an N
        assert calls == [(2, 10, 1)] * 20 + [(2, 20, 1)] * 10
        assert threading.active_count() == threads

    def interrupted_study(self, path, monkeypatch, where):
        """A study interrupted on the second call of the drift or of W1; the calls made."""
        calls = []

        def interrupt_on_second_call(fn):
            def interrupted(*args, **kwargs):
                calls.append(1)
                if len(calls) == 2:
                    raise KeyboardInterrupt
                return fn(*args, **kwargs)

            return interrupted

        drift = DriftFunction(lambda x, m: np.zeros_like(x))
        if where == "drift":
            drift = DriftFunction(interrupt_on_second_call(drift.value))
        else:
            monkeypatch.setattr(particle_sim, "wasserstein_1d", interrupt_on_second_call(particle_sim.wasserstein_1d))
        model = scalar_model(h=quadratic_cost(), f=drift)
        cfg = SimConfig(dt=0.05, t_final=1.0, n_particles=2, seed=0)
        threads = threading.active_count()
        with pytest.raises(KeyboardInterrupt):
            propagation_of_chaos_study(model, cfg, [10, 20], path, seeds=[4, 5])
        assert threading.active_count() == threads
        return calls

    def test_an_interrupt_stops_the_thread(self, reference, monkeypatch):
        assert len(self.interrupted_study(reference[1], monkeypatch, "w1")) == 2

    def test_an_interrupt_while_stepping_stops_the_thread(self, reference, monkeypatch):
        assert len(self.interrupted_study(reference[1], monkeypatch, "drift")) == 2

    def test_a_lone_run_starts_no_thread(self, reference, monkeypatch):
        model, path = reference

        def no_thread(*args, **kwargs):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(threading, "Thread", no_thread)
        cfg = SimConfig(dt=0.05, t_final=1.0, n_particles=10, seed=3)
        simulate_brs_nplayer(model, cfg)
        # the patch does see the study's thread
        with pytest.raises(AssertionError, match="a thread was started"):
            propagation_of_chaos_study(model, cfg, [10, 20], path, seeds=[4])

    def test_chaos_full_steps_eight_seeds_in_four_stacks(self, reference, monkeypatch):
        model, path = reference
        shapes, real = [], particle_sim._particle_step

        def recorded(*args):
            step = real(*args)

            def record(positions, t, noises):
                assert noises[0].shape == positions[0].shape
                shapes.append(positions[0].shape)
                step(positions, t, noises)

            return record

        monkeypatch.setattr(particle_sim, "_particle_step", recorded)
        # the benchmark's shape: 1000 steps of 8 seeds at N = 250, 1000 and 4000
        cfg = SimConfig(dt=0.001, t_final=1.0, n_particles=2, seed=0)
        propagation_of_chaos_study(model, cfg, [250, 1000, 4000], path, seeds=range(8))
        counts = {shape: shapes.count(shape) for shape in set(shapes)}
        assert counts == {(8, 250, 1): 1000, (8, 1000, 1): 1000, (4, 4000, 1): 2000}

    def test_twenty_seeds_start_three_threads_one_after_another(self, reference, monkeypatch):
        model, path = reference
        started, alive = [], []

        class Recorded(threading.Thread):
            def start(self):
                alive.append(sum(t.is_alive() for t in started))
                started.append(self)
                super().start()

        monkeypatch.setattr(threading, "Thread", Recorded)
        cfg = SimConfig(dt=0.05, t_final=1.0, n_particles=2, seed=0)
        propagation_of_chaos_study(model, cfg, [10, 20], path, seeds=range(20))
        # streams of 8, 8 and 4 seeds, each thread joined before the next starts
        assert len(started) == 3 and alive == [0, 0, 0]
        assert not any(t.is_alive() for t in started)

    def test_each_seed_draws_its_stream_once_for_the_largest_n(self, reference, monkeypatch):
        model, path = reference
        gens, real = {}, particle_sim._noise_generator

        def counting(seed):
            gens[seed] = CountingGenerator(real(seed))
            return gens[seed]

        monkeypatch.setattr(particle_sim, "_noise_generator", counting)
        cfg = SimConfig(dt=0.05, t_final=1.0, n_particles=2, seed=0)
        propagation_of_chaos_study(model, cfg, [7, 30, 45], path, seeds=[4, 5, 6])
        # n_steps * max(N) * populations * d values each
        assert {seed: g.drawn for seed, g in gens.items()} == {4: 20 * 45, 5: 20 * 45, 6: 20 * 45}
