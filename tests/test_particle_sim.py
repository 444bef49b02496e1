"""Particle system: integrator contract, determinism, couplings, chaos metrics."""

import itertools
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import FixedNoise, em_step_oracle, gaussian_law, point_law, quadratic_cost, rk4, scalar_model

import brsmfg.particle_sim as particle_sim
from brsmfg.applications import WealthParams, build_wealth_model
from brsmfg.brs import MpcConfig, brs_control_finite
from brsmfg.fokker_planck import FpkConfig, solve_fpk
from brsmfg.measures import EmpiricalMeasure, Grid, leave_one_out, wasserstein_1d
from brsmfg.model import (
    ControlPenalty,
    CostFunction,
    DiffusionFunction,
    DriftFunction,
    ModelSpec,
    PopulationModel,
)
from brsmfg.particle_sim import (
    COUPLINGS,
    EnsembleState,
    SimConfig,
    best_reply,
    em_step,
    propagation_of_chaos_study,
    simulate_brs_nplayer,
)
from brsmfg.presets import mean_coupling_model, ou_model


def state_of(points):
    return EnsembleState(positions=(np.atleast_2d(np.asarray(points, dtype=float)).T,), t=0.0, seed=0)


class TestEmStep:
    def test_deterministic_euler_with_control(self):
        model = scalar_model(sigma=0.0)
        out = em_step(
            model,
            state_of([1.0, 1.0]),
            dt=0.1,
            rng=np.random.default_rng(0),
            control=lambda pop, t: DriftFunction(lambda x, m: np.full(np.shape(x), 2.0)),
        )
        assert np.allclose(out.positions[0], 1.2)
        assert out.step_index == 1 and out.t == pytest.approx(0.1)

    def test_linear_drift(self):
        drift = DriftFunction(value=lambda x, m: -np.asarray(x, dtype=float))
        model = scalar_model(f=drift, sigma=0.0)
        out = em_step(model, state_of([1.0, 2.0]), 0.1, np.random.default_rng(0))
        assert np.allclose(out.positions[0][:, 0], [0.9, 1.8])

    def test_noise_matches_replayed_generator(self):
        model = scalar_model(sigma=1.0)
        x0 = np.array([[0.3], [-0.7], [1.1]])
        state = EnsembleState(positions=(x0,), t=0.0, seed=5)
        out = em_step(model, state, 0.04, np.random.default_rng(99))
        draw = np.random.default_rng(99).standard_normal((3, 1))
        assert np.array_equal(out.positions[0], x0 + np.sqrt(0.04) * draw)

    def test_nonfinite_control_reports_particle(self):
        model = scalar_model(sigma=0.0)
        with pytest.raises(FloatingPointError, match="particle 1"):
            em_step(
                model,
                state_of([0.0, 0.0]),
                dt=0.1,
                rng=np.random.default_rng(0),
                control=lambda pop, t: DriftFunction(lambda x, m: np.array([[0.0], [np.inf]])),
            )

    def test_exchangeability(self):
        model = mean_coupling_model()
        rng = np.random.default_rng(3)
        pts = rng.standard_normal((6, 1))
        perm = rng.permutation(6)
        noise = rng.standard_normal((6, 1))
        a = em_step(model, EnsembleState((pts,), 0.0, 0), 0.1, FixedNoise([noise]))
        b = em_step(model, EnsembleState((pts[perm],), 0.0, 0), 0.1, FixedNoise([noise[perm]]))
        assert np.array_equal(a.positions[0][perm], b.positions[0])


def without_kernels(model):
    """The same model with every pairwise-kernel declaration removed."""
    pops = tuple(
        replace(
            p,
            drift=replace(p.drift, pair_value=None),
            running_cost=replace(p.running_cost, pair_gradient=None),
            terminal_cost=replace(p.terminal_cost, pair_gradient=None),
        )
        for p in model.populations
    )
    return replace(model, populations=pops)


def pull(coef: float):
    """coef * (x - mean of population 0's measure) + x / 2, with its pairwise kernel coef * (x - y) + x / 2.

    The local term x / 2 makes the kernel's self-interaction k(x, x) non-zero.
    """

    def value(x, m):
        x = np.asarray(x, dtype=float)
        m0 = m[0] if isinstance(m, tuple) else m
        return coef * (x - m0.mean()) + 0.5 * x

    def kernel(x, y):
        x = np.asarray(x, dtype=float)
        return coef * (x - np.asarray(y, dtype=float)) + 0.5 * x

    return value, kernel


def pull_cost(coef: float, d: int) -> CostFunction:
    if coef == 0.0:
        return CostFunction.zero(d)
    grad, kernel = pull(coef)
    return CostFunction(value=lambda x, m: np.zeros(np.shape(x)[:-1]), gradient=grad, pair_gradient=kernel)


def pull_drift(coef: float, d: int) -> DriftFunction:
    if coef == 0.0:
        return DriftFunction.zero(d)
    return DriftFunction(*pull(coef))


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
    # zero or non-zero f and g, reflection floors, coupling, declared kernels or not
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
        use_alpha_dot=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_best_reply_step_matches_reference_composition(self, n, t, use_alpha_dot, seed):
        mpc = MpcConfig(dt=0.05, use_alpha_dot=use_alpha_dot)
        rng = np.random.default_rng(seed)
        for (d, mask), n_pops, f_coef, g_coef, floors, coupling, kernels in self.STRUCTURES:
            model = step_model(d, n_pops, f_coef, g_coef, mask, floors)
            if not kernels:
                model = without_kernels(model)
            state = EnsembleState(tuple(rng.standard_normal((n, d)) for _ in range(n_pops)), t, 0)
            noises = [rng.standard_normal((n, d)) for _ in range(n_pops)]
            out = em_step(model, state, 0.05, FixedNoise(noises), coupling, best_reply(model, mpc))
            want = em_step_oracle(model, state, 0.05, noises, coupling, mpc)
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
        mpc, n, dt = MpcConfig(dt=0.05), 9, 0.05
        rng = np.random.default_rng(7)
        state = EnsembleState(tuple(rng.standard_normal((n, d)) for _ in range(n_pops)), 0.0, 0)
        step = particle_sim._particle_step(model, dt, coupling, best_reply(model, mpc), [n] * n_pops)
        want = state.positions
        for _ in range(6):
            noises = [rng.standard_normal((n, d)) for _ in range(n_pops)]
            want = em_step_oracle(model, EnsembleState(want, state.t, 0), dt, noises, coupling, mpc)
            state = step(state, FixedNoise(noises))
            for got, ref in zip(state.positions, want):
                assert np.array_equal(got, ref)

    @pytest.mark.parametrize("coupling", COUPLINGS)
    @pytest.mark.parametrize("constant", [True, False])
    def test_simulate_equals_repeated_em_step(self, coupling, constant):
        model = run_model(1, 2, -0.7, True, constant, constant)
        cfg = SimConfig(dt=0.05, t_final=0.35, n_particles=7, seed=3, coupling=coupling)
        mpc = MpcConfig(dt=cfg.dt)
        state = particle_sim.initial_state(model, cfg)
        rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(1)[0])
        control = best_reply(model, mpc)
        for _ in range(cfg.n_steps()):
            state = em_step(model, state, cfg.dt, rng, coupling, control)
        for got, ref in zip(simulate_brs_nplayer(model, cfg, mpc).final().positions, state.positions):
            assert np.array_equal(got, ref)

    def test_constant_penalty_gives_one_control_for_every_t(self):
        mpc = MpcConfig(dt=0.05)
        constant = best_reply(run_model(1, 1, 0.0, False, True, True), mpc)
        varying = best_reply(run_model(1, 1, 0.0, False, False, True), mpc)
        assert constant(0, 0.0) is constant(0, 0.35)
        assert varying(0, 0.0) is not varying(0, 0.0)

    def test_steps_share_one_read_only_weight_vector(self):
        seen = []

        def control(pop, t):
            def value(x, m):
                seen.append(m.weights)
                return np.zeros(np.shape(x))

            return DriftFunction(value)

        step = particle_sim._particle_step(scalar_model(sigma=0.5), 0.1, "full_empirical", control, [5])
        state = state_of(np.linspace(0.0, 1.0, 5))
        for _ in range(3):
            state = step(state, np.random.default_rng(0))
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
        state = EnsembleState((pts, pts.copy()), 0.0, 0)
        em_step(model, state, dt, np.random.default_rng(0), "full_empirical", best_reply(model, MpcConfig(dt=0.01)))

    @pytest.mark.parametrize(
        "field, ingredient, message",
        [
            ("drift", DriftFunction(nonfinite_at(2)), "drift f produced non-finite value (inf) in step pop 1"),
            (
                "running_cost",
                CostFunction(value=None, gradient=nonfinite_at(2, np.nan)),
                "grad h produced non-finite value (nan) in cost_gradient_sum",
            ),
            (
                "terminal_cost",
                CostFunction(value=None, gradient=nonfinite_at(2)),
                "grad g produced non-finite value (inf) in cost_gradient_sum",
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


class TestPermutationEquivariance:
    @settings(max_examples=60, deadline=None)
    @given(
        preset=st.sampled_from(["ou", "mean_coupling"]),
        coupling=st.sampled_from(COUPLINGS),
        kernels=st.booleans(),
        n=st.integers(2, 20),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_permuting_particles_permutes_the_step(self, preset, coupling, kernels, n, seed):
        model = ou_model(T=1.0) if preset == "ou" else mean_coupling_model(strength=2.0)
        if not kernels:
            model = without_kernels(model)
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-5.0, 5.0, (n, 1))
        noise = rng.standard_normal((n, 1))
        perm = rng.permutation(n)
        control = best_reply(model, MpcConfig(dt=0.1))
        a = em_step(model, EnsembleState((pts,), 0.0, 0), 0.1, FixedNoise([noise]), coupling, control)
        b = em_step(model, EnsembleState((pts[perm],), 0.0, 0), 0.1, FixedNoise([noise[perm]]), coupling, control)
        # the measure's mean sums the points in another order: a few ulps of |x| <= 5
        np.testing.assert_allclose(b.positions[0], a.positions[0][perm], rtol=0.0, atol=1e-12)


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

    def test_rounding_warning_for_nonintegral_step_count(self):
        with pytest.warns(UserWarning, match="rounding"):
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

    def test_record_times_strictly_increasing_and_state_consistent(self):
        model = ou_model(T=1.0)
        cfg = SimConfig(dt=0.01, t_final=1.0, n_particles=16, seed=0, record_every=7)
        rec = simulate_brs_nplayer(model, cfg)
        assert np.all(np.diff(rec.times) > 0)
        for snap in rec.snapshots:
            snap.check(dt=cfg.dt)

    def test_state_check_rejects_inconsistent_clock(self):
        state = EnsembleState(positions=(np.zeros((2, 1)),), t=1.0, seed=0, step_index=3)
        with pytest.raises(ValueError, match="step_index"):
            state.check(dt=0.1)
        bad = EnsembleState(positions=(np.array([[np.nan]]),), t=0.0, seed=0)
        with pytest.raises(FloatingPointError, match="non-finite"):
            bad.check()


@pytest.fixture
def loo_calls(monkeypatch):
    """Counts the leave-one-out measures the particle step builds."""
    calls = []

    def counted(m, i):
        calls.append(i)
        return leave_one_out(m, i)

    monkeypatch.setattr(particle_sim, "leave_one_out", counted)
    return calls


class TestLeaveOneOutKernel:
    def test_declared_kernel_matches_generic_loop(self, loo_calls):
        model = mean_coupling_model(T=0.2)
        cfg = SimConfig(dt=0.02, t_final=0.2, n_particles=60, seed=5, coupling="leave_one_out")
        fast = simulate_brs_nplayer(model, cfg).final().positions[0]
        assert loo_calls == []
        slow = simulate_brs_nplayer(without_kernels(model), cfg).final().positions[0]
        assert len(loo_calls) == 60 * cfg.n_steps()
        np.testing.assert_allclose(fast, slow, rtol=0.0, atol=1e-12)

    def test_em_step_drift_kernel_matches_generic_loop(self, loo_calls):
        # Gaussian kernel: its self-interaction k(x, x) = 1 is not zero
        def kernel(x, y):
            return np.exp(-((np.asarray(x) - np.asarray(y)) ** 2))

        def value(x, m):
            k = kernel(np.asarray(x, dtype=float)[..., None, :], m.points)
            return (k * m.weights[:, None]).sum(axis=-2)

        drift = DriftFunction(value=value, pair_value=kernel)
        model = scalar_model(f=drift)
        rng = np.random.default_rng(8)
        pts = rng.standard_normal((12, 1))
        noise = rng.standard_normal((12, 1))
        state = EnsembleState((pts,), 0.0, 0)
        a = em_step(model, state, 0.1, FixedNoise([noise]), coupling="leave_one_out")
        assert loo_calls == []
        b = em_step(without_kernels(model), state, 0.1, FixedNoise([noise]), coupling="leave_one_out")
        assert len(loo_calls) == 12
        np.testing.assert_allclose(a.positions[0], b.positions[0], rtol=0.0, atol=1e-12)

    def test_single_particle_is_rejected_with_a_kernel(self):
        state = EnsembleState((np.zeros((1, 1)),), 0.0, 0)
        with pytest.raises(ValueError, match="leave-one-out"):
            em_step(mean_coupling_model(), state, 0.1, np.random.default_rng(0), coupling="leave_one_out")

    @settings(max_examples=60, deadline=None)
    @given(
        cloud=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=25),
        query=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=5),
        strength=st.floats(0.01, 5.0),
    )
    def test_declared_kernels_match_their_closures(self, cloud, query, strength):
        pts = np.asarray(cloud)[:, None]
        x = np.asarray(query)[:, None]
        m = EmpiricalMeasure(pts)
        h = mean_coupling_model(strength=strength).population(0).running_cost
        zero_cost, zero_drift = CostFunction.zero(1), DriftFunction.zero(1)
        declared = [
            (h.gradient, h.pair_gradient),
            (zero_cost.gradient, zero_cost.pair_gradient),
            (zero_drift.value, zero_drift.pair_value),
        ]
        for closure, kernel in declared:
            want = kernel(x[:, None, :], pts[None, :, :]).mean(axis=1)
            np.testing.assert_allclose(closure(x, m), want, rtol=1e-12, atol=1e-12)

    def test_opaque_callables_take_the_generic_path(self, loo_calls):
        model = build_wealth_model(WealthParams())
        n, dt, t = 6, 0.01, 0.0
        rng = np.random.default_rng(17)
        pts = model.population(0).initial_law.sample(rng, n)
        noise = rng.standard_normal((n, 2))
        state = EnsembleState(positions=(pts,), t=t, seed=0)
        mpc = MpcConfig(dt=dt)
        out = em_step(model, state, dt, FixedNoise([noise]), "leave_one_out", best_reply(model, mpc))
        assert loo_calls == list(range(n))
        pmod = model.population(0)
        sig = pmod.diffusion.value(t, pts)
        for i in range(n):
            f = pmod.drift.value(pts[i], leave_one_out(EmpiricalMeasure(pts), i))
            u = brs_control_finite(model, 0, i, state, t, mpc)
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

    def test_window_config_reaches_every_run(self, reference):
        _, path = reference
        # alpha_dot != 0, so dropping the dt * alpha_dot term changes the control
        model = scalar_model(h=quadratic_cost(), alpha=lambda t: 1.0 + t, alpha_dot=lambda t: 1.0)
        cfg = SimConfig(dt=0.05, t_final=1.0, n_particles=30, seed=4, record_every=1000)
        values = {}
        for use_alpha_dot in (True, False):
            mpc = MpcConfig(dt=0.05, use_alpha_dot=use_alpha_dot)
            rows = propagation_of_chaos_study(model, cfg, [30], path, seeds=[4], mpc=mpc)
            emp = simulate_brs_nplayer(model, cfg, mpc).final().empirical(0)
            assert rows[0].values[0] == wasserstein_1d(emp, path.final(0), p=1)
            values[use_alpha_dot] = rows[0].values[0]
        assert values[True] != values[False]
        default = propagation_of_chaos_study(model, cfg, [30], path, seeds=[4])
        assert default[0].values[0] == values[True]

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
