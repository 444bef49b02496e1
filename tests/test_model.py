"""Model ingredients: analytic gradients, the best-reply drift, the checked penalty."""

import re

import numpy as np
import pytest
from scipy.special import erf

from _helpers import quadratic_cost, scalar_model

from brsmfg.applications import CrowdParams, WealthParams, build_crowd_model, build_wealth_model
from brsmfg.measures import EmpiricalMeasure, Grid
from brsmfg.model import (
    ControlPenalty,
    CostFunction,
    DiffusionFunction,
    DriftFunction,
    GaussianMarginal,
    LognormalMarginal,
    brs_drift,
    cost_gradient_sum,
    is_zero,
    product_law,
)
from brsmfg.presets import lq_model, mean_coupling_model, ou_model


def measure_for(model, rng, n=24):
    views = tuple(
        EmpiricalMeasure(model.population(p).initial_law.sample(rng, n))
        for p in range(model.n_populations)
    )
    return views[0] if model.n_populations == 1 else views


def preset_models():
    return {
        "ou": ou_model(),
        "lq": lq_model(),
        "mean_coupling": mean_coupling_model(),
        "wealth": build_wealth_model(WealthParams()),
        "crowd": build_crowd_model(CrowdParams()),
    }


class TestDeclaredStructure:
    def test_zero_ingredients_are_declared(self):
        assert is_zero(CostFunction.zero(1)) and is_zero(DriftFunction.zero(2))
        assert not is_zero(quadratic_cost())
        # the declaration is the identity of the zero's function, not a value that reads zero
        assert not is_zero(CostFunction(CostFunction.zero(1).value, lambda x, m: np.zeros(np.shape(x))))
        assert not is_zero(DriftFunction(lambda x, m: np.zeros(np.shape(x)), linear=True))

    def test_constant_diffusion_returns_fresh_writable_arrays(self):
        fn = DiffusionFunction.constant([0.5, 2.0])
        x = np.zeros((3, 2))
        a, b = fn.value(0.0, x), fn.value(0.0, x)
        assert np.array_equal(a, np.broadcast_to([0.5, 2.0], (3, 2)))
        a[0, 0] = 7.0
        assert b[0, 0] == 0.5
        assert np.array_equal(fn.value(0.0, x[0]), [0.5, 2.0])

    def test_constants_are_declared(self):
        pen = ControlPenalty.constant(2.5)
        assert pen.value == 2.5 and pen.alpha(0.7) == 2.5 and pen.alpha_dot(0.7) == 0.0
        assert ControlPenalty(alpha=lambda t: 1.0 + t, alpha_dot=lambda t: 1.0).value is None
        fn = DiffusionFunction.constant([0.5, 2.0])
        assert fn.diag == (0.5, 2.0)
        assert np.array_equal(fn.value(0.3, np.zeros((4, 2))), np.broadcast_to(fn.diag, (4, 2)))
        assert DiffusionFunction(lambda t, x: np.ones(np.shape(x))).diag is None
        assert all(m.population(0).penalty.value is not None for m in preset_models().values())

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
    def test_constant_penalty_must_be_positive_and_finite(self, bad):
        with pytest.raises(ValueError, match="penalty must be positive"):
            ControlPenalty.constant(bad)
        with pytest.raises(ValueError, match="penalty must be positive"):
            ControlPenalty(alpha=lambda t: bad, alpha_dot=lambda t: 0.0, value=bad)

    def test_masks_are_built_once_and_read_only(self):
        model = build_wealth_model(WealthParams())
        mask = model.mask(0)
        assert mask is model.mask(0) and not mask.flags.writeable
        assert np.array_equal(mask, [0.0, 1.0])
        assert np.array_equal(ou_model().mask(0), [1.0])
        assert np.array_equal(ou_model().with_horizon(2.0).mask(0), [1.0])

    @pytest.mark.parametrize("horizon", [0.0, -1.0, np.inf, np.nan])
    def test_horizon_must_be_positive_and_finite(self, horizon):
        with pytest.raises(ValueError, match="horizon must be positive and finite"):
            ou_model().with_horizon(horizon)


class TestGradientConsistency:
    @pytest.mark.parametrize("name", ["ou", "lq", "mean_coupling", "wealth", "crowd"])
    def test_gradient_matches_finite_differences(self, name):
        model = preset_models()[name]
        rng = np.random.default_rng(42)
        eps = 1e-6
        for _ in range(100):
            m = measure_for(model, rng)
            pop = int(rng.integers(model.n_populations))
            pmod = model.population(pop)
            x = pmod.initial_law.sample(rng, 1)[0]
            for cost in (pmod.running_cost, pmod.terminal_cost):
                grad = np.asarray(cost.gradient(x, m), dtype=float)
                for k in range(model.d):
                    dx = np.zeros(model.d)
                    dx[k] = eps * (1.0 + abs(x[k]))
                    fd = (float(cost.value(x + dx, m)) - float(cost.value(x - dx, m))) / (
                        2 * dx[k]
                    )
                    scale = max(abs(fd), abs(grad[k]), 1e-8)
                    assert abs(grad[k] - fd) / scale < 1e-5


class TestBrsDrift:
    def test_quadratic_cost(self):
        model = scalar_model(h=quadratic_cost())
        m = EmpiricalMeasure(np.array([0.0]))
        out = brs_drift(model, 0, 0.0, np.array([2.0]), m)
        assert out[0] == pytest.approx(-2.0)

    def test_interaction_at_the_mean(self):
        model = mean_coupling_model()
        m = EmpiricalMeasure(np.array([0.0, 2.0]))
        out = brs_drift(model, 0, 0.0, np.array([1.0]), m)
        assert out[0] == pytest.approx(0.0, abs=1e-14)

    def test_wealth_three_particles_against_double_loop(self):
        # O(N^2) double-loop oracle for the trading drift, plain Python floats
        params = WealthParams()
        model = build_wealth_model(params)
        k = params.resolved()
        pts = np.array([[0.3, 1.2], [-0.5, 0.8], [0.9, 1.7]])
        m = EmpiricalMeasure(pts)
        drift = brs_drift(model, 0, 0.0, pts, m)
        n = 3
        for i in range(n):
            rho = [
                sum(float(k["psi"](abs(pts[a, 0] - pts[l, 0]))) / n for l in range(n))
                for a in range(n)
            ]
            acc = 0.0
            for j in range(n):
                acc -= (
                    float(k["xi"](0.5 * (rho[i] + rho[j])))
                    * float(k["psi"](abs(pts[i, 0] - pts[j, 0])))
                    * float(k["phi_prime"](pts[i, 1] - pts[j, 1]))
                ) / n
            assert drift[i, 1] == pytest.approx(acc, abs=1e-12)
            # y-axis is uncontrolled and v defaults to zero
            assert drift[i, 0] == 0.0

    def test_penalty_inverse_homogeneity(self):
        h = quadratic_cost()
        rng = np.random.default_rng(1)
        xs = rng.standard_normal((50, 1))
        m = EmpiricalMeasure(np.array([0.0]))
        m1 = scalar_model(h=h, alpha=1.3)
        m2 = scalar_model(h=h, alpha=2.6)
        d1 = brs_drift(m1, 0, 0.0, xs, m)
        d2 = brs_drift(m2, 0, 0.0, xs, m)
        assert np.array_equal(d1 / 2.0, d2)  # f = 0, so drift is the control

    def test_horizon_independence_without_terminal_cost(self):
        h = quadratic_cost()
        m = EmpiricalMeasure(np.array([0.0]))
        xs = np.array([[0.7], [-1.1]])
        a = brs_drift(scalar_model(h=h, T=1.0), 0, 0.0, xs, m)
        b = brs_drift(scalar_model(h=h, T=8.0), 0, 0.0, xs, m)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("zero_f", [True, False])
    @pytest.mark.parametrize("constant_alpha", [True, False])
    def test_matches_the_full_composition_bit_for_bit(self, zero_f, constant_alpha):
        # a declared-zero f is skipped and a declared-constant alpha is read, signed zeros included
        f = DriftFunction.zero(1) if zero_f else DriftFunction(lambda x, m: np.sin(np.asarray(x)))
        alpha = 1.3 if constant_alpha else (lambda t: 1.0 + 0.5 * t)
        model = scalar_model(h=quadratic_cost(), f=f, alpha=alpha, alpha_dot=None if constant_alpha else (lambda t: 0.5))
        rng = np.random.default_rng(4)
        xs = np.concatenate([rng.standard_normal((30, 1)), [[0.0], [-0.0]]])
        m = EmpiricalMeasure(rng.standard_normal(20))
        t = 0.7
        pmod = model.population(0)
        expected = np.asarray(f.value(xs, m), dtype=float) - cost_gradient_sum(model, 0, xs, m) / pmod.penalty.alpha(t)
        got = brs_drift(model, 0, t, xs, m)
        assert np.array_equal(got, expected)
        assert np.array_equal(np.signbit(got), np.signbit(expected))

    def test_nonfinite_ingredient_is_named(self):
        bad = DriftFunction(value=lambda x, m: np.full(np.shape(x), np.inf))
        model = scalar_model(h=quadratic_cost(), f=bad)
        with pytest.raises(FloatingPointError, match="drift f"):
            brs_drift(model, 0, 0.0, np.array([1.0]), EmpiricalMeasure(np.array([0.0])))


class TestControlPenalty:
    @pytest.mark.parametrize("bad, shown", [(0.0, "0.0"), (-1.0, "-1.0"), (np.nan, "nan"), (np.inf, "inf")])
    def test_at_reads_a_declared_value_and_checks_a_closure(self, bad, shown):
        assert ControlPenalty.constant(2.5).at(0.3) == 2.5
        assert ControlPenalty(alpha=lambda t: 1.0 + t, alpha_dot=lambda t: 1.0).at(0.5) == 1.5
        message = f"alpha(0.2) = {shown} is not a positive finite number"
        with pytest.raises(FloatingPointError, match=f"^{re.escape(message)}$"):
            ControlPenalty(alpha=lambda t: bad, alpha_dot=lambda t: 0.0).at(0.2)


def scipy_normal_cdf(z, loc, scale):
    """The marginal CDFs' formula with scipy's erf, the reference for the library's own."""
    return 0.5 * (1.0 + erf((z - loc) / (scale * np.sqrt(2.0))))


class TestMarginalWidths:
    @pytest.mark.parametrize("bad, shown", [(-0.5, "-0.5"), (np.nan, "nan"), (np.inf, "inf"), (-np.inf, "-inf")])
    def test_a_negative_or_nonfinite_width_is_rejected(self, bad, shown):
        for marginal, name in ((GaussianMarginal, "std"), (LognormalMarginal, "sigma")):
            message = f"{name} must be nonnegative and finite, got {shown}"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                marginal(0.0, bad)

    def test_a_zero_width_is_accepted(self):
        assert GaussianMarginal(1.0, 0.0).std == 0.0
        assert LognormalMarginal(0.0, 0.0).sigma == 0.0


class TestMarginalCdf:
    # erf saturates to +-1 well inside +-40 standard deviations, so the tails are covered
    @pytest.mark.parametrize("mean, std", [(0.0, 1.0), (1.5, 0.3), (-2.0, 4.0)])
    def test_gaussian_matches_scipy_erf(self, mean, std):
        x = np.linspace(mean - 40.0 * std, mean + 40.0 * std, 200_001)
        got = GaussianMarginal(mean, std).cdf(x)
        assert got.shape == x.shape
        assert np.max(np.abs(got - scipy_normal_cdf(x, mean, std))) <= 4e-16

    @pytest.mark.parametrize("mu, sigma", [(0.0, 1.0), (0.5, 0.25), (-1.0, 2.0)])
    def test_lognormal_matches_scipy_erf(self, mu, sigma):
        x = np.concatenate([np.logspace(-300.0, 300.0, 100_001), np.linspace(1e-3, 50.0, 100_001)])
        got = LognormalMarginal(mu, sigma).cdf(x)
        assert got.shape == x.shape
        assert np.max(np.abs(got - scipy_normal_cdf(np.log(x), mu, sigma))) <= 4e-16

    def test_scalar_in_scalar_out(self):
        got = GaussianMarginal(0.5, 2.0).cdf(1.25)
        assert isinstance(got, np.floating)
        assert abs(got - scipy_normal_cdf(1.25, 0.5, 2.0)) <= 4e-16
        got = LognormalMarginal(0.5, 2.0).cdf(1.25)
        assert np.ndim(got) == 0
        assert abs(got - scipy_normal_cdf(np.log(1.25), 0.5, 2.0)) <= 4e-16

    def test_empty_and_nonpositive_input(self):
        for law in (GaussianMarginal(0.0, 1.0), LognormalMarginal(0.0, 1.0)):
            assert law.cdf(np.array([])).shape == (0,)
        got = LognormalMarginal(0.0, 1.0).cdf(np.array([-1e300, -2.0, -0.0, 0.0]))
        assert got.shape == (4,) and np.all(got == 0.0)

    @pytest.mark.parametrize(
        "grid, marginals",
        [
            (Grid((-6.0,), (6.0,), (401,)), (GaussianMarginal(0.3, 1.0),)),
            (Grid((1e-6,), (8.0,), (257,)), (LognormalMarginal(0.2, 0.6),)),
            (Grid((-3.0, 1e-6), (3.0, 4.0), (40, 41)), (GaussianMarginal(0.0, 1.0), LognormalMarginal(0.0, 0.5))),
        ],
    )
    def test_product_law_projection_mass_is_one(self, grid, marginals):
        assert abs(product_law(marginals).grid_density(grid).mass - 1.0) <= 1e-14


class TestInitialLaw:
    @pytest.mark.parametrize("name", ["ou", "wealth", "crowd"])
    def test_grid_projection_mass_is_one(self, name):
        model = preset_models()[name]
        if model.d == 1:
            grid = Grid((-6.0,), (6.0,), (64,))
        else:
            grid = Grid((-3.0, 1e-6 if name == "wealth" else -3.0), (3.0, 4.0 if name == "wealth" else 3.0), (24, 24))
        for p in range(model.n_populations):
            g = model.population(p).initial_law.grid_density(grid)
            assert abs(g.mass - 1.0) <= 1e-10

    def test_sampler_shape(self):
        model = preset_models()["crowd"]
        rng = np.random.default_rng(0)
        pts = model.population(1).initial_law.sample(rng, 13)
        assert pts.shape == (13, 2)
