"""Model ingredients: analytic gradients, the best-reply drift, assumption audit."""

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
    is_zero,
    product_law,
    validate_assumptions,
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
        assert not is_zero(CostFunction(CostFunction.zero(1).value, CostFunction.zero(1).gradient))

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

    def test_nonfinite_ingredient_is_named(self):
        bad = DriftFunction(value=lambda x, m: np.full(np.shape(x), np.inf))
        model = scalar_model(h=quadratic_cost(), f=bad)
        with pytest.raises(FloatingPointError, match="drift f"):
            brs_drift(model, 0, 0.0, np.array([1.0]), EmpiricalMeasure(np.array([0.0])))


class TestControlPenalty:
    def test_positivity_checked(self):
        pen = ControlPenalty(alpha=lambda t: 1.0 - t, alpha_dot=lambda t: -1.0)
        with pytest.raises(ValueError, match="not positive"):
            pen.check(horizon=2.0)

    def test_inconsistent_derivative_rejected(self):
        pen = ControlPenalty(alpha=lambda t: 1.0 + t, alpha_dot=lambda t: 5.0)
        with pytest.raises(ValueError, match="alpha_dot"):
            pen.check(horizon=1.0)

    def test_valid_penalty_passes(self):
        ControlPenalty(alpha=lambda t: 1.0 + t, alpha_dot=lambda t: 1.0).check(1.0)


class TestValidateAssumptions:
    def test_quadratic_gradient_quotient_is_one(self):
        model = scalar_model(h=quadratic_cost())
        rep = validate_assumptions(model, sample_count=50, seed=0)
        q = rep.populations[0]
        assert q.running_grad_x == pytest.approx(1.0, abs=1e-6)
        assert q.running_grad_measure == pytest.approx(0.0, abs=1e-12)
        assert rep.ok

    def test_constant_diffusion_quotients_vanish(self):
        model = scalar_model(h=quadratic_cost(), sigma=1.0)
        rep = validate_assumptions(model, sample_count=30, seed=1)
        q = rep.populations[0]
        assert q.diffusion_t == 0.0 and q.diffusion_x == 0.0

    def test_wealth_quotients_bounded_by_kernel_derivatives(self):
        params = WealthParams()
        model = build_wealth_model(params)
        rep = validate_assumptions(model, sample_count=40, seed=2)
        q = rep.populations[0]
        k = params.resolved()
        # dense grid search for the kernel derivative extrema
        r = np.linspace(-8.0, 8.0, 200_001)
        psi_max = float(np.abs(k["psi"](r)).max())
        dpsi_max = float(np.abs(k["psi_prime"](r)).max())
        assert np.isfinite(q.running_grad_x)
        # crude but rigorous envelope for the sampled cloud scale
        rng = np.random.default_rng(2)
        pts = model.population(0).initial_law.sample(rng, 4000)
        z_span = float(pts[:, 1].max() - pts[:, 1].min())
        rho_max = psi_max
        xi_lip = 1.0  # xi is the identity by default
        bound = (
            rho_max * psi_max  # d/dz branch: xi * psi * phi'' with phi'' = 1
            + xi_lip * dpsi_max * (psi_max + dpsi_max * z_span) * 4.0
            + dpsi_max * z_span * 2.0
            + psi_max
        )
        assert q.running_grad_x <= bound

    def test_sample_count_validated(self):
        with pytest.raises(ValueError):
            validate_assumptions(scalar_model(), sample_count=1, seed=0)

    def test_cap_flags_fast_growth(self):
        steep = CostFunction(
            value=lambda x, m: np.asarray(x)[..., 0] ** 4 * 1e6,
            gradient=lambda x, m: 4e6 * np.asarray(x, dtype=float) ** 3,
        )
        model = scalar_model(h=steep)
        rep = validate_assumptions(model, sample_count=40, seed=3, cap=10.0)
        assert not rep.ok
        assert any("running_grad_x" in f for f in rep.flagged)


def scipy_normal_cdf(z, loc, scale):
    """The marginal CDFs' formula with scipy's erf, the reference for the library's own."""
    return 0.5 * (1.0 + erf((z - loc) / (scale * np.sqrt(2.0))))


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
