import numpy as np
import pytest

import spectramap as sm
from spectramap.errors import ConfigurationError
from spectramap.kernels import (
    grad_log_one_minus_phi_rows,
    grad_log_phi_rows,
    log_one_minus_phi,
    log_phi,
    target_curve,
)


def central_diff(f, y, h=1e-6):
    g = np.zeros_like(y, dtype=np.float64)
    for i in range(y.size):
        e = np.zeros_like(g)
        e[i] = h
        g[i] = (f(y + e) - f(y - e)) / (2 * h)
    return g


class TestPhi:
    def test_zero_distance_gives_one(self):
        assert sm.phi(0.0, sm.KernelParams.cauchy(2.0, 0.5)) == 1.0
        assert sm.phi(0.0, sm.KernelParams.gaussian(0.7)) == 1.0

    def test_unit_cauchy(self):
        assert sm.phi(1.0, sm.KernelParams.cauchy(1.0, 1.0)) == 0.5

    def test_default_shape_parameters(self):
        p = sm.KernelParams.cauchy(1.929, 0.7915)
        np.testing.assert_allclose(sm.phi(1.0, p), 1.0 / 2.929, atol=5e-6)

    def test_strictly_decreasing_and_in_range(self):
        s = np.linspace(0.0, 50.0, 500)
        for p in (sm.KernelParams.cauchy(1.5, 0.8), sm.KernelParams.gaussian(1.0)):
            vals = sm.phi(s, p)
            assert np.all(vals > 0.0) and np.all(vals <= 1.0)
            assert np.all(np.diff(vals) < 0.0)

    def test_one_minus_phi_complements(self):
        s = np.geomspace(1e-12, 100.0, 200)
        for p in (sm.KernelParams.cauchy(1.2, 0.9), sm.KernelParams.gaussian(2.0)):
            np.testing.assert_allclose(
                sm.one_minus_phi(s, p), 1.0 - sm.phi(s, p), atol=1e-15
            )

    def test_small_distance_log_expansion(self):
        # log phi ~ -a s^b as s -> 0: the first-order anchor
        p = sm.KernelParams.cauchy(1.7, 0.9)
        s = np.geomspace(1e-9, 1e-5, 20)
        ratio = log_phi(s, p) / (-p.a * s**p.b)
        np.testing.assert_allclose(ratio, 1.0, atol=1e-4)

    def test_bad_params_rejected(self):
        with pytest.raises(ConfigurationError):
            sm.KernelParams.cauchy(a=-1.0)
        with pytest.raises(ConfigurationError):
            sm.KernelParams.gaussian(tau=0.0)
        with pytest.raises(ConfigurationError):
            sm.KernelParams(family="triangle")


class TestFitAb:
    def test_default_profile_values(self):
        # the stated target curve at min_dist = 0.1 fits to roughly
        # (1.577, 0.895); the values often quoted as the canonical pair,
        # (1.929, 0.7915), are what the same procedure yields at min_dist -> 0
        fit = sm.fit_ab(0.1)
        np.testing.assert_allclose(fit.fitted_a, 1.577, rtol=0.01)
        np.testing.assert_allclose(fit.fitted_b, 0.895, rtol=0.01)

    def test_zero_min_dist_reproduces_canonical_pair(self):
        fit = sm.fit_ab(0.0)
        assert abs(fit.fitted_a - 1.929) / 1.929 <= 0.02
        assert abs(fit.fitted_b - 0.7915) / 0.7915 <= 0.02

    def test_zero_distance_matches_target_exactly(self):
        fit = sm.fit_ab(0.0)
        p = sm.KernelParams.cauchy(fit.fitted_a, fit.fitted_b)
        assert sm.phi(0.0, p) == 1.0 == target_curve(np.array([0.0]), 0.0)[0]

    def test_beats_unit_baseline(self):
        fit = sm.fit_ab(0.5)
        grid = np.arange(0.0, 3.005, 0.01)
        y = target_curve(grid, 0.5)
        baseline = 1.0 / (1.0 + grid**2.0) - y
        baseline_rmse = np.sqrt((baseline**2).mean())
        assert fit.fit_rmse <= baseline_rmse

    def test_monotone_in_min_dist(self):
        # larger plateaus need smaller a (slower decay onset)
        fits = [sm.fit_ab(md).fitted_a for md in (0.0, 0.25, 0.5)]
        assert fits[0] > fits[1] > fits[2]

    def test_out_of_range_rejected(self):
        with pytest.raises(ConfigurationError):
            sm.fit_ab(3.0)
        with pytest.raises(ConfigurationError):
            sm.fit_ab(-0.1)


class TestAttractiveGradient:
    def test_gaussian_linear(self):
        g = grad_log_phi_rows(np.array([[1.0, 0.0]]), sm.KernelParams.gaussian(1.0))[0]
        np.testing.assert_allclose(g, [-1.0, 0.0])

    def test_cauchy_unit_fixture(self):
        g = grad_log_phi_rows(np.array([[1.0, 0.0]]), sm.KernelParams.cauchy(1.0, 1.0))[0]
        np.testing.assert_allclose(g, [-1.0, 0.0], atol=1e-12)

    def test_coincident_points_stationary(self):
        y = np.array([0.3, -0.2])
        for p in (
            sm.KernelParams.cauchy(1.0, 1.0),
            sm.KernelParams.cauchy(1.9, 0.79),
            sm.KernelParams.gaussian(1.0),
        ):
            np.testing.assert_allclose(grad_log_phi_rows((y - y)[None, :], p)[0], [0.0, 0.0])

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        y_b = rng.standard_normal(3)
        for p in (sm.KernelParams.cauchy(1.3, 0.85), sm.KernelParams.gaussian(0.8)):
            y_a = y_b + rng.standard_normal(3)

            def f(y):
                d = y - y_b
                return float(np.log(sm.phi(float(d @ d), p)))

            g = grad_log_phi_rows((y_a - y_b)[None, :], p)[0]
            fd = central_diff(f, y_a)
            np.testing.assert_allclose(g, fd, rtol=1e-6, atol=1e-9)


class TestRepulsiveGradient:
    def test_cauchy_unit_fixture_pushes_apart(self):
        y_a, y_c = np.array([1.0, 0.0]), np.zeros(2)
        g = grad_log_one_minus_phi_rows((y_a - y_c)[None, :], sm.KernelParams.cauchy(1.0, 1.0), 0.0)[0]
        np.testing.assert_allclose(g, [1.0, 0.0], atol=1e-12)
        assert g @ (y_a - y_c) > 0

    def test_vanishes_at_long_range(self):
        p = sm.KernelParams.cauchy(1.0, 1.0)
        far = grad_log_one_minus_phi_rows(np.array([[300.0, 0.0]]), p, 0.0)[0]
        assert np.linalg.norm(far) < 1e-4
        pg = sm.KernelParams.gaussian(1.0)
        farg = grad_log_one_minus_phi_rows(np.array([[30.0, 0.0]]), pg, 0.0)[0]
        assert np.linalg.norm(farg) < 1e-10

    def test_far_gaussian_pair_is_zero_without_warning(self):
        # u = s / (2 tau) = 5000 overflows expm1; u / expm1(u) takes its limit 0
        p = sm.KernelParams.gaussian(1.0)
        g = grad_log_one_minus_phi_rows(np.array([[100.0, 0.0]]), p, 1e-3)
        assert g.tolist() == [[0.0, 0.0]]

    def test_coincident_points_zero(self):
        y = np.array([0.5, 0.5])
        g = grad_log_one_minus_phi_rows((y - y)[None, :], sm.KernelParams.cauchy(1.9, 0.79), 1e-3)[0]
        np.testing.assert_allclose(g, [0.0, 0.0])

    def test_regularized_gradient_matches_surrogate_objective(self):
        # s = 0.25 with the fitted-shape parameters and eps = 1e-3
        p = sm.KernelParams.cauchy(1.929, 0.7915)
        eps = 1e-3
        y_c = np.zeros(2)
        y_a = np.array([0.5, 0.0])  # s = 0.25

        def f(y):
            d = y - y_c
            return float(log_one_minus_phi(float(d @ d), p, eps))

        g = grad_log_one_minus_phi_rows((y_a - y_c)[None, :], p, eps)[0]
        fd = central_diff(f, y_a)
        rel = np.linalg.norm(g - fd) / np.linalg.norm(g)
        assert rel <= 1e-4

    def test_negative_eps_rejected(self):
        with pytest.raises(ConfigurationError):
            grad_log_one_minus_phi_rows(np.ones((1, 2)), sm.KernelParams.cauchy(), -1.0)

    @pytest.mark.parametrize("eps", [np.inf, np.nan])
    def test_non_finite_eps_rejected(self, eps):
        # at eps = inf the repulsion would equal grad_log_phi_rows, an attraction
        with pytest.raises(ConfigurationError, match="eps"):
            grad_log_one_minus_phi_rows(np.ones((1, 2)), sm.KernelParams.cauchy(), eps)


class TestGradientSweep:
    def test_500_random_checks_against_finite_differences(self):
        rng = np.random.default_rng(12)
        worst = 0.0
        for trial in range(500):
            d = int(rng.integers(1, 5))
            s_target = float(rng.uniform(1e-2, 10.0))
            direction = rng.standard_normal(d)
            direction /= np.linalg.norm(direction)
            y_b = rng.standard_normal(d)
            y_a = y_b + direction * np.sqrt(s_target)
            if trial % 2 == 0:
                p = sm.KernelParams.cauchy(
                    float(rng.uniform(0.5, 2.5)), float(rng.uniform(0.7, 1.5))
                )
            else:
                p = sm.KernelParams.gaussian(float(rng.uniform(0.5, 2.0)))
            if trial % 4 < 2:
                g = grad_log_phi_rows((y_a - y_b)[None, :], p)[0]
                f = lambda y: float(log_phi(float((y - y_b) @ (y - y_b)), p))
            else:
                g = grad_log_one_minus_phi_rows((y_a - y_b)[None, :], p, 0.0)[0]
                f = lambda y: float(
                    log_one_minus_phi(float((y - y_b) @ (y - y_b)), p, 0.0)
                )
            fd = central_diff(f, y_a)
            rel = np.linalg.norm(g - fd) / max(np.linalg.norm(g), 1e-12)
            worst = max(worst, rel)
        assert worst <= 1e-5
