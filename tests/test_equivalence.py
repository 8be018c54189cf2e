import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import spectramap as sm
from spectramap import equivalence as eq, losses, spectra
from spectramap.errors import ConfigurationError, GraphStructureError

from conftest import negated_laplacian_quadratic, stochastic_step_loss


class TestGaussianExactness:
    @pytest.mark.parametrize("tau,seed", [(1.0, 0), (0.5, 1), (2.0, 2)])
    def test_passes_on_pipeline_instances(self, tau, seed):
        rep = eq.check_gaussian_exactness(30, 2, tau, seed)
        assert rep.passed
        assert rep.residual <= 1e-10

    def test_zero_embedding_trivial(self):
        V = eq.pipeline_graph(20, 3)
        att = sm.attractive_term(V, np.zeros((V.n, 2)), sm.KernelParams.gaussian(1.0))
        lap = sm.laplacian_quadratic(V, np.zeros((V.n, 2)))
        assert att == lap == 0.0

    def test_sabotage_breaks_it(self, monkeypatch):
        monkeypatch.setattr(losses, "laplacian_quadratic", negated_laplacian_quadratic)
        rep = eq.check_gaussian_exactness(30, 2, 1.0, 0)
        assert not rep.passed

    @pytest.mark.parametrize("tau", [0.5, 1.0, 2.0])
    def test_runs_at_spectral_init_scale(self, tau):
        rep = eq.check_gaussian_exactness(30, 2, tau, 4)
        assert rep.passed
        small, large = rep.context["max_abs_y"]
        assert small <= 0.5 and large == pytest.approx(10.0)
        assert rep.residual == max(rep.context["residuals"])

    def test_too_few_points_rejected(self):
        # pipeline_graph builds n // 2 points per blob, and calibration needs
        # at least two neighbours per point
        with pytest.raises(ConfigurationError, match=r"need n >= 4"):
            eq.pipeline_graph(3, 0)
        with pytest.raises(ConfigurationError, match=r"need n >= 4"):
            eq.check_gaussian_exactness(3, 2, 1.0, 0)
        assert eq.pipeline_graph(5, 0).n == 4

    def test_catches_a_clamp_that_bites_only_at_init_scale(self, monkeypatch):
        # log(max(phi, 1e-12)) caps each long Gaussian edge term; edges in
        # [-0.5, 0.5]^2 are too short to reach the cap
        def clamped(V, Y, p):
            coo = V.matrix.tocoo()
            s = np.sum((Y[coo.row] - Y[coo.col]) ** 2, axis=1)
            return -float(coo.data @ np.log(np.maximum(sm.phi(s, p), 1e-12)))

        monkeypatch.setattr(losses, "attractive_term", clamped)
        rep = eq.check_gaussian_exactness(30, 2, 0.5, 0)
        small, large = rep.context["residuals"]
        assert small <= 1e-10 < large
        assert not rep.passed


class TestCauchyFirstOrder:
    def test_small_scale_tight(self):
        rep = eq.check_cauchy_first_order(30, 2, sm.KernelParams.cauchy(1.0, 1.0), 0.001, 0)
        assert rep.passed
        assert rep.residual <= 0.001

    def test_residuals_shrink_with_scale(self):
        res = [
            eq.check_cauchy_first_order(30, 2, sm.KernelParams.cauchy(1.0, 1.0), s, 5).residual
            for s in (0.1, 0.01, 0.001)
        ]
        assert res[0] > res[1] > res[2]

    def test_gap_never_exceeds_bound(self):
        for seed, scale in [(0, 0.5), (1, 0.1), (2, 0.9)]:
            rep = eq.check_taylor_bound(25, 2, sm.KernelParams.cauchy(1.3, 1.0), scale, seed)
            assert rep.passed
            assert rep.context["gap"] <= rep.context["bound"]

    @settings(max_examples=100, deadline=None)
    @given(st.floats(0.1, 5.0), st.floats(0.3, 2.0), st.floats(-4.0, 0.0),
           st.integers(4, 40), st.integers(1, 3), st.integers(0, 2**31 - 1))
    def test_general_kernel_within_tolerance(self, a, b, log_x, n, d, seed):
        # every edge then has a s^b <= X = 10**log_x, and the tolerance is X
        scale = (10.0**log_x / a) ** (1.0 / b)
        rep = eq.check_cauchy_first_order(n, d, sm.KernelParams.cauchy(a, b), scale, seed)
        assert rep.tolerance == pytest.approx(10.0**log_x)
        assert rep.passed

    def test_suite_certifies_the_fitted_kernel(self):
        # eq20 runs at scales 0.5 and 0.05 only: at tiny scales its margin
        # 1 - gap/bound shrinks like 2X/3 and meets rounding
        fit = sm.fit_ab(0.1)
        kernels = ["cauchy(a=1, b=1)", "cauchy(a=%g, b=%g)" % (fit.fitted_a, fit.fitted_b)]
        for seed in range(20):
            result = eq.run_suite(seed, claims=["thm3.1b", "eq20_bound"])
            assert result.all_passed
            for claim, scales in [("thm3.1b", eq.CAUCHY_SCALES), ("eq20_bound", (0.5, 0.05))]:
                ran = [(r.context["kernel"], r.context["scale"])
                       for r in result.reports if r.claim == claim]
                assert ran == [(k, s) for k in kernels for s in scales]


class TestSpectralOptimality:
    def test_path_three(self, p3_graph):
        rep = eq.check_spectral_optimality(p3_graph, 1, 100, 0)
        assert rep.passed
        assert rep.context["eigenvalue_sum"] == pytest.approx(1.0, abs=1e-9)

    def test_connected_two_blob_graph(self):
        V = eq.connected_two_blob_graph(0)
        rep = eq.check_spectral_optimality(V, 2, 100, 1)
        assert rep.passed

    def test_spectral_solution_is_its_own_optimum(self, p3_graph):
        sol = sm.spectral_init(p3_graph, 1)
        Ln = sm.normalized_laplacian(p3_graph).toarray()
        tr = float(np.sum(sol.vectors * (Ln @ sol.vectors)))
        assert tr - tr == 0.0

    def test_disconnected_rejected(self, two_cliques_graph):
        with pytest.raises(GraphStructureError):
            eq.check_spectral_optimality(two_cliques_graph, 1, 10, 0)

    def test_suite_certifies_the_block_solver(self, monkeypatch):
        # the claim runs the eigensolver that embed runs, at its instance size
        calls = []
        solve = spectra._filtered_subspace

        def counted(*args):
            calls.append(args[0].shape[0])
            return solve(*args)

        monkeypatch.setattr(spectra, "_filtered_subspace", counted)
        result = eq.run_suite(42, claims=["thm3.1c"])
        assert result.all_passed
        assert calls == [100]


class TestExpectedLossMonteCarlo:
    def test_eight_node_instance(self):
        V = eq.pipeline_graph(8, 0, k=3)
        rng = np.random.default_rng(1)
        Y = rng.uniform(-1, 1, size=(V.n, 2))
        rep = eq.check_expected_loss(V, Y, sm.KernelParams.cauchy(), 5, 200_000, 2)
        assert rep.passed

    def test_no_negatives_deterministic(self, k2_graph):
        Y = np.array([[0.0], [1.0]])
        rep = eq.check_expected_loss(
            k2_graph, Y, sm.KernelParams.cauchy(1.0, 1.0), 0, 1000, 3
        )
        assert rep.passed
        assert rep.context["standard_error"] == 0.0
        assert rep.residual == 0.0

    def test_single_draw_rejected(self, k2_graph):
        # one draw has no sample spread to estimate a standard error from
        with pytest.raises(ConfigurationError):
            eq.check_expected_loss(
                k2_graph, np.array([[0.0], [1.0]]), sm.KernelParams.cauchy(), 0, 1, 3
            )

    def test_slices_match_one_call(self, monkeypatch):
        V = eq.pipeline_graph(8, 4, k=3)
        Y = np.random.default_rng(5).uniform(-1, 1, size=(V.n, 2))
        p = sm.KernelParams.cauchy()
        rng = np.random.default_rng(6)
        anchors, partners, _ = eq.EdgeSampler(V).draw_events(rng, 50, 0)
        negs = rng.integers(0, V.n, 50 * 3).reshape(50, 3)
        whole = eq.step_losses(Y, anchors, partners, negs, p)
        monkeypatch.setattr(eq, "MC_SLICE", 7)
        sliced = eq.mc_step_losses(V, Y, p, 3, 50, np.random.default_rng(6))
        assert np.array_equal(sliced, whole)

    def test_peak_memory_of_default_draws(self):
        # the 200000 draws' pairs and negatives take about 9.2 MiB; one
        # step_losses call over all of them peaked at 16.9 MiB
        V = eq.pipeline_graph(8, 0, k=3)
        Y = np.random.default_rng(1).uniform(-1, 1, size=(V.n, 2))
        tracemalloc.start()
        try:
            eq.check_expected_loss(V, Y, sm.KernelParams.cauchy(), 5, 200_000, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 15 * 2**20

    def test_vectorized_draws_match_scalar_path(self):
        """The vectorized Monte Carlo loss agrees with the per-event scalar
        routine draw by draw when fed the same sample stream."""
        V = eq.pipeline_graph(8, 4, k=3)
        rng = np.random.default_rng(9)
        Y = rng.uniform(-1, 1, size=(V.n, 2))
        p = sm.KernelParams.cauchy(1.4, 0.9)
        n_neg, n_draws = 3, 200

        vec = eq.mc_step_losses(V, Y, p, n_neg, n_draws, np.random.default_rng(77))
        sampler = sm.EdgeSampler(V)
        rng2 = np.random.default_rng(77)
        anchors, partners, _ = sampler.draw_events(rng2, n_draws, 0)
        negs = rng2.integers(0, V.n, n_draws * n_neg).reshape(n_draws, n_neg)
        scalar = np.array(
            [
                stochastic_step_loss(anchors[s], partners[s], negs[s], Y, p)
                for s in range(n_draws)
            ]
        )
        np.testing.assert_array_equal(vec, scalar)


class TestLaplacianIdentity:
    def test_thousand_random_instances(self):
        rep = eq.check_laplacian_identity(1000, 0)
        assert rep.passed
        assert rep.residual <= 1e-12

    def test_builds_no_scipy_matrix(self, monkeypatch):
        import scipy.sparse

        def refuse(*args, **kwargs):
            raise AssertionError("lemmaA1 built a scipy sparse matrix")

        monkeypatch.setattr(scipy.sparse, "csr_matrix", refuse)
        monkeypatch.setattr(scipy.sparse, "coo_matrix", refuse)
        assert eq.check_laplacian_identity(50, 0).passed


class TestNcutRelaxationClaim:
    def test_twenty_random_graphs(self):
        rep = eq.check_ncut_relaxation(20, 0)
        assert rep.passed
        assert rep.context["max_value_gap"] <= 1e-8
        assert rep.context["max_principal_angle"] <= 1e-6

    def test_sabotage_breaks_it(self, monkeypatch):
        # the claim's own Lnorm solve reads the name it imports from spectra
        monkeypatch.setattr(eq, "normalized_laplacian", lambda V: 2 * sm.normalized_laplacian(V))
        result = eq.run_suite(42, claims=["a3_relaxation"])
        assert not result.all_passed


class TestConcaveSaturation:
    def test_log_kernel_transform_concave_increasing(self):
        # phi(t) = log(1 + a t): increasing with decreasing slope, so large
        # distances are penalized at a saturating rate
        a = 1.7
        t = np.linspace(0.0, 20.0, 2001)
        f = np.log1p(a * t)
        first = np.diff(f)
        second = np.diff(first)
        assert np.all(first > 0)
        assert np.all(second < 0)


class TestSuite:
    def test_default_suite_passes(self):
        result = eq.run_suite(master_seed=42, n_draws=50_000)
        assert result.all_passed
        claims = {r.claim for r in result.reports}
        assert claims == set(eq.CLAIM_IDS)

    def test_passed_flag_recomputable(self):
        result = eq.run_suite(master_seed=1, n_draws=20_000)
        for r in result.reports:
            assert r.passed == (r.residual <= r.tolerance)

    def test_claim_filter(self):
        result = eq.run_suite(master_seed=42, claims=["lemmaA1"])
        assert [r.claim for r in result.reports] == ["lemmaA1"]

    def test_unknown_claim_rejected(self):
        with pytest.raises(ConfigurationError):
            eq.run_suite(claims=["lemmaB2"])

    def test_empty_claim_selection_rejected(self):
        # else it would pass with no report at all
        with pytest.raises(ConfigurationError, match="no claim ids to run"):
            eq.run_suite(claims=[])

    def test_sabotage_fails_gaussian_claim(self, monkeypatch):
        monkeypatch.setattr(losses, "laplacian_quadratic", negated_laplacian_quadratic)
        result = eq.run_suite(master_seed=42, claims=["thm3.1a"])
        assert not result.all_passed
        assert all(r.claim == "thm3.1a" for r in result.reports if not r.passed)

    def test_json_round_trip(self):
        result = eq.run_suite(master_seed=42, claims=["lemmaA1", "thm3.1a"])
        body = json.loads(result.to_json())
        assert body["all_passed"] is True
        assert len(body["reports"]) == 4  # 3 gaussian rows + 1 identity row

    def test_table_has_three_kernel_rows(self):
        result = eq.run_suite(master_seed=42, n_draws=20_000)
        table = eq.format_table(result)
        assert "gaussian" in table
        fit = sm.fit_ab(0.1)
        for a, b in [(1.0, 1.0), (fit.fitted_a, fit.fitted_b)]:
            kernel = "cauchy(a=%g, b=%g)" % (a, b)
            smallest = [r for r in result.reports
                        if r.claim == "thm3.1b" and r.context["kernel"] == kernel][-1]
            assert smallest.context["scale"] == 0.001
            row = ("cauchy a=%.3f b=%.3f    a sum w s^b (p=2b)         1st-order    %.3e"
                   % (a, b, smallest.residual))
            assert row in table.splitlines()

    def test_claim_table_order_and_independent_streams(self):
        full = eq.run_suite(master_seed=42, n_draws=2000)
        assert full.all_passed
        assert [r.claim for r in full.reports] == (
            ["thm3.1a"] * 3 + ["thm3.1b"] * 6 + ["eq20_bound"] * 4
            + ["thm3.1c", "eq13_montecarlo", "lemmaA1", "a3_relaxation"]
        )
        for claim in eq.CLAIM_IDS:
            alone = eq.run_suite(master_seed=42, claims=[claim], n_draws=2000)
            assert [r.to_json_dict() for r in alone.reports] == [
                r.to_json_dict() for r in full.reports if r.claim == claim
            ]

    def test_reports_deterministic(self):
        a = eq.run_suite(master_seed=7, claims=["thm3.1a", "lemmaA1"])
        b = eq.run_suite(master_seed=7, claims=["thm3.1a", "lemmaA1"])
        assert [r.residual for r in a.reports] == [r.residual for r in b.reports]
