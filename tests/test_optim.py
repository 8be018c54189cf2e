import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
from scipy import stats

import spectramap as sm
from spectramap.errors import ConfigurationError, OptimizationError
from spectramap.kernels import grad_log_one_minus_phi_rows, grad_log_phi_rows
from spectramap.optim import EdgeSampler, _build_alias_table, wave_schedule

from conftest import graph_from_sparse, random_similarity_graph, stochastic_step_loss


def numpy_scalar_alias_table(weights):
    """Vose's construction indexing numpy scalars one at a time: the loop
    ``_build_alias_table`` must reproduce bit for bit."""
    w = np.asarray(weights, dtype=np.float64)
    m = w.size
    scaled = w * (m / w.sum())
    prob = np.ones(m)
    alias = np.arange(m)
    small = [i for i in range(m) if scaled[i] < 1.0]
    large = [i for i in range(m) if scaled[i] >= 1.0]
    while small and large:
        s = small.pop()
        g = large.pop()
        prob[s] = scaled[s]
        alias[s] = g
        scaled[g] = (scaled[g] + scaled[s]) - 1.0
        if scaled[g] < 1.0:
            small.append(g)
        else:
            large.append(g)
    return prob, alias


def drawn_edges(sampler, rng, size):
    """The undirected edges of ``size`` events drawn with no negatives, as
    indices into ``sampler.endpoints``."""
    anchors, partners, _ = sampler.draw_events(rng, size, 0)
    lookup = np.full((sampler.n, sampler.n), -1)
    i, j = sampler.endpoints.T
    lookup[i, j] = lookup[j, i] = np.arange(i.size)
    return lookup[anchors, partners]


alias_weights = st.one_of(
    # equal weights, one dominant weight, and log-uniform ratios up to 1e12
    st.tuples(st.integers(1, 60), st.floats(1e-6, 1e6)).map(lambda t: [t[1]] * t[0]),
    st.tuples(st.integers(1, 60), st.floats(1.0, 1e12)).map(lambda t: [t[1]] + [1.0] * t[0]),
    st.lists(st.floats(0.0, 12.0), min_size=1, max_size=200).map(
        lambda e: [10.0**x for x in e]
    ),
)


class TestAliasTable:
    @settings(max_examples=200, deadline=None)
    @given(alias_weights)
    def test_matches_numpy_scalar_loop(self, weights):
        prob, alias = _build_alias_table(np.array(weights))
        ref_prob, ref_alias = numpy_scalar_alias_table(weights)
        assert np.array_equal(prob, ref_prob)
        assert np.array_equal(alias, ref_alias)
        assert alias.dtype == ref_alias.dtype

    def test_single_edge_always_drawn(self, k2_graph):
        sampler = EdgeSampler(k2_graph)
        rng = np.random.default_rng(0)
        idx = drawn_edges(sampler, rng, 1000)
        assert np.all(idx == 0)

    def test_two_to_one_ratio(self):
        dense = np.zeros((3, 3))
        dense[0, 1] = dense[1, 0] = 2.0 / 3.0
        dense[1, 2] = dense[2, 1] = 1.0 / 3.0
        V = sm.SimilarityGraph.from_dense(dense)
        sampler = EdgeSampler(V)
        rng = np.random.default_rng(1)
        idx = drawn_edges(sampler, rng, 1_000_000)
        frac = (idx == 0).mean()
        assert abs(frac - 2.0 / 3.0) < 0.01

    def test_chi_square_on_pipeline_graph(self, two_blob_graph):
        sampler = EdgeSampler(two_blob_graph)
        rng = np.random.default_rng(2)
        draws = drawn_edges(sampler, rng, 1_000_000)
        counts = np.bincount(draws, minlength=sampler.weights.size)
        expected = sampler.weights / sampler.weights.sum() * draws.size
        _, pvalue = stats.chisquare(counts, expected)
        assert pvalue > 0.001

    def test_orientations_balanced(self, k2_graph):
        sampler = EdgeSampler(k2_graph)
        rng = np.random.default_rng(3)
        anchors, _, _ = sampler.draw_events(rng, 100_000, 0)
        frac = (anchors == 0).mean()
        assert abs(frac - 0.5) < 0.01

    def test_alias_table_probabilities_normalized(self):
        rng = np.random.default_rng(4)
        w = rng.uniform(0.01, 1.0, size=37)
        prob, alias = _build_alias_table(w)
        assert prob.shape == alias.shape == (37,)
        assert np.all((0.0 <= prob) & (prob <= 1.0 + 1e-12))


class TestNegativeSampling:
    def test_uniform_frequencies(self, two_cliques_graph):
        sampler = EdgeSampler(two_cliques_graph)
        _, _, negs = sampler.draw_events(np.random.default_rng(5), 200_000, 5)
        freq = np.bincount(negs.ravel(), minlength=4) / negs.size
        assert np.all(np.abs(freq - 0.25) < 0.01 * 0.25 + 0.005)

    def test_draw_events_stream_order(self, two_blob_graph):
        # one stream: the ordered pairs first, then the negatives row by row
        sampler = EdgeSampler(two_blob_graph)
        anchors, partners, negs = sampler.draw_events(np.random.default_rng(6), 500, 3)
        rng = np.random.default_rng(6)
        anchors0, partners0, _ = sampler.draw_events(rng, 500, 0)
        assert np.array_equal(anchors, anchors0)
        assert np.array_equal(partners, partners0)
        assert np.array_equal(negs, rng.integers(0, two_blob_graph.n, 1500).reshape(500, 3))

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(2, 12),
        vertices=st.sampled_from([None, 1000, 2**33]),
        size=st.integers(0, 300),
        n_neg=st.integers(0, 5),
        widths=st.lists(st.integers(1, 40), min_size=1, max_size=6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_negatives_draw_in_slices(self, n, vertices, size, n_neg, widths, seed):
        """``draw_events`` is ``draw_pairs`` then ``draw_negatives``, and the
        negatives block may be drawn in slices of any widths, odd or even,
        leaving the stream where the whole draw does: eq13's Monte Carlo
        draws it one slice at a time. ``vertices`` stands in for a larger
        graph: past 2^32 numpy draws its bounded integers in 64 bits."""
        sampler = EdgeSampler(random_similarity_graph(n, np.random.default_rng(seed)))
        if vertices is not None:
            sampler.n = vertices
        whole = np.random.default_rng(seed)
        anchors, partners, negs = sampler.draw_events(whole, size, n_neg)
        rng = np.random.default_rng(seed)
        pairs = sampler.draw_pairs(rng, size)
        assert np.array_equal(pairs[0], anchors) and np.array_equal(pairs[1], partners)
        lo = i = 0
        while lo < size:
            hi = min(lo + widths[i % len(widths)], size)
            assert np.array_equal(sampler.draw_negatives(rng, hi - lo, n_neg), negs[lo:hi])
            lo, i = hi, i + 1
        assert rng.bit_generator.state == whole.bit_generator.state

    def test_stream_pinned(self):
        # values recorded from the sampler before its draws were folded
        # into draw_events; any change to the stream changes every seeded run
        dense = np.zeros((4, 4))
        for i, j, w in [(0, 1, 0.5), (1, 2, 1.0), (2, 3, 0.25), (0, 3, 0.75), (0, 2, 0.125)]:
            dense[i, j] = dense[j, i] = w
        sampler = EdgeSampler(sm.SimilarityGraph.from_dense(dense))
        anchors, partners, negs = sampler.draw_events(np.random.default_rng(0), 8, 2)
        assert anchors.tolist() == [1, 3, 3, 1, 2, 1, 1, 0]
        assert partners.tolist() == [2, 0, 0, 2, 1, 0, 0, 1]
        assert negs.tolist() == [[0, 3], [0, 2], [0, 1], [1, 1], [1, 0], [0, 0], [0, 2], [2, 2]]


class TestInitEmbedding:
    def test_spectral_path_three(self, p3_graph):
        emb = sm.spectral_embedding(sm.spectral_init(p3_graph, 1))
        sol = sm.spectral_init(p3_graph, 1)
        expected = sol.vectors * (10.0 / np.abs(sol.vectors).max())
        np.testing.assert_allclose(emb.coords, expected)
        assert np.abs(emb.coords).max() == pytest.approx(10.0)
        assert emb.provenance == "spectral"

    def test_random_deterministic(self, p3_graph):
        a = sm.random_embedding(p3_graph.n, 2, 7)
        b = sm.random_embedding(p3_graph.n, 2, 7)
        assert np.array_equal(a.coords, b.coords)
        assert np.abs(a.coords).max() <= 10.0

    def test_random_start_off_the_sgd_stream(self):
        # optimize draws its events from default_rng(seed); a start from the
        # same stream would tie epoch 0's edge draws to the start
        same_stream = np.random.default_rng(7).uniform(-10.0, 10.0, size=(50, 2))
        assert not np.array_equal(sm.random_embedding(50, 2, 7).coords, same_stream)

    def test_coordinates_must_be_two_dimensional(self):
        with pytest.raises(ConfigurationError, match="2-D"):
            sm.Embedding(np.ones((2, 2, 1)), "random")

    @pytest.mark.parametrize("mode", ["random", "spectral"])
    @pytest.mark.parametrize("d", [0, -1])
    def test_dimension_below_one_rejected(self, p3_graph, mode, d):
        with pytest.raises(ConfigurationError, match="d must be >= 1"):
            if mode == "random":
                sm.random_embedding(p3_graph.n, d, 0)
            else:
                sm.spectral_init(p3_graph, d)


def small_config(**kw):
    base = dict(n_epochs=5, n_neg=2, initial_lr=0.5, seed=1)
    base.update(kw)
    return sm.OptimizerConfig(**base)


class TestOptimize:
    def test_zero_samples_is_identity(self, two_blob_graph):
        Y0 = sm.random_embedding(two_blob_graph.n, 2, 3)
        cfg = small_config(n_epochs=1, samples_per_epoch=0)
        res = sm.optimize(two_blob_graph, Y0, sm.KernelParams.cauchy(), cfg)
        assert np.array_equal(res.embedding.coords, Y0.coords)

    def test_two_point_attraction_contracts(self, k2_graph):
        Y0 = sm.Embedding(np.array([[0.0, 0.0], [3.0, 0.0]]), "external")
        cfg = sm.OptimizerConfig(n_epochs=10, n_neg=0, initial_lr=0.1, seed=0)
        res = sm.optimize(k2_graph, Y0, sm.KernelParams.gaussian(1.0), cfg,
                          track_loss=False)
        # distance strictly decreases every epoch under pure attraction
        assert np.linalg.norm(np.diff(res.embedding.coords, axis=0)) < 3.0

    def test_deterministic_end_to_end(self, two_blob_graph):
        Y0 = sm.spectral_embedding(sm.spectral_init(two_blob_graph, 2))
        cfg = small_config(n_epochs=3)
        p = sm.KernelParams.cauchy(1.5, 0.9)
        a = sm.optimize(two_blob_graph, Y0, p, cfg)
        b = sm.optimize(two_blob_graph, Y0, p, cfg)
        assert np.array_equal(a.embedding.coords, b.embedding.coords)
        assert a.self_collisions == b.self_collisions

    def test_learning_rate_schedule_exact(self, two_blob_graph):
        Y0 = sm.random_embedding(two_blob_graph.n, 2, 5)
        cfg = small_config(n_epochs=4, initial_lr=0.8, samples_per_epoch=5)
        res = sm.optimize(two_blob_graph, Y0, sm.KernelParams.cauchy(), cfg)
        alphas = [rec.alpha for rec in res.trace]
        expected = [0.8 * (1.0 - e / 4) for e in range(5)]
        assert alphas == expected

    def test_loss_recorded_every_epoch(self, two_blob_graph):
        """Every epoch records its step-loss statistics; the full loss is
        evaluated on the first and the final state only."""
        Y0 = sm.spectral_embedding(sm.spectral_init(two_blob_graph, 2))
        cfg = small_config(n_epochs=3)
        res = sm.optimize(two_blob_graph, Y0, sm.KernelParams.cauchy(), cfg)
        assert len(res.trace) == 4
        assert [rec.loss is not None for rec in res.trace] == [True, False, False, True]
        for rec in res.trace[1:]:
            assert np.isfinite(rec.stats.step_loss_mean)
            assert rec.stats.step_loss_se > 0.0

    def test_endpoint_losses_on_large_sparse_graph(self):
        """The endpoint rule holds at every n: a ring of 6000 vertices, built
        without a k-NN search, still gets both full-loss reports."""
        n = 6000
        ring = np.arange(n)
        W = sp.coo_matrix((np.full(n, 0.5), (ring, (ring + 1) % n)), shape=(n, n))
        V = graph_from_sparse(W + W.T)
        Y0 = sm.random_embedding(V.n, 2, 0)
        cfg = small_config(n_epochs=2, samples_per_epoch=100)
        res = sm.optimize(V, Y0, sm.KernelParams.cauchy(), cfg)
        assert isinstance(res.trace[0].loss, sm.LossReport)
        assert isinstance(res.trace[-1].loss, sm.LossReport)
        assert res.trace[1].loss is None

    def test_endpoint_loss_leaves_coordinates(self, two_blob_graph):
        """The endpoint losses draw from their own stream, so the trajectory
        is the same bits with and without them."""
        Y0 = sm.spectral_embedding(sm.spectral_init(two_blob_graph, 2))
        cfg = small_config(n_epochs=3)
        p = sm.KernelParams.cauchy(1.5, 0.9)
        tracked = sm.optimize(two_blob_graph, Y0, p, cfg, track_loss=True)
        untracked = sm.optimize(two_blob_graph, Y0, p, cfg, track_loss=False)
        assert np.array_equal(tracked.embedding.coords, untracked.embedding.coords)
        assert tracked.trace[0].loss.repel_se > 0.0
        assert all(rec.loss is None for rec in untracked.trace)

    def test_move_other_mirrors_attraction(self, k2_graph):
        Y0 = sm.Embedding(np.array([[0.0, 0.0], [2.0, 0.0]]), "external")
        p = sm.KernelParams.gaussian(1.0)
        cfg = sm.OptimizerConfig(
            n_epochs=1, n_neg=0, initial_lr=0.1, seed=0, move_other=True,
            samples_per_epoch=1,
        )
        res = sm.optimize(k2_graph, Y0, p, cfg, track_loss=False)
        moved = res.embedding.coords
        # both endpoints moved toward each other by the same amount
        np.testing.assert_allclose(moved[0] + moved[1], Y0.coords[0] + Y0.coords[1])
        assert moved[0, 0] > 0.0 and moved[1, 0] < 2.0

    def test_nan_aborts_with_epoch(self, k2_graph):
        Y0 = sm.Embedding(np.array([[0.0, 0.0], [1.0, 0.0]]), "external")
        cfg = sm.OptimizerConfig(
            n_epochs=1, n_neg=0, initial_lr=1e308, seed=0, samples_per_epoch=5
        )
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(OptimizationError, match="epoch 0"):
                sm.optimize(k2_graph, Y0, sm.KernelParams.gaussian(1.0), cfg,
                            track_loss=False)

    def test_non_finite_start_loss_aborts_with_epoch(self, k2_graph):
        # finite coordinates whose squared distance overflows
        Y0 = sm.Embedding(np.array([[0.0, 0.0], [1e200, 0.0]]), "external")
        cfg = sm.OptimizerConfig(n_epochs=1, n_neg=0, seed=0, samples_per_epoch=5)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(OptimizationError, match="non-finite loss inf at epoch 0"):
                sm.optimize(k2_graph, Y0, sm.KernelParams.gaussian(1.0), cfg)

    def test_overflow_raises_without_a_warning(self, k2_graph):
        # warnings are errors under pytest, so a numpy overflow warning
        # would surface here in place of the named error
        Y0 = sm.Embedding(np.array([[0.0, 0.0], [1e200, 0.0]]), "external")
        cfg = sm.OptimizerConfig(n_epochs=1, n_neg=1, seed=0, samples_per_epoch=5)
        with pytest.raises(OptimizationError, match="at epoch 0"):
            sm.optimize(k2_graph, Y0, sm.KernelParams.gaussian(1.0), cfg)

    def test_self_collisions_counted(self, k2_graph):
        Y0 = sm.Embedding(np.array([[0.0, 0.0], [1.0, 0.0]]), "external")
        cfg = sm.OptimizerConfig(
            n_epochs=1, n_neg=5, initial_lr=0.01, seed=0, samples_per_epoch=200
        )
        res = sm.optimize(k2_graph, Y0, sm.KernelParams.cauchy(), cfg,
                          track_loss=False)
        # with n = 2 roughly half of 1000 negative draws hit the anchor
        assert 350 <= res.self_collisions <= 650

    def test_loss_decreases_on_two_blobs(self, two_blob_graph):
        Y0 = sm.spectral_embedding(sm.spectral_init(two_blob_graph, 2))
        fit = sm.fit_ab(0.1)
        p = sm.KernelParams.cauchy(fit.fitted_a, fit.fitted_b)
        cfg = sm.OptimizerConfig(n_epochs=30, n_neg=5, seed=42)
        res = sm.optimize(two_blob_graph, Y0, p, cfg)
        assert res.trace[-1].loss.total < res.trace[0].loss.total

    def test_trace_records(self, two_blob_graph):
        Y0 = sm.spectral_embedding(sm.spectral_init(two_blob_graph, 2))
        cfg = small_config(n_epochs=2)
        res = sm.optimize(two_blob_graph, Y0, sm.KernelParams.cauchy(), cfg)
        assert [rec.epoch for rec in res.trace] == [0, 1, 2]
        assert [rec.alpha for rec in res.trace] == [cfg.initial_lr, cfg.initial_lr / 2, 0.0]
        # the full loss on the endpoints alone
        assert [rec.loss is not None for rec in res.trace] == [True, False, True]
        first = res.trace[0].loss
        assert np.isfinite([first.total, first.attract, first.repel]).all()


class TestExpectationLink:
    def test_epoch_mean_matches_expected_loss(self, two_blob_graph):
        """Average sampled step loss (updates disabled) scales to the
        closed-form epoch expectation within Monte Carlo error."""
        rng = np.random.default_rng(30)
        V = two_blob_graph
        Y = rng.uniform(-1.0, 1.0, size=(V.n, 2))
        p = sm.KernelParams.cauchy(1.5, 1.0)
        n_neg = 5
        sampler = EdgeSampler(V)
        n_samples = 20_000
        anchors, partners, _ = sampler.draw_events(rng, n_samples, 0)
        negs = rng.integers(0, V.n, n_samples * n_neg).reshape(n_samples, n_neg)
        losses = np.array(
            [
                stochastic_step_loss(anchors[s], partners[s], negs[s], Y, p)
                for s in range(n_samples)
            ]
        )
        scale = float(np.sum(V.weights))
        mc = scale * losses.mean()
        se = scale * losses.std(ddof=1) / np.sqrt(n_samples)
        expected = sm.expected_sgd_loss(V, Y, p, n_neg)
        assert abs(mc - expected) <= 3.0 * se

    def test_traced_step_loss_matches_expected_loss(self, two_blob_graph):
        """With a learning rate too small to move Y, an epoch's traced step
        losses are Monte Carlo draws at Y0: their scaled mean is the epoch
        expectation of claim eq13 within 3 standard errors."""
        V = two_blob_graph
        rng = np.random.default_rng(31)
        Y0 = sm.Embedding(rng.uniform(-1.0, 1.0, size=(V.n, 2)), "external")
        p = sm.KernelParams.cauchy(1.5, 1.0)
        cfg = sm.OptimizerConfig(
            n_epochs=1, n_neg=5, initial_lr=1e-12, seed=32, samples_per_epoch=20_000
        )
        stats = sm.optimize(V, Y0, p, cfg, track_loss=False).trace[1].stats
        scale = float(np.sum(V.weights))
        expected = sm.expected_sgd_loss(V, Y0.coords, p, cfg.n_neg)
        assert abs(scale * stats.step_loss_mean - expected) <= 3.0 * scale * stats.step_loss_se


def sequential_reference(V, Y0, p, cfg):
    """One sample at a time, each step through the one-row public gradients:
    the definition the wave schedule must reproduce bit for bit. Returns the
    final coordinates, the self-collision count, the clip fraction of each
    epoch and each epoch's (mean, standard error) of the scalar oracle's step
    losses, each taken before the sample's own update."""
    Y = Y0.coords.copy()
    n, d = Y.shape
    rng = np.random.default_rng(cfg.seed)
    sampler = EdgeSampler(V)
    n_samples = (
        cfg.samples_per_epoch
        if cfg.samples_per_epoch is not None
        else sampler.weights.size
    )
    collisions = 0
    clip_fracs = []
    step_stats = []
    for epoch in range(cfg.n_epochs):
        alpha = cfg.initial_lr * (1.0 - epoch / cfg.n_epochs)
        anchors, partners, _ = sampler.draw_events(rng, n_samples, 0)
        negs = rng.integers(0, n, n_samples * cfg.n_neg).reshape(
            n_samples, cfg.n_neg
        ) if cfg.n_neg else np.empty((n_samples, 0), dtype=np.int64)
        cut = coords = 0
        losses = []
        for s in range(n_samples):
            a, b = anchors[s], partners[s]
            losses.append(stochastic_step_loss(a, b, negs[s], Y, p))
            grad = grad_log_phi_rows((Y[a] - Y[b])[None, :], p)[0]
            cut += int(np.sum(np.abs(grad) > cfg.clip))
            coords += d
            grad = np.clip(grad, -cfg.clip, cfg.clip)
            Y[a] += alpha * grad
            if cfg.move_other:
                Y[b] -= alpha * grad
            for c in negs[s]:
                if c == a:
                    collisions += 1
                    continue
                g = grad_log_one_minus_phi_rows((Y[a] - Y[c])[None, :], p, cfg.eps)[0]
                cut += int(np.sum(np.abs(g) > cfg.clip))
                coords += d
                Y[a] += alpha * np.clip(g, -cfg.clip, cfg.clip)
        clip_fracs.append(cut / coords if coords else 0.0)
        losses = np.array(losses)
        mean = float(losses.mean()) if losses.size else None
        se = float(losses.std(ddof=1) / np.sqrt(losses.size)) if losses.size > 1 else None
        step_stats.append((mean, se))
    return Y, collisions, clip_fracs, step_stats


kernels = st.one_of(
    st.builds(
        sm.KernelParams.cauchy,
        a=st.floats(0.5, 2.5),
        b=st.sampled_from([0.79, 1.0, 1.3]),
    ),
    st.builds(sm.KernelParams.gaussian, tau=st.floats(0.3, 2.0)),
)


class TestWaveSchedule:
    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(2, 12),
        d=st.integers(1, 3),
        p=kernels,
        move_other=st.booleans(),
        n_neg=st.integers(0, 5),
        samples=st.one_of(st.none(), st.integers(0, 120)),
        n_epochs=st.integers(1, 2),
        clip=st.sampled_from([0.3, 4.0]),
        grid=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_sequential_sweep(
        self, n, d, p, move_other, n_neg, samples, n_epochs, clip, grid, seed
    ):
        rng = np.random.default_rng(seed)
        V = random_similarity_graph(n, rng, density=0.5)
        # integer grid coordinates make coincident points (s == 0) common
        coords = (
            rng.integers(-2, 3, size=(n, d)).astype(float)
            if grid
            else rng.uniform(-3.0, 3.0, size=(n, d))
        )
        Y0 = sm.Embedding(coords, "external")
        cfg = sm.OptimizerConfig(
            n_epochs=n_epochs, n_neg=n_neg, initial_lr=0.7, clip=clip, seed=seed,
            move_other=move_other, samples_per_epoch=samples,
        )
        with np.errstate(over="ignore"):
            res = sm.optimize(V, Y0, p, cfg, track_loss=False)
            Y, collisions, clip_fracs, step_stats = sequential_reference(V, Y0, p, cfg)
        assert np.array_equal(res.embedding.coords, Y)
        assert res.self_collisions == collisions
        assert [rec.stats.clip_frac for rec in res.trace[1:]] == clip_fracs
        assert [
            (rec.stats.step_loss_mean, rec.stats.step_loss_se) for rec in res.trace[1:]
        ] == step_stats
        assert sum(rec.stats.self_collisions for rec in res.trace[1:]) == collisions

    def test_epoch_stats_on_two_blobs(self, two_blob_graph):
        Y0 = sm.spectral_embedding(sm.spectral_init(two_blob_graph, 2))
        cfg = small_config(n_epochs=2, n_neg=5)
        res = sm.optimize(two_blob_graph, Y0, sm.KernelParams.cauchy(), cfg,
                          track_loss=False)
        n_samples = EdgeSampler(two_blob_graph).weights.size
        assert res.trace[0].stats is None and res.trace[0].wall_s is None
        for rec in res.trace[1:]:
            assert 1 <= rec.stats.waves <= n_samples // 5
            assert 0.0 <= rec.stats.clip_frac <= 1.0
            assert rec.wall_s > 0.0
        assert sum(r.stats.self_collisions for r in res.trace[1:]) == res.self_collisions

    def test_waves_respect_both_orderings(self):
        # sample 1 reads row 0 that sample 0 writes: a later wave (read after
        # write); sample 2 writes row 3 that sample 1 read as a negative: not
        # an earlier wave (write after read); sample 3 touches nothing earlier
        anchors = np.array([0, 1, 3, 5])
        partners = np.array([2, 0, 4, 6])
        negs = np.array([[7], [3], [7], [8]])
        assert wave_schedule(anchors, partners, negs, False, 9).tolist() == [0, 1, 1, 0]
        # sample 2's partner row 3 was read as a negative in wave 1: only
        # under move_other does sample 2 write it and so wait for wave 1
        anchors, partners = np.array([0, 2, 4]), np.array([1, 6, 3])
        negs = np.array([[5, 5], [0, 3], [5, 5]])
        assert wave_schedule(anchors, partners, negs, True, 7).tolist() == [0, 1, 1]
        assert wave_schedule(anchors, partners, negs, False, 7).tolist() == [0, 1, 0]
