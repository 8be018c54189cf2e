import json
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import spectramap as sm
from spectramap import knn, losses
from spectramap.equivalence import pipeline_graph
from spectramap.errors import ConfigurationError
from spectramap.losses import LOG_CLAMP, edge_sq_lengths, edge_sum

from conftest import laplacian_quadratic, random_similarity_graph, stochastic_step_loss


def count_row_blocks(monkeypatch):
    """Patch the ``sq_norms`` that ``losses`` reads so it records the row
    count of every 3-D input, the (m, n, d) blocks of ``repel_row_sums``;
    returns the list it appends to."""
    blocks = []

    def counted(diff):
        if diff.ndim == 3:
            blocks.append(diff.shape[0])
        return knn.sq_norms(diff)

    monkeypatch.setattr(losses, "sq_norms", counted)
    return blocks


def dense_loss_oracle(V, Y, p):
    """Naive double loop over ordered pairs with the same log policy: the
    attraction takes the unclamped closed-form log phi, the repulsion clamps
    1 - phi at LOG_CLAMP."""
    n = V.n
    W = V.matrix.toarray()
    attract = repel = 0.0
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            s = float(((Y[i] - Y[j]) ** 2).sum())
            attract -= W[i, j] * sm.log_phi(s, p)
            repel -= (1.0 - W[i, j]) * np.log(max(sm.one_minus_phi(s, p), LOG_CLAMP))
    return attract, repel


def dense_expected_repel(V, Y, p, n_neg):
    """(n_neg / n) * sum_a d_a * sum_{c != a} -log(max(1 - phi, LOG_CLAMP))
    by a double loop: the negative-sampling term of expected_sgd_loss."""
    n = V.n
    deg = V.degrees()
    total = 0.0
    for a in range(n):
        for c in range(n):
            if c != a:
                s = float(((Y[a] - Y[c]) ** 2).sum())
                total -= deg[a] * np.log(max(sm.one_minus_phi(s, p), LOG_CLAMP))
    return n_neg / n * total


class TestCrossEntropyLoss:
    def test_half_weight_half_similarity(self):
        # v = 0.5 and phi = 0.5 give log 2 per ordered pair, 2 log 2 total
        V = sm.SimilarityGraph.from_dense([[0.0, 0.5], [0.5, 0.0]])
        Y = np.array([[0.0], [1.0]])  # s = 1, cauchy(1,1) -> phi = 0.5
        rep = sm.cross_entropy_loss(V, Y, sm.KernelParams.cauchy(1.0, 1.0))
        np.testing.assert_allclose(rep.total, 2.0 * np.log(2.0), rtol=1e-12)

    def test_saturated_edge_has_tiny_loss(self, k2_graph):
        Y = np.zeros((2, 2))  # coincident: phi = 1
        rep = sm.cross_entropy_loss(k2_graph, Y, sm.KernelParams.cauchy(1.0, 1.0))
        # v=1 kills the repulsive weight; log phi(0) = 0 makes the attraction 0
        assert rep.attract <= 1e-10
        assert rep.repel == 0.0

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(21)
        V = random_similarity_graph(10, rng)
        Y = rng.standard_normal((10, 2))
        for p in (sm.KernelParams.cauchy(1.2, 0.9), sm.KernelParams.gaussian(0.9)):
            rep = sm.cross_entropy_loss(V, Y, p)
            attract, repel = dense_loss_oracle(V, Y, p)
            assert abs(rep.attract - attract) <= 1e-12 * max(abs(attract), 1.0)
            assert abs(rep.repel - repel) <= 1e-12 * max(abs(repel), 1.0)

    def test_decomposition_identity(self):
        rng = np.random.default_rng(22)
        for seed in range(10):
            n = int(rng.integers(5, 40))
            V = random_similarity_graph(n, rng)
            Y = rng.standard_normal((n, int(rng.integers(1, 4))))
            rep = sm.cross_entropy_loss(V, Y, sm.KernelParams.cauchy())
            assert abs(rep.total - (rep.attract + rep.repel)) <= 1e-9 * abs(rep.total)

    def test_gaussian_scaling_law(self):
        rng = np.random.default_rng(23)
        V = random_similarity_graph(15, rng)
        Y = rng.standard_normal((15, 2)) * 0.1
        p = sm.KernelParams.gaussian(1.0)
        a1 = sm.first_order(V, Y, p)[0]
        a3 = sm.first_order(V, 3.0 * Y, p)[0]
        np.testing.assert_allclose(a3, 9.0 * a1, rtol=1e-10)

    def test_repulsion_monotone_in_separation(self):
        V = sm.SimilarityGraph.from_dense(
            [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
        )
        # vertex 2 is no one's neighbor except through repulsion; graph needs
        # positive degree only for laplacians, not for the loss
        p = sm.KernelParams.cauchy(1.0, 1.0)
        base = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0]])
        repels = []
        for shift in (0.0, 1.0, 3.0, 10.0):
            Y = base.copy()
            Y[2, 1] += shift
            repels.append(sm.cross_entropy_loss(V, Y, p).repel)
        assert all(b <= a + 1e-12 for a, b in zip(repels, repels[1:]))

    def test_seven_row_blocks_match_dense_oracle(self, monkeypatch):
        # many row blocks, one of them partial: the all-pairs row sums and
        # the edge give-back must still add up to the pairwise definition
        rng = np.random.default_rng(29)
        n, n_neg = 40, 3
        V = random_similarity_graph(n, rng)
        Y = rng.standard_normal((n, 3))
        p = sm.KernelParams.cauchy(1.2, 0.9)
        blocks = count_row_blocks(monkeypatch)
        one_block = sm.expected_sgd_loss(V, Y, p, n_neg)
        assert blocks == [n]
        # seven rows of a (3, 7, n) difference block: five full blocks and a partial one
        monkeypatch.setattr(losses, "BLOCK_BYTES", 8 * 3 * n * 7)
        for q in (p, sm.KernelParams.gaussian(0.9)):
            blocks.clear()
            rep = sm.cross_entropy_loss(V, Y, q)
            assert blocks == [7] * 5 + [5]
            attract, repel = dense_loss_oracle(V, Y, q)
            assert abs(rep.attract - attract) <= 1e-12 * max(abs(attract), 1.0)
            assert abs(rep.repel - repel) <= 1e-12 * max(abs(repel), 1.0)
        blocks.clear()
        blocked = sm.expected_sgd_loss(V, Y, p, n_neg)
        assert blocks == [7] * 5 + [5]
        assert blocked == one_block
        expected = sm.first_order(V, Y, p)[0] + dense_expected_repel(V, Y, p, n_neg)
        assert abs(blocked - expected) <= 1e-12 * abs(expected)

    def test_peak_memory_below_one_pair_matrix(self):
        # the loss works in row blocks of about losses.BLOCK_BYTES; it must never
        # hold an n x n float64 array
        n = 1600
        V = pipeline_graph(n, 3)
        Y = np.random.default_rng(30).standard_normal((V.n, 2))
        p = sm.KernelParams.cauchy(1.58, 0.9)
        tracemalloc.start()
        try:
            sm.cross_entropy_loss(V, Y, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * V.n * V.n

    def test_json_serialization(self, k2_graph):
        Y = np.array([[0.0], [1.0]])
        rep = sm.cross_entropy_loss(k2_graph, Y, sm.KernelParams.cauchy(1.9, 0.8))
        body = json.loads(json.dumps(asdict(rep)))
        assert set(body) == {"total", "attract", "repel", "laplacian_form",
                             "taylor_bound", "repel_se"}
        _, form, bound = sm.first_order(k2_graph, Y, sm.KernelParams.cauchy(1.9, 0.8))
        assert body["laplacian_form"] == form
        assert body["taylor_bound"] == bound


class TestSampledCrossEntropy:
    STREAMS = 200

    def test_matches_the_exact_loss(self):
        """On a fixed layout the sampled loss keeps the exact edge terms bit
        for bit, and its repulsion is unbiased with an honest error.

        Each of K = 200 independent streams gives z = (repel - exact) / repel_se.
        The estimate averages LOSS_PAIRS = 65536 i.i.d. bounded pair terms and
        repel_se is their sample deviation over sqrt(LOSS_PAIRS), so z is a
        Student t with 65535 degrees of freedom, N(0, 1) to well within these
        bounds. The mean of K such z is N(0, 1/K): 4 standard deviations is
        |mean| <= 4 / sqrt(200) = 0.283. Their sample variance s^2 (ddof=1)
        is chi^2_{K-1} / (K - 1), with standard deviation sqrt(2 / (K - 1)) =
        0.100: 4 of those is |s^2 - 1| <= 0.40. Either bound fails by chance
        about once in 10^4 runs. A self pair in the draws (r = -log LOG_CLAMP)
        biases z by far more, and so does an n^2 in place of n(n - 1) here.
        """
        V = pipeline_graph(200, 3)
        Y = sm.spectral_embedding(sm.spectral_init(V, 2)).coords
        p = sm.KernelParams.cauchy(1.58, 0.9)
        exact = sm.cross_entropy_loss(V, Y, p)
        assert exact.repel_se == 0.0
        z = []
        for k in range(self.STREAMS):
            rep = sm.sampled_cross_entropy(V, Y, p, np.random.default_rng([30, k]))
            assert (rep.attract, rep.laplacian_form, rep.taylor_bound) == (
                exact.attract, exact.laplacian_form, exact.taylor_bound)
            assert rep.total == rep.attract + rep.repel
            assert rep.repel_se > 0.0
            z.append((rep.repel - exact.repel) / rep.repel_se)
        assert abs(np.mean(z)) <= 4.0 / np.sqrt(self.STREAMS)
        assert abs(np.var(z, ddof=1) - 1.0) <= 4.0 * np.sqrt(2.0 / (self.STREAMS - 1))

    def test_draws_only_the_pair_sample(self):
        # the stored edges are exact, so only LOSS_PAIRS pairs are scored:
        # the stream has moved by exactly the two index draws
        V = pipeline_graph(40, 3)
        Y = np.random.default_rng(31).standard_normal((V.n, 2))
        rng = np.random.default_rng(5)
        sm.sampled_cross_entropy(V, Y, sm.KernelParams.gaussian(0.9), rng)
        ref = np.random.default_rng(5)
        ref.integers(0, V.n, losses.LOSS_PAIRS)
        ref.integers(0, V.n - 1, losses.LOSS_PAIRS)
        assert rng.random() == ref.random()

    def test_one_vertex_has_no_pairs(self):
        V = sm.SimilarityGraph.from_dense([[0.0]])
        rep = sm.sampled_cross_entropy(V, np.zeros((1, 2)), sm.KernelParams.cauchy(),
                                       np.random.default_rng(0))
        assert (rep.total, rep.repel, rep.repel_se) == (0.0, 0.0, 0.0)


class TestLaplacianComparison:
    def test_gaussian_exact_on_random_instances(self):
        rng = np.random.default_rng(24)
        for _ in range(20):
            n = int(rng.integers(5, 50))
            V = random_similarity_graph(n, rng)
            Y = rng.uniform(-0.5, 0.5, size=(n, int(rng.integers(1, 6))))
            tau = float(rng.choice([0.5, 1.0, 2.0]))
            att, form, _ = sm.first_order(V, Y, sm.KernelParams.gaussian(tau))
            assert abs(att - form) <= 1e-10 * abs(att)

    def test_gaussian_exact_at_spectral_init_scale(self):
        # spectral init rescales to max-abs 10, where exp(-s / 2 tau) falls
        # far below any log clamp; the identity must still hold exactly
        V = pipeline_graph(30, 0)
        Y = sm.spectral_embedding(sm.spectral_init(V, 2)).coords
        assert np.abs(Y).max() == pytest.approx(10.0)
        for tau in (0.5, 1.0, 2.0):
            att, form, _ = sm.first_order(V, Y, sm.KernelParams.gaussian(tau))
            assert abs(att - form) <= 1e-10 * abs(att)

    def test_cauchy_small_distance_ratio(self):
        # every stored edge at squared length 0.01: ratio log(1.01)/0.01
        dense = np.zeros((4, 4))
        for i in range(3):
            dense[i, i + 1] = dense[i + 1, i] = 0.8
        V = sm.SimilarityGraph.from_dense(dense)
        Y = (np.arange(4) * 0.1)[:, None]
        att, lap, _ = sm.first_order(V, Y, sm.KernelParams.cauchy(1.0, 1.0))
        assert 0.99 <= att / lap <= 1.0

    def test_constant_embedding_both_zero(self, p3_graph):
        Y = np.ones((3, 2))
        att, lap, _ = sm.first_order(p3_graph, Y, sm.KernelParams.gaussian(1.0))
        assert att == lap == 0.0


class TestTaylorBound:
    def test_single_edge_value(self, k2_graph):
        # ||y_0 - y_1||^2 = 0.48; both ordered orientations contribute
        Y = np.array([[0.0], [np.sqrt(0.48)]])
        att, lap, bound = sm.first_order(k2_graph, Y, sm.KernelParams.cauchy(1.0, 1.0))
        np.testing.assert_allclose(bound, 2.0 * 0.48**2 / 2.0, rtol=1e-12)
        assert abs(att - lap) <= bound

    def test_per_edge_relative_error_below_quarter(self):
        # t = 0.48 is the upper end of the typical inter-neighbor range
        t = 0.48
        gap = abs(np.log1p(t) - t)
        rel = gap / np.log1p(t)
        assert rel == pytest.approx(0.2244, abs=5e-4)
        assert rel < 0.25

    def test_constant_embedding_zero(self, p3_graph):
        assert sm.first_order(p3_graph, np.ones((3, 2)), sm.KernelParams.cauchy(2.0))[2] == 0.0

    def test_bound_dominates_gap_on_random_instances(self):
        rng = np.random.default_rng(25)
        for _ in range(20):
            n = int(rng.integers(4, 30))
            V = random_similarity_graph(n, rng)
            Y = rng.standard_normal((n, 2)) * float(rng.uniform(0.05, 1.0))
            a = float(rng.uniform(0.5, 2.0))
            att, lap, bound = sm.first_order(V, Y, sm.KernelParams.cauchy(a, 1.0))
            assert abs(att - lap) <= bound + 1e-12


@st.composite
def first_order_cases(draw):
    """A random weighted graph on 3 to 39 vertices and a Gaussian Y in 1 to 4
    dimensions, scaled by 1e-4 to 30."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(3, 39))
    scale = 10.0 ** draw(st.floats(-4.0, float(np.log10(30.0))))
    return random_similarity_graph(n, rng), scale * rng.standard_normal((n, draw(st.integers(1, 4))))


class TestFirstOrderRule:
    @settings(max_examples=300, deadline=None)
    @given(first_order_cases(), st.floats(0.1, 5.0), st.floats(0.3, 2.0))
    def test_attraction_within_bound_below_form(self, case, a, b):
        """0 <= form - attraction <= bound at every b, up to rounding.

        Both routes read the same squared lengths s and powers s^b, so the
        rule holds exactly for the terms x = a s^b they compute. Each of the
        three sums is a dot product of nnz nonnegative terms, each rounded a
        few times, so it is within (nnz + 4) eps of itself, relative. A bound
        term at x <= 2 is at most the form's term; past x = 2 it exceeds the
        gap's term by more than half of itself. So the computed difference
        is within 2 (nnz + 4) eps (|attraction| + |form|) <= 10 nnz eps (...)
        of a difference that obeys the rule, and 16 nnz eps leaves room for
        the few ulps of pow and log1p.
        """
        V, Y = case
        att, form, bound = sm.first_order(V, Y, sm.KernelParams.cauchy(a, b))
        tol = 16 * V.nnz * np.finfo(np.float64).eps * (abs(att) + abs(form))
        assert -tol <= form - att <= bound + tol

    @settings(max_examples=300, deadline=None)
    @given(first_order_cases(), st.floats(0.1, 5.0))
    def test_b1_is_the_laplacian_form_bit_for_bit(self, case, a):
        V, Y = case
        _, form, bound = sm.first_order(V, Y, sm.KernelParams.cauchy(a, 1.0))
        w, s = edge_sq_lengths(V, Y)
        assert form == 2 * a * laplacian_quadratic(V, Y)
        assert bound == 0.5 * a * a * edge_sum(w, s * s)

    @settings(max_examples=300, deadline=None)
    @given(first_order_cases(), st.floats(0.1, 10.0))
    def test_gaussian_is_the_laplacian_form_bit_for_bit(self, case, tau):
        V, Y = case
        _, form, bound = sm.first_order(V, Y, sm.KernelParams.gaussian(tau))
        assert form == (1.0 / tau) * laplacian_quadratic(V, Y)
        assert bound is None


class TestExpectedSgdLoss:
    def test_no_negatives_is_pure_attraction(self):
        rng = np.random.default_rng(26)
        V = random_similarity_graph(8, rng)
        Y = rng.standard_normal((8, 2))
        p = sm.KernelParams.cauchy()
        assert sm.expected_sgd_loss(V, Y, p, 0) == sm.first_order(V, Y, p)[0]

    def test_single_edge_hand_value(self, k2_graph):
        # phi = 0.5 everywhere: attraction 2 log 2 plus degree-weighted
        # repulsion (1/2) * (1 + 1) * log 2 = log 2
        Y = np.array([[0.0], [1.0]])
        p = sm.KernelParams.cauchy(1.0, 1.0)
        expected = sm.expected_sgd_loss(k2_graph, Y, p, n_neg=1)
        np.testing.assert_allclose(expected, 3.0 * np.log(2.0), rtol=1e-12)

    def test_matches_outcome_enumeration_on_single_edge(self, k2_graph):
        # two equally likely orientations x uniform negatives: enumerate all
        Y = np.array([[0.0], [1.0]])
        p = sm.KernelParams.cauchy(1.0, 1.0)
        n_neg = 2
        total = 0.0
        for a, b in ((0, 1), (1, 0)):
            for c1 in (0, 1):
                for c2 in (0, 1):
                    prob = 0.5 * 0.25
                    total += prob * stochastic_step_loss(a, b, [c1, c2], Y, p)
        expected = sm.expected_sgd_loss(k2_graph, Y, p, n_neg)
        scale = float(np.sum(k2_graph.weights))
        np.testing.assert_allclose(scale * total, expected, rtol=1e-12)


def event_loss(a, b, negs, Y, p):
    """One event's loss through ``step_losses``, checked against the scalar
    oracle bit for bit."""
    Y = np.asarray(Y, dtype=np.float64)
    negs = np.array([negs], dtype=np.intp).reshape(1, len(negs))
    loss = sm.step_losses(Y, np.array([a]), np.array([b]), negs, p)[0]
    assert loss == stochastic_step_loss(a, b, negs[0], Y, p)
    return loss


class TestStochasticStepLoss:
    def test_saturated_positive_no_negatives(self):
        Y = np.zeros((2, 2))
        loss = event_loss(0, 1, [], Y, sm.KernelParams.cauchy())
        assert abs(loss) <= 1e-10  # coincident points: log phi(0) = 0

    def test_half_similarity_fixture(self):
        Y = np.array([[0.0], [1.0]])
        p = sm.KernelParams.cauchy(1.0, 1.0)
        loss = event_loss(0, 1, [1], Y, p)
        np.testing.assert_allclose(loss, 2.0 * np.log(2.0), rtol=1e-12)

    def test_self_draws_skipped(self):
        Y = np.array([[0.0], [1.0]])
        p = sm.KernelParams.cauchy(1.0, 1.0)
        with_self = event_loss(0, 1, [0, 1], Y, p)
        without = event_loss(0, 1, [1], Y, p)
        assert with_self == without

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(2, 8),
        d=st.integers(1, 5),
        events=st.integers(1, 40),
        n_neg=st.integers(0, 4),
        p=st.one_of(
            st.builds(sm.KernelParams.cauchy, a=st.floats(0.5, 2.5),
                      b=st.sampled_from([0.79, 1.0, 1.3])),
            st.builds(sm.KernelParams.gaussian, tau=st.floats(0.3, 2.0)),
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_rows_match_scalar_oracle(self, n, d, events, n_neg, p, seed):
        """Bit for bit at every d, self-draws included. A squared norm summed
        in another order than the coordinates' (einsum, vecdot) differs from
        the oracle in the last bit at d >= 3."""
        rng = np.random.default_rng(seed)
        # coordinates of mixed magnitudes make the summation order show
        Y = rng.uniform(-3.0, 3.0, size=(n, d)) * 10.0 ** rng.integers(-2, 3, size=(n, d))
        anchors = rng.integers(0, n, events)
        partners = rng.integers(0, n, events)
        negs = rng.integers(0, n, (events, n_neg))
        negs[0, : n_neg // 2 + 1] = anchors[0]  # self-draws in the first event
        got = sm.step_losses(Y, anchors, partners, negs, p)
        expected = [
            stochastic_step_loss(anchors[s], partners[s], negs[s], Y, p)
            for s in range(events)
        ]
        assert got.tolist() == expected


def all_pair_sq_dists(Y):
    """The (n, n) squared distances by ``knn.sq_norms``, the arithmetic the
    loss's row sums and edge lengths share."""
    Y = np.asarray(Y, dtype=np.float64)
    return knn.sq_norms(Y[None, :] - Y[:, None])


def row_sums_oracle(Y, p):
    """``repel_row_sums`` one row at a time, with no blocking."""
    Y = np.asarray(Y, dtype=np.float64)
    rows = np.empty(len(Y))
    for i in range(len(Y)):
        log_q = losses.repel_logs(knn.sq_norms(Y - Y[i]), p)
        log_q[i] = 0.0
        rows[i] = -log_q.sum()
    return rows


class TestPairwiseSqDists:
    def test_symmetric_zero_diagonal(self):
        rng = np.random.default_rng(27)
        Y = rng.standard_normal((12, 3))
        S = all_pair_sq_dists(Y)
        assert np.array_equal(S, S.T)
        assert np.all(np.diag(S) == 0.0)

    def test_matches_direct_norms(self):
        rng = np.random.default_rng(28)
        Y = rng.standard_normal((6, 2))
        S = all_pair_sq_dists(Y)
        for i in range(6):
            for j in range(6):
                assert S[i, j] == pytest.approx(((Y[i] - Y[j]) ** 2).sum(), rel=1e-14)

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_edge_lengths_match_bit_for_bit(self, d):
        # so the cross-entropy's edge give-back cancels the row sums' own
        # edge terms exactly
        V = pipeline_graph(200, 3)
        Y = np.random.default_rng(d).standard_normal((V.n, d))
        _, s = edge_sq_lengths(V, Y)
        assert np.array_equal(s, all_pair_sq_dists(Y)[V.rows, V.cols])


class TestRepelRowSums:
    @pytest.mark.parametrize("p", [sm.KernelParams.cauchy(1.58, 0.9), sm.KernelParams.gaussian(0.7)],
                             ids=["cauchy", "gaussian"])
    @pytest.mark.parametrize("n,d,rows_per_block", [
        (8, 2, None), (300, 1, None), (300, 3, None), (1000, 2, None), (500, 16, None),
        (40, 3, 7), (61, 16, 5), (200, 2, 9),
    ])
    def test_bit_equal_to_the_row_by_row_oracle(self, monkeypatch, p, n, d, rows_per_block):
        """Every block size gives the row-at-a-time sums bit for bit; the
        patched cases run several blocks, the last one partial."""
        rng = np.random.default_rng(n * 100 + d)
        # coordinates of mixed magnitudes make the summation order show
        Y = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-2, 2, size=(n, d))
        if rows_per_block is not None:
            assert n % rows_per_block
            monkeypatch.setattr(losses, "BLOCK_BYTES", 8 * d * n * rows_per_block)
        blocks = count_row_blocks(monkeypatch)
        assert np.array_equal(losses.repel_row_sums(Y, p), row_sums_oracle(Y, p))
        if rows_per_block is not None:
            full, last = divmod(n, rows_per_block)
            assert blocks == [rows_per_block] * full + [last]


class TestRowCountCheck:
    @pytest.mark.parametrize("loss", [
        lambda V, Y: sm.first_order(V, Y, sm.KernelParams.gaussian(1.0))[0],
        lambda V, Y: sm.first_order(V, Y, sm.KernelParams.cauchy()),
        lambda V, Y: sm.expected_sgd_loss(V, Y, sm.KernelParams.cauchy(), 5),
        lambda V, Y: sm.cross_entropy_loss(V, Y, sm.KernelParams.gaussian(1.0)),
        lambda V, Y: sm.sampled_cross_entropy(V, Y, sm.KernelParams.cauchy(),
                                              np.random.default_rng(0)),
    ])
    def test_too_many_rows_rejected(self, p3_graph, loss):
        # a 7-row Y would index the first three rows and ignore the rest
        Y = np.random.default_rng(31).standard_normal((7, 2))
        with pytest.raises(ConfigurationError, match="7 rows"):
            loss(p3_graph, Y)


@pytest.mark.parametrize("p", [sm.KernelParams.gaussian(0.7), sm.KernelParams.cauchy(1.58, 0.9)],
                         ids=["gaussian", "cauchy"])
def test_each_loss_gathers_the_edges_once(monkeypatch, p):
    """Every loss entry point reads the stored edges' lengths in one
    ``edge_sq_lengths`` pass, and every edge term sums over that pass: the
    gather is counted where the losses read it."""
    gather, calls = losses.edge_sq_lengths, []

    def counted(V, Y):
        calls.append(V)
        return gather(V, Y)

    monkeypatch.setattr(losses, "edge_sq_lengths", counted)
    V = pipeline_graph(40, 3)
    Y = np.random.default_rng(32).standard_normal((V.n, 2))
    runs = [lambda: sm.cross_entropy_loss(V, Y, p), lambda: sm.first_order(V, Y, p),
            lambda: sm.expected_sgd_loss(V, Y, p, 5),
            lambda: sm.sampled_cross_entropy(V, Y, p, np.random.default_rng(0))]
    counts = []
    for run in runs:
        calls.clear()
        run()
        counts.append(len(calls))
    assert counts == [1, 1, 1, 1]
