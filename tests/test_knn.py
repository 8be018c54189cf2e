import numpy as np
import pytest

import spectramap as sm
from spectramap import knn
from spectramap.errors import ConfigurationError


def brute_force_knn(points, k):
    """Full pairwise sort oracle with the (distance, index) tie rule."""
    n = len(points)
    indices = np.empty((n, k), dtype=np.int64)
    distances = np.empty((n, k))
    for i in range(n):
        cand = []
        for j in range(n):
            if j == i:
                continue
            d2 = 0.0
            for t in range(points.shape[1]):
                d2 += (points[i, t] - points[j, t]) ** 2
            cand.append((d2, j))
        cand.sort()
        indices[i] = [j for _, j in cand[:k]]
        distances[i] = [np.sqrt(d2) for d2, _ in cand[:k]]
    return indices, distances


def per_row_knn(points, k):
    """Row-at-a-time search with one full lexsort per row: the reference the
    blocked search must match bit for bit."""
    n = len(points)
    indices = np.empty((n, k), dtype=np.int64)
    distances = np.empty((n, k))
    ids = np.arange(n)
    for i in range(n):
        d2 = np.zeros(n)
        for t in range(points.shape[1]):
            d2 += (points[:, t] - points[i, t]) ** 2
        d2[i] = np.inf
        order = np.lexsort((ids, d2))[:k]
        indices[i] = order
        distances[i] = np.sqrt(d2[order])
    return indices, distances


class TestLineFixtures:
    def setup_method(self):
        self.X = sm.DataMatrix(np.array([[0.0], [1.0], [3.0]]))

    def test_k1(self):
        g = sm.knn_search(self.X, 1)
        assert g.indices.ravel().tolist() == [1, 0, 1]
        np.testing.assert_allclose(g.distances.ravel(), [1.0, 1.0, 2.0])

    def test_k2_row_zero(self):
        g = sm.knn_search(self.X, 2)
        assert g.indices[0].tolist() == [1, 2]
        np.testing.assert_allclose(g.distances[0], [1.0, 3.0])


class TestOracleEquivalence:
    def test_random_50x3_k5(self):
        rng = np.random.default_rng(0)
        pts = rng.standard_normal((50, 3))
        g = sm.knn_search(sm.DataMatrix(pts), 5)
        oi, od = brute_force_knn(pts, 5)
        assert np.array_equal(g.indices, oi)
        assert np.array_equal(g.distances, od)

    @pytest.mark.parametrize("n,k,seed", [(10, 3, 1), (73, 7, 2), (200, 10, 3)])
    def test_random_sizes(self, n, k, seed):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-1, 1, size=(n, 4))
        g = sm.knn_search(sm.DataMatrix(pts), k)
        oi, od = brute_force_knn(pts, k)
        assert np.array_equal(g.indices, oi)
        assert np.array_equal(g.distances, od)

    def test_duplicates_break_ties_by_index(self):
        # three copies of the same point: ties everywhere, smaller index wins
        pts = np.array([[1.0, 1.0]] * 3 + [[5.0, 5.0]])
        g = sm.knn_search(sm.DataMatrix(pts), 2)
        assert g.indices[0].tolist() == [1, 2]
        assert g.indices[1].tolist() == [0, 2]
        assert g.indices[2].tolist() == [0, 1]
        assert g.distances[0].tolist() == [0.0, 0.0]
        oi, od = brute_force_knn(pts, 2)
        assert np.array_equal(g.indices, oi)


class TestInvariants:
    def test_rows_sorted_no_self_distinct(self):
        rng = np.random.default_rng(9)
        pts = rng.standard_normal((40, 2))
        g = sm.knn_search(sm.DataMatrix(pts), 6)
        for i in range(40):
            assert i not in g.indices[i]
            assert len(set(g.indices[i].tolist())) == 6
            assert np.all(np.diff(g.distances[i]) >= 0)

    def test_k_too_large_rejected(self):
        X = sm.DataMatrix(np.zeros((5, 2)))
        with pytest.raises(ConfigurationError):
            sm.knn_search(X, 5)


class TestBlockedSearch:
    N = 1600

    def test_input_spans_several_blocks(self):
        assert self.N > 2 * (knn.BLOCK_BYTES // (8 * self.N))

    @pytest.mark.parametrize("side,dim,k", [(6, 2, 15), (30, 2, 7), (5, 3, 10), (40, 2, 1)])
    def test_integer_grid_matches_per_row_reference(self, side, dim, k):
        # duplicates and equal grid distances everywhere: ties straddle the
        # k-th boundary, and tied neighbors sit in other row blocks
        rng = np.random.default_rng(side * 100 + k)
        pts = rng.integers(0, side, size=(self.N, dim)).astype(np.float64)
        ref_i, ref_d = per_row_knn(pts, k + 1)
        assert np.any(ref_d[:, k - 1] == ref_d[:, k])
        g = sm.knn_search(sm.DataMatrix(pts), k)
        assert np.array_equal(g.indices, ref_i[:, :k])
        assert np.array_equal(g.distances, ref_d[:, :k])

    def test_continuous_points_match_per_row_reference(self):
        rng = np.random.default_rng(12)
        pts = rng.standard_normal((self.N, 16))
        g = sm.knn_search(sm.DataMatrix(pts), 15)
        ref_i, ref_d = per_row_knn(pts, 15)
        assert np.array_equal(g.indices, ref_i)
        assert np.array_equal(g.distances, ref_d)

    def test_tiny_blocks(self, monkeypatch):
        # seven rows per block: many block edges on a small input
        n = 200
        monkeypatch.setattr(knn, "BLOCK_BYTES", 8 * n * 7)
        rng = np.random.default_rng(13)
        pts = rng.integers(0, 4, size=(n, 2)).astype(np.float64)
        g = sm.knn_search(sm.DataMatrix(pts), 9)
        ref_i, ref_d = per_row_knn(pts, 9)
        assert np.array_equal(g.indices, ref_i)
        assert np.array_equal(g.distances, ref_d)
