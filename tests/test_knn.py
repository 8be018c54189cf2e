import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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
                diff = points[i, t] - points[j, t]
                d2 += diff * diff
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
            diff = points[:, t] - points[i, t]
            d2 += diff * diff
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

    def test_peak_memory_two_blocks(self):
        # a block's distances are freed before the next block is allocated,
        # so the search holds two blocks at a time, not three
        rng = np.random.default_rng(14)
        X = sm.DataMatrix(rng.standard_normal((2000, 16)))
        assert 2000 > 2 * (knn.BLOCK_BYTES // (8 * 2000))
        tracemalloc.start()
        try:
            sm.knn_search(X, 15)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * knn.BLOCK_BYTES


@st.composite
def knn_cases(draw):
    """Point sets that stress the screen's rounding bound: integer grids
    (ties across the k-th boundary), duplicated points, large common
    offsets, one far outlier and row scales from 1e-150 to 1e150."""
    n = draw(st.integers(2, 48))
    dim = draw(st.integers(1, 20))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        pts = rng.integers(0, draw(st.integers(1, 5)), size=(n, dim)).astype(np.float64)
    else:
        pts = rng.standard_normal((n, dim))
    if draw(st.booleans()):
        pts[rng.integers(0, n, size=n // 3)] = pts[rng.integers(0, n, size=n // 3)]
    # exponents of the offset, the outlier and the spread of row scales,
    # all relative to a common scale that keeps every coordinate below 1e151
    offset, outlier, spread = (draw(st.sampled_from([None, 3, 8])) for _ in range(3))
    if offset is not None:
        pts += 10.0**offset
    if outlier is not None:
        pts[draw(st.integers(0, n - 1))] *= 10.0**outlier
    if spread is not None:
        pts *= 10.0 ** rng.uniform(-spread, spread, size=(n, 1))
    top = sum(e for e in (offset, outlier, spread) if e is not None)
    pts *= 10.0 ** draw(st.integers(-150, 150 - top))
    return pts, draw(st.integers(1, n - 1))


def underflow_case():
    # squared gaps near 1e-320 are subnormal: the reference's distances are
    # off by a large relative amount, which only the absolute term covers
    pts = np.random.default_rng(0).standard_normal((500, 3)) * 1e-160
    return pts, 7


class TestScreenExactness:
    @settings(max_examples=200, deadline=None)
    @given(knn_cases())
    @example(underflow_case())
    def test_matches_per_row_reference(self, case):
        pts, k = case
        g = sm.knn_search(sm.DataMatrix(pts), k)
        ref_i, ref_d = per_row_knn(pts, k)
        assert np.array_equal(g.indices, ref_i)
        assert np.array_equal(g.distances, ref_d)

    @pytest.mark.parametrize("outlier", [False, True])
    def test_exact_evals_near_n_k(self, outlier):
        # continuous data has almost no near-ties, so the screen's candidate
        # set is barely larger than the k neighbors; a far outlier widens
        # only its own row
        n, k = 2000, 15
        pts = np.random.default_rng(41).standard_normal((n, 10))
        if outlier:
            pts[17] = 1e8
        g = sm.knn_search(sm.DataMatrix(pts), k)
        assert n * k <= g.exact_evals <= 2 * n * k

    def test_overflowing_spread_is_a_named_error(self):
        # (max - min)^2 overflows float64 in every coordinate
        pts = np.random.default_rng(42).standard_normal((50, 3)) * 1e160
        with pytest.raises(ConfigurationError, match="spread"):
            sm.knn_search(sm.DataMatrix(pts), 5)
