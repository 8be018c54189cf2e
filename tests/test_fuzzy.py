import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import spectramap as sm
from spectramap.errors import ConfigurationError, GraphStructureError
from spectramap.fuzzy import BRACKET_HI, t_conorm
from spectramap.knn import KnnGraph
from spectramap.spectra import edge_sq_lengths

from conftest import graph_from_sparse, read_edge_list

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def _knn_from_distances(dists):
    """KnnGraph over k+1 vertices with the given distance rows.

    Missing rows repeat the last given one so every vertex has neighbors;
    the calibration is row-independent, so tests read row 0.
    """
    dists = np.atleast_2d(np.asarray(dists, dtype=np.float64))
    n_given, k = dists.shape
    n = max(n_given, k + 1)
    full = np.vstack([dists] + [dists[-1:]] * (n - n_given))
    indices = np.empty((n, k), dtype=np.int64)
    for i in range(n):
        indices[i] = [j for j in range(n) if j != i][:k]
    return KnnGraph(indices=indices, distances=full, k=k, exact_evals=0)


class TestBandwidthCalibration:
    def test_closed_form_sigma(self):
        # gaps [0,1,1,1] against target log2(4)=2 force sigma = 1/ln 3
        knn = _knn_from_distances([[1.0, 2.0, 2.0, 2.0]])
        params = sm.smooth_knn_params(knn)
        assert params.rho[0] == 1.0
        np.testing.assert_allclose(params.sigma[0], 1.0 / np.log(3.0), atol=1e-6)
        assert not params.flagged[0]
        assert params.residual[0] <= 1e-5

    def test_all_equal_distances_flagged(self):
        # every gap is zero, so the weight sum is 4 for any sigma: no root
        knn = _knn_from_distances([[1.0, 1.0, 1.0, 1.0]])
        params = sm.smooth_knn_params(knn)
        assert params.rho[0] == 1.0
        assert params.flagged[0]
        assert params.sigma[0] > 0

    def test_k2_target_unreachable_flagged_at_upper_bracket(self):
        # k=2: the zero-gap neighbor alone contributes 1 = log2(2), so the
        # sum exceeds the target for every sigma
        sigma_star = 0.7
        gap = np.log(2.0) * sigma_star
        knn = _knn_from_distances([[1.0, 1.0 + gap]])
        params = sm.smooth_knn_params(knn)
        assert params.flagged[0]
        np.testing.assert_allclose(params.sigma[0], BRACKET_HI * gap)

    def test_zero_distance_rows_get_rho_zero(self):
        knn = _knn_from_distances([[0.0, 0.0, 0.0, 0.0]])
        params = sm.smooth_knn_params(knn)
        assert params.rho[0] == 0.0
        assert params.flagged[0]

    def test_residuals_small_on_random_data(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            pts = rng.standard_normal((40, 3))
            knn = sm.knn_search(sm.DataMatrix(pts), 8)
            params = sm.smooth_knn_params(knn)
            ok = ~params.flagged
            assert ok.any()
            assert np.all(params.residual[ok] <= 1e-5)

    def test_k1_rejected(self):
        knn = _knn_from_distances([[1.0]])
        with pytest.raises(ConfigurationError):
            sm.smooth_knn_params(knn)


class TestDirectedWeights:
    def test_weight_one_inside_rho(self):
        knn = _knn_from_distances([[1.0, 2.0, 2.0, 2.0]])
        params = sm.smooth_knn_params(knn)
        w = sm.directed_weights(knn, params)
        assert w[0, 1] == 1.0  # d == rho

    def test_fixture_weight_one_third(self):
        # d=2, rho=1, sigma=1/ln3 -> exp(-ln 3) = 1/3
        knn = _knn_from_distances([[1.0, 2.0, 2.0, 2.0]])
        params = sm.smooth_knn_params(knn)
        w = sm.directed_weights(knn, params)
        np.testing.assert_allclose(w[0, 2], 1.0 / 3.0, atol=1e-6)

    def test_unit_exponent(self):
        # distances crafted so the calibrated sigma is exactly 0.5 and the
        # second neighbor sits at d = rho + sigma, hence weight exp(-1):
        # 1 + e^{-1} + 2 e^{-x/0.5} = 2  =>  x = -0.5 ln((1 - e^{-1}) / 2)
        x = -0.5 * np.log((1.0 - np.exp(-1.0)) / 2.0)
        knn = _knn_from_distances([[1.0, 1.5, 1.0 + x, 1.0 + x]])
        params = sm.smooth_knn_params(knn)
        np.testing.assert_allclose(params.sigma[0], 0.5, atol=1e-9)
        w = sm.directed_weights(knn, params)
        np.testing.assert_allclose(w[0, 2], np.exp(-1.0), atol=1e-8)

    def test_all_weights_in_unit_interval(self):
        rng = np.random.default_rng(3)
        pts = rng.standard_normal((60, 3))
        knn = sm.knn_search(sm.DataMatrix(pts), 10)
        params = sm.smooth_knn_params(knn)
        w = sm.directed_weights(knn, params)
        assert w.data.min() > 0.0
        assert w.data.max() <= 1.0


class TestTConorm:
    @pytest.mark.parametrize(
        "a,b,expected", [(1.0, 0.0, 1.0), (0.5, 0.5, 0.75), (0.3, 0.2, 0.44)]
    )
    def test_hand_values(self, a, b, expected):
        np.testing.assert_allclose(t_conorm(a, b), expected, rtol=1e-15)

    @given(unit, unit)
    def test_commutative(self, a, b):
        assert t_conorm(a, b) == t_conorm(b, a)

    @given(unit)
    def test_zero_is_identity(self, a):
        assert t_conorm(a, 0.0) == a

    @given(unit)
    def test_one_absorbs(self, a):
        assert t_conorm(a, 1.0) == 1.0

    @given(unit, unit)
    def test_range_and_monotone(self, a, b):
        out = t_conorm(a, b)
        assert 0.0 <= out <= 1.0
        assert out >= max(a, b) - 1e-15


class TestSymmetrize:
    def _graph(self, seed=0, n=50, k=8):
        rng = np.random.default_rng(seed)
        pts = rng.standard_normal((n, 3))
        knn = sm.knn_search(sm.DataMatrix(pts), k)
        params = sm.smooth_knn_params(knn)
        directed = sm.directed_weights(knn, params)
        return directed, sm.symmetrize(directed)

    def test_exact_symmetry(self):
        _, V = self._graph()
        diff = V.matrix - V.matrix.T
        assert diff.nnz == 0 or np.abs(diff.data).max() == 0.0

    def test_dominates_both_directions(self):
        directed, V = self._graph()
        P = directed.tocoo()
        for i, j, v in zip(P.row, P.col, P.data):
            assert V.matrix[i, j] >= v - 1e-15

    def test_sparsity_bound(self):
        directed, V = self._graph(n=60, k=7)
        assert V.nnz <= 2 * 60 * 7

    def test_zero_diagonal(self):
        _, V = self._graph()
        assert V.matrix.diagonal().max() == 0.0

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 30), unit, st.integers(0, 2**31 - 1))
    def test_matches_dense_t_conorm(self, n, density, seed):
        # positive directed weights, as directed_weights stores them; an
        # empty matrix included
        rng = np.random.default_rng(seed)
        dense = np.where(rng.random((n, n)) < density, rng.uniform(0.01, 1.0, (n, n)), 0.0)
        np.fill_diagonal(dense, 0.0)
        V = sm.symmetrize(sp.csr_matrix(dense))
        want = t_conorm(dense, dense.T)
        rows, cols = np.nonzero(want)
        assert np.array_equal(V.rows, rows) and np.array_equal(V.cols, cols)
        assert np.array_equal(V.weights, want[rows, cols])

    def test_single_direction_passthrough(self):
        m = sp.csr_matrix(np.array([[0.0, 0.4], [0.0, 0.0]]))
        V = sm.symmetrize(m)
        assert V.matrix[0, 1] == 0.4
        assert V.matrix[1, 0] == 0.4


class TestEdgeListSerialization:
    def test_lossless_round_trip(self, tmp_path, two_blob_graph):
        path = tmp_path / "graph.txt"
        two_blob_graph.save_edge_list(path)
        n, *edges = read_edge_list(path)
        assert n == two_blob_graph.n
        for got, want in zip(edges, two_blob_graph.edges()):
            assert np.array_equal(got, want)

    def test_format_is_upper_triangle(self, tmp_path, k2_graph):
        path = tmp_path / "k2.txt"
        k2_graph.save_edge_list(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "2"
        i, j, v = lines[1].split()
        assert (int(i), int(j)) == (0, 1)
        assert float(v) == 1.0


class TestNonFiniteWeights:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejected(self, bad):
        dense = [[0.0, bad, 0.5], [bad, 0.0, 0.5], [0.5, 0.5, 0.0]]
        with pytest.raises(GraphStructureError, match="finite"):
            sm.SimilarityGraph.from_dense(dense)


def scipy_rules(x):
    """The graph rules checked with scipy on the duplicate-summed matrix:
    (error message or None, canonical CSR)."""
    m = x.tocsr(copy=True)
    m.sum_duplicates()
    m.sort_indices()
    if m.shape[0] != m.shape[1]:
        return "adjacency matrix must be square", m
    if not np.all(np.isfinite(m.data)):
        return "edge weights must be finite", m
    asym = m - m.T
    if asym.nnz and np.abs(asym.data).max() > 0.0:
        return "adjacency matrix must be exactly symmetric", m
    if m.diagonal().any():
        return "diagonal must be zero", m
    if m.nnz and (m.data.min() < 0.0 or m.data.max() > 1.0):
        return "edge weights must lie in [0, 1]", m
    return None, m


FLAWS = ("none", "ulp", "explicit_zero", "duplicate", "diagonal", "nonfinite",
         "out_of_range", "non_square")


@st.composite
def adjacency_entries(draw):
    """(shape, rows, cols, vals) of a symmetric unit-weight matrix with one
    drawn flaw; entries may repeat and are not sorted."""
    n = draw(st.integers(1, 7))
    flaw = draw(st.sampled_from(FLAWS))
    upper = draw(hnp.arrays(np.float64, (n, n), elements=unit))
    keep = draw(hnp.arrays(np.bool_, (n, n)))
    W = np.triu(np.where(keep, upper, 0.0), 1)
    W = W + W.T
    rows, cols = (list(a) for a in np.nonzero(W))
    vals = list(W[rows, cols])
    shape = (n, n)
    vertex = st.integers(0, n - 1)
    i, j = draw(vertex), draw(vertex)
    mirror = draw(st.booleans())
    if flaw == "ulp":
        if vals:
            e = draw(st.integers(0, len(vals) - 1))
            vals[e] = np.nextafter(vals[e], draw(st.sampled_from([0.0, 1.0])))
    elif flaw == "non_square":
        shape = (n, n + draw(st.integers(1, 2)))
    elif flaw != "none":
        value = {
            "explicit_zero": st.just(0.0),
            "duplicate": unit,
            "diagonal": unit,
            "nonfinite": st.sampled_from([np.nan, np.inf, -np.inf]),
            "out_of_range": st.floats(-1.0, -1e-300) | st.floats(1.0, 2.0, exclude_min=True),
        }[flaw]
        x = draw(value)
        if flaw == "diagonal":
            j = i
        for a, b in [(i, j), (j, i)] if mirror or flaw == "out_of_range" else [(i, j)]:
            rows.append(a)
            cols.append(b)
            vals.append(x)
    return shape, np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64), np.array(vals)


class TestGraphValidation:
    """``SimilarityGraph`` validates its edge arrays with numpy; it must accept
    exactly what the scipy rules accept, and its readers must match the
    scipy matrix entry for entry."""

    def _check(self, make, x):
        message, m = scipy_rules(x)
        if message is not None:
            with pytest.raises(GraphStructureError) as err:
                make()
            assert str(err.value) == message
            return
        V = make()
        coo = m.tocoo()
        up = coo.row < coo.col
        i, j, w = V.edges()
        assert i.dtype == coo.row.dtype and j.dtype == coo.col.dtype
        assert np.array_equal(i, coo.row[up]) and np.array_equal(j, coo.col[up])
        assert np.array_equal(w, coo.data[up])
        assert np.array_equal(V.degrees(), np.asarray(m.sum(axis=1)).ravel())
        assert float(np.sum(V.weights)) == float(m.sum())
        assert V.nnz == m.nnz
        Y = np.random.default_rng(V.nnz).standard_normal((V.n, 2))
        diff = Y[coo.row] - Y[coo.col]
        w_all, s_all = edge_sq_lengths(V, Y)
        assert np.array_equal(w_all, coo.data)
        assert np.array_equal(s_all, np.einsum("ij,ij->i", diff, diff))
        for attr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(V.matrix, attr), getattr(m, attr))

    @settings(max_examples=300, deadline=None)
    @given(adjacency_entries(), st.sampled_from(["coo", "csr"]))
    def test_sparse_input(self, entries, fmt):
        shape, rows, cols, vals = entries
        assume(shape[0] == shape[1])
        if fmt == "coo":
            x = sp.coo_matrix((vals, (rows, cols)), shape=shape)
        else:
            # raw CSR arrays: duplicates kept, columns unsorted within a row
            order = np.argsort(rows, kind="stable")
            indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=shape[0]))])
            x = sp.csr_matrix((vals[order], cols[order], indptr), shape=shape)
        self._check(lambda: graph_from_sparse(x), x)

    @settings(max_examples=300, deadline=None)
    @given(adjacency_entries())
    def test_dense_input(self, entries):
        shape, rows, cols, vals = entries
        dense = np.zeros(shape)
        dense[rows, cols] = vals
        self._check(lambda: sm.SimilarityGraph.from_dense(dense), sp.csr_matrix(dense))

    def test_arrays_and_caches_are_read_only(self, p3_graph):
        for arr in (p3_graph.rows, p3_graph.cols, p3_graph.weights):
            with pytest.raises(ValueError):
                arr[0] = 0
        p3_graph.degrees()[0] = 5.0
        assert p3_graph.degrees()[0] == 1.0
        with pytest.raises(AttributeError):
            p3_graph.n = 4

    @pytest.mark.parametrize("rows, cols, weights, message", [
        ([1, 0], [0, 1], [0.5, 0.5], "row-major sorted"),
        ([0, 0, 1], [1, 1, 0], [0.5, 0.5, 0.5], "duplicate-free"),
        ([0, 3], [3, 0], [0.5, 0.5], "outside"),
        ([-1, 0], [0, -1], [0.5, 0.5], "outside"),
        ([0, 1], [1, 0], [0.5], "one length"),
        ([0.0, 1.0], [1.0, 0.0], [0.5, 0.5], "integer"),
    ])
    def test_constructor_rejects_arrays_that_are_not_canonical(self, rows, cols, weights, message):
        with pytest.raises(GraphStructureError, match=message):
            sm.SimilarityGraph(3, np.array(rows), np.array(cols), np.array(weights))

    @pytest.mark.parametrize("n", [-3, 2.7, "3"])
    def test_constructor_rejects_a_vertex_count_that_is_not_a_count(self, n):
        empty = np.array([], dtype=np.int32)
        with pytest.raises(GraphStructureError, match="vertex count"):
            sm.SimilarityGraph(n, empty, empty, np.array([]))

    @pytest.mark.parametrize("n", [0, np.int64(3)])
    def test_constructor_accepts_zero_and_numpy_integers(self, n):
        empty = np.array([], dtype=np.int32)
        V = sm.SimilarityGraph(n, empty, empty, np.array([]))
        assert type(V.n) is int and np.array_equal(V.degrees(), np.zeros(int(n)))

    def test_constructor_takes_over_canonical_arrays(self, two_blob_graph):
        V = sm.SimilarityGraph(
            two_blob_graph.n, two_blob_graph.rows, two_blob_graph.cols, two_blob_graph.weights
        )
        assert V.rows is two_blob_graph.rows
        assert V.cols is two_blob_graph.cols
        assert V.weights is two_blob_graph.weights
        with pytest.raises(AttributeError):
            V.n = 4


@st.composite
def component_graphs(draw):
    """A valid graph with many components, isolated vertices and explicitly
    stored zeros, some stored in one orientation only."""
    n = draw(st.integers(1, 60))
    vertex = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=n))
    entries = {}
    for i, j in sorted({(min(p), max(p)) for p in pairs if p[0] != p[1]}):
        kind = draw(st.sampled_from(["edge", "zero", "one_sided_zero"]))
        if kind == "one_sided_zero":
            i, j = draw(st.permutations([i, j]))
            entries[(i, j)] = 0.0
        else:
            entries[(i, j)] = entries[(j, i)] = draw(unit) if kind == "edge" else 0.0
    keys = sorted(entries)
    rows = np.array([k[0] for k in keys], dtype=np.int32)
    cols = np.array([k[1] for k in keys], dtype=np.int32)
    return sm.SimilarityGraph(n, rows, cols, np.array([entries[k] for k in keys]))


class TestConnectedComponents:
    @settings(max_examples=300, deadline=None)
    @given(component_graphs())
    def test_matches_scipy(self, V):
        count, labels = V.components
        ref_count, ref_labels = connected_components(V.matrix, directed=False)
        assert count == ref_count
        assert labels.dtype == ref_labels.dtype
        assert np.array_equal(labels, ref_labels)

    def test_every_vertex_alone(self):
        V = sm.SimilarityGraph(5, np.array([], dtype=np.int32), np.array([], dtype=np.int32),
                               np.array([]))
        count, labels = V.components
        assert count == 5 and labels.tolist() == [0, 1, 2, 3, 4]


@st.composite
def point_clouds(draw):
    k = draw(st.integers(2, 6))
    n = draw(st.integers(k + 1, 30))
    dim = draw(st.integers(1, 4))
    points = draw(hnp.arrays(np.float64, (n, dim), elements=st.floats(-10.0, 10.0)))
    return points, k


class TestPipelineInvariants:
    @settings(max_examples=60, deadline=None)
    @given(point_clouds())
    def test_graph_invariants(self, cloud):
        points, k = cloud
        W = sm.build_similarity_graph(sm.DataMatrix(points), k).matrix
        assert np.array_equal(W.toarray(), W.toarray().T)
        assert np.all((W.data > 0.0) & (W.data <= 1.0))
        assert not W.diagonal().any()
        assert np.all(np.diff(W.indptr) > 0)  # no isolated vertex

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(4, 30),
        dim=st.integers(1, 4),
        k=st.integers(2, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_permutation_equivariant_on_tie_free_input(self, n, dim, k, seed):
        rng = np.random.default_rng(seed)
        points = rng.uniform(-5.0, 5.0, size=(n, dim))
        sq = ((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=2)
        upper = sq[np.triu_indices(n, 1)]
        assume(np.unique(upper).size == upper.size)
        perm = rng.permutation(n)
        W = sm.build_similarity_graph(sm.DataMatrix(points), k).matrix.toarray()
        W_perm = sm.build_similarity_graph(sm.DataMatrix(points[perm]), k).matrix.toarray()
        assert np.array_equal(W_perm, W[np.ix_(perm, perm)])


class TestPipeline:
    def test_build_similarity_graph_matches_stages(self, two_blob_dataset):
        data = two_blob_dataset.data
        knn = sm.knn_search(data, 15)
        params = sm.smooth_knn_params(knn)
        V_stages = sm.symmetrize(sm.directed_weights(knn, params))
        V_direct = sm.build_similarity_graph(data, 15)
        diff = V_stages.matrix - V_direct.matrix
        assert diff.nnz == 0 or np.abs(diff.data).max() == 0.0
