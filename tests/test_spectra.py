import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
import scipy.linalg
import scipy.sparse as sp

import spectramap as sm
from spectramap import fuzzy, spectra
from spectramap.errors import ConfigurationError, EigensolverError, GraphStructureError
from spectramap.equivalence import NULL_SPACE_TOL, random_connected_graph

from conftest import graph_from_sparse, random_similarity_graph


class TestBuildLaplacians:
    def test_single_edge(self, k2_graph):
        expected = np.array([[1.0, -1.0], [-1.0, 1.0]])
        # unit degrees: the normalized Laplacian is L = D - W itself
        np.testing.assert_allclose(sm.normalized_laplacian(k2_graph).toarray(), expected)

    def test_path_three(self, p3_graph):
        np.testing.assert_allclose(p3_graph.degrees(), [1.0, 2.0, 1.0])
        vals = np.linalg.eigvalsh(sm.normalized_laplacian(p3_graph).toarray())
        np.testing.assert_allclose(vals, [0.0, 1.0, 2.0], atol=1e-12)

    def test_rows_sum_to_zero(self):
        rng = np.random.default_rng(1)
        V = random_similarity_graph(25, rng)
        # L 1 = 0, so Lnorm D^{1/2} 1 = D^{-1/2} L 1 = 0
        np.testing.assert_allclose(
            sm.normalized_laplacian(V) @ np.sqrt(V.degrees()), np.zeros(25), atol=1e-12
        )

    def test_isolated_vertex_named(self):
        dense = np.zeros((3, 3))
        dense[0, 1] = dense[1, 0] = 1.0
        V = sm.SimilarityGraph.from_dense(dense)
        with pytest.raises(GraphStructureError, match="vertex 2"):
            sm.normalized_laplacian(V)

    def test_normalized_spectrum_in_zero_two(self):
        rng = np.random.default_rng(2)
        for seed in range(5):
            V = random_similarity_graph(20 + seed, rng)
            vals = np.linalg.eigvalsh(sm.normalized_laplacian(V).toarray())
            assert vals.min() >= -1e-10
            assert vals.max() <= 2.0 + 1e-10


class TestLaplacianQuadratic:
    def test_single_edge_hand_value(self, k2_graph):
        assert sm.laplacian_quadratic(k2_graph, np.array([[0.0], [1.0]])) == 1.0

    def test_constant_rows_in_null_space(self, p3_graph):
        Z = np.full((3, 2), 3.7)
        assert sm.laplacian_quadratic(p3_graph, Z) == 0.0

    def test_matches_dense_trace(self):
        rng = np.random.default_rng(3)
        V = random_similarity_graph(10, rng)
        Z = rng.standard_normal((10, 3))
        edge_form = sm.laplacian_quadratic(V, Z)
        L = np.diag(V.degrees()) - V.matrix.toarray()
        dense_form = float(np.sum(Z * (L @ Z)))
        assert abs(edge_form - dense_form) <= 1e-12 * abs(dense_form)

    def test_nonnegative(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            n = int(rng.integers(3, 30))
            V = random_similarity_graph(n, rng)
            Z = rng.standard_normal((n, int(rng.integers(1, 4))))
            assert sm.laplacian_quadratic(V, Z) >= 0.0

    def test_shape_mismatch_rejected(self, k2_graph):
        with pytest.raises(ConfigurationError):
            sm.laplacian_quadratic(k2_graph, np.zeros((3, 1)))


class TestSpectralInit:
    def test_path_three_first_nonzero_eigenvalue(self, p3_graph):
        sol = sm.spectral_init(p3_graph, 1)
        np.testing.assert_allclose(sol.values, [1.0], atol=1e-10)
        u = sol.vectors[:, 0]
        rayleigh = u @ (sm.normalized_laplacian(p3_graph) @ u) / (u @ u)
        assert abs(rayleigh - 1.0) <= 1e-8

    def test_null_space_counts_components(self, two_cliques_graph):
        sol = sm.spectral_init(two_cliques_graph, 1)
        assert sol.n_null == 2

    def test_trace_equals_smallest_nonzero_eigenvalues(self, two_blob_graph):
        # may be disconnected; the trace identity holds regardless
        sol = sm.spectral_init(two_blob_graph, 2)
        Ln = sm.normalized_laplacian(two_blob_graph).toarray()
        tr = float(np.sum(sol.vectors * (Ln @ sol.vectors)))
        vals = np.linalg.eigvalsh(Ln)
        expected = vals[vals > NULL_SPACE_TOL][:2].sum()
        assert abs(tr - expected) <= 1e-8

    def test_columns_orthonormal(self, two_blob_graph):
        sol = sm.spectral_init(two_blob_graph, 3)
        gram = sol.vectors.T @ sol.vectors
        np.testing.assert_allclose(gram, np.eye(3), atol=1e-10)

    def test_columns_orthogonal_to_null_direction(self, p3_graph):
        sol = sm.spectral_init(p3_graph, 2)
        null = np.sqrt(p3_graph.degrees())
        null /= np.linalg.norm(null)
        assert np.abs(sol.vectors.T @ null).max() <= 1e-8

    def test_eigen_residuals(self, two_blob_graph):
        sol = sm.spectral_init(two_blob_graph, 2)
        Ln = sm.normalized_laplacian(two_blob_graph)
        for c in range(2):
            u = sol.vectors[:, c]
            res = np.linalg.norm(Ln @ u - sol.values[c] * u)
            assert res <= 1e-8

    def test_sign_convention_deterministic(self, two_blob_graph):
        a = sm.spectral_init(two_blob_graph, 2)
        b = sm.spectral_init(two_blob_graph, 2)
        assert np.array_equal(a.vectors, b.vectors)
        for c in range(2):
            lead = np.argmax(np.abs(a.vectors[:, c]))
            assert a.vectors[lead, c] > 0

    def test_dimension_overflow_rejected(self, two_cliques_graph):
        with pytest.raises(ConfigurationError):
            sm.spectral_init(two_cliques_graph, 3)  # 4 vertices, 2 null dims


def _two_copies(V):
    return graph_from_sparse(sp.block_diag([V.matrix, V.matrix]))


@pytest.fixture(scope="module")
def sparse_path_graphs():
    """Graphs of a few hundred to two thousand vertices, with their component
    counts."""
    blobs = sm.build_similarity_graph(
        sm.gen_blobs(150, [(0.0, 0.0), (3.0, 0.0)], 1.0, 0).data, 15
    )
    moons = sm.build_similarity_graph(sm.gen_two_moons(400, 0.05, 0).data, 10)
    # each copy has two components, so every eigenvalue is doubled; a
    # single Lanczos run returns one copy of the lowest pair and the next
    # eigenvalue in place of the other
    split = sm.build_similarity_graph(
        sm.gen_blobs(150, [(0.0, 0.0), (10.0, 0.0)], 1.0, 0).data, 10
    )
    # small gap: the bottom eigenvalues are about 4e-4, only 3.3e-5 apart
    moons_small_gap = sm.build_similarity_graph(sm.gen_two_moons(1000, 0.05, 0).data, 15)
    return {
        "blobs": (blobs, 1),
        "moons": (moons, 2),
        "moons_small_gap": (moons_small_gap, 2),
        "two_copies": (_two_copies(split), 4),
        "two_copies_connected": (_two_copies(blobs), 2),
    }


class TestSparseSpectralInit:
    @pytest.mark.parametrize(
        "name", ["blobs", "moons", "moons_small_gap", "two_copies", "two_copies_connected"]
    )
    @pytest.mark.parametrize("d", [2, 3])
    def test_matches_dense_eigh(self, sparse_path_graphs, name, d):
        V, components = sparse_path_graphs[name]
        assert V.components[0] == components
        sol = sm.spectral_init(V, d)
        Ln = sm.normalized_laplacian(V)
        vals, vecs = scipy.linalg.eigh(Ln.toarray())
        assert sol.n_null == components
        sel = slice(components, components + d)
        assert np.abs(sol.values - vals[sel]).max() <= 1e-10
        res = np.linalg.norm(Ln @ sol.vectors - sol.vectors * sol.values, axis=0).max()
        assert sol.residual == res <= 1e-8
        trace = float(np.sum(sol.vectors * (Ln @ sol.vectors)))
        assert abs(trace - vals[sel].sum()) <= 1e-10
        np.testing.assert_allclose(sol.vectors.T @ sol.vectors, np.eye(d), atol=1e-10)
        if vals[components + d] - vals[components + d - 1] > 1e-8:
            angles = scipy.linalg.subspace_angles(sol.vectors, vecs[:, sel])
            assert angles.max() <= 1e-9

    def test_deterministic(self, sparse_path_graphs):
        V, _ = sparse_path_graphs["moons"]
        a, b = sm.spectral_init(V, 2), sm.spectral_init(V, 2)
        assert np.array_equal(a.vectors, b.vectors)
        assert np.array_equal(a.values, b.values)

    def test_inexact_pairs_raise(self, sparse_path_graphs, monkeypatch):
        V, _ = sparse_path_graphs["blobs"]
        monkeypatch.setattr(spectra, "EIG_RESIDUAL_TOL", -1.0)
        with pytest.raises(EigensolverError, match=r"n=300, d=2, residual="):
            sm.spectral_init(V, 2)

    def test_no_convergence_raises(self, sparse_path_graphs, monkeypatch):
        V, _ = sparse_path_graphs["blobs"]
        monkeypatch.setattr(spectra, "MAX_ROUNDS", 1)
        with pytest.raises(EigensolverError, match=r"n=300, d=2, residual=\S+ after 1 rounds"):
            sm.spectral_init(V, 2)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_fewer_values_below_two_than_the_block_holds(self, d):
        # 130 single edges and a triangle: the non-null spectrum is 1.5 twice,
        # then 2, so the filtered block spans two directions and the solver
        # must redraw the columns that vanish in Gram-Schmidt
        edge = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        triangle = sp.csr_matrix(np.ones((3, 3)) - np.eye(3))
        V = graph_from_sparse(sp.block_diag([edge] * 130 + [triangle]))
        sol = sm.spectral_init(V, d)
        assert sol.n_null == 131
        np.testing.assert_allclose(sol.values, [1.5, 1.5, 2.0, 2.0][:d], atol=1e-12)
        assert sol.residual <= 1e-8

    @pytest.mark.parametrize("sizes, d, value", [
        ((12, 14), 1, 14 / 13), ((27, 30, 2), 4, 30 / 29), ((100, 160), 2, 160 / 159),
    ])
    def test_block_narrower_than_a_repeated_eigenvalue(self, sizes, d, value):
        # unit cliques: the lowest non-null eigenvalue n/(n-1) of the largest
        # clique repeats more often than the block has columns, and the next
        # one is less than 0.02 above it
        V = sm.SimilarityGraph.from_dense(
            scipy.linalg.block_diag(*[np.ones((s, s)) - np.eye(s) for s in sizes])
        )
        sol = sm.spectral_init(V, d)
        np.testing.assert_allclose(sol.values, [value] * d, rtol=1e-12)
        assert sol.residual <= 1e-8
        assert sol.block_width > d + spectra.BLOCK_EXTRA


def _component(kind, size, rng):
    """Dense adjacency of one connected graph on ``size`` >= 2 vertices."""
    if kind == "weighted":
        return random_connected_graph(size, rng).matrix.toarray()
    A = np.zeros((size, size))
    if kind == "bipartite":
        # a random tree, plus random edges between its even and odd depths
        parent = [int(rng.integers(0, i)) for i in range(1, size)]
        depth = [0]
        for i, j in enumerate(parent, start=1):
            A[i, j] = A[j, i] = rng.uniform(0.2, 1.0)
            depth.append(depth[j] + 1)
        odd = np.array(depth) % 2 == 1
        extra = np.triu(odd[:, None] != odd[None, :], 1) & (rng.random((size, size)) < 0.3)
        A[extra] = rng.uniform(0.2, 1.0, int(extra.sum()))
        return np.maximum(A, A.T)
    # unit weights: repeated eigenvalues within and across components
    if kind == "complete":
        A[:] = 1.0
    elif kind == "star":
        A[0, 1:] = A[1:, 0] = 1.0
    else:  # cycle
        for i in range(size):
            A[i, (i + 1) % size] = A[(i + 1) % size, i] = 1.0
    np.fill_diagonal(A, 0.0)
    return A


@st.composite
def small_spectral_cases(draw):
    """A graph of at most 60 vertices, made of components that are weighted,
    bipartite or unit-weight, with its component count and a feasible d."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = st.sampled_from(["weighted", "bipartite", "complete", "star", "cycle"])
    blocks, left = [], 60
    while left >= 2 and (not blocks or draw(st.booleans())):
        size = draw(st.integers(2, min(left, 30)))
        blocks.append(_component(draw(kinds), size, rng))
        left -= size
    V = sm.SimilarityGraph.from_dense(scipy.linalg.block_diag(*blocks))
    d = draw(st.integers(1, min(V.n - len(blocks), 6)))
    return V, len(blocks), d


class TestSmallSpectralInit:
    @settings(max_examples=200, deadline=None)
    @given(small_spectral_cases())
    def test_matches_dense_eigvalsh(self, case):
        V, components, d = case
        sol = sm.spectral_init(V, d)
        assert sol.n_null == components
        vals = scipy.linalg.eigvalsh(sm.normalized_laplacian(V).toarray())
        assert np.abs(sol.values - vals[components : components + d]).max() <= 1e-10
        assert sol.residual <= 1e-8


class TestComponents:
    def test_counts(self, two_cliques_graph, p3_graph):
        assert two_cliques_graph.components[0] == 2
        assert p3_graph.components[0] == 1

    def test_computed_once_per_graph(self, monkeypatch):
        calls = []
        components = fuzzy.connected_components

        def counted(*args, **kwargs):
            calls.append(1)
            return components(*args, **kwargs)

        monkeypatch.setattr(fuzzy, "connected_components", counted)
        points = np.random.default_rng(3).standard_normal((40, 2))
        V = sm.build_similarity_graph(sm.DataMatrix(points), 8)
        sol = sm.spectral_init(V, 2)
        assert V.components[0] == sol.n_null
        sm.spectral_init(V, 3)
        assert len(calls) == 1
