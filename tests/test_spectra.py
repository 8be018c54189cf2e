import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import ArpackNoConvergence

import spectramap as sm
from spectramap import fuzzy, spectra
from spectramap.errors import ConfigurationError, EigensolverError, GraphStructureError
from spectramap.spectra import (
    DENSE_MAX_N,
    NULL_SPACE_TOL,
    random_orthonormal_frame,
)

from conftest import random_similarity_graph


class TestBuildLaplacians:
    def test_single_edge(self, k2_graph):
        pair = sm.build_laplacians(k2_graph)
        expected = np.array([[1.0, -1.0], [-1.0, 1.0]])
        np.testing.assert_allclose(pair.combinatorial.toarray(), expected)
        # unit degrees: the normalized Laplacian coincides
        np.testing.assert_allclose(pair.normalized.toarray(), expected)

    def test_path_three(self, p3_graph):
        pair = sm.build_laplacians(p3_graph)
        np.testing.assert_allclose(pair.degree, [1.0, 2.0, 1.0])
        vals = np.linalg.eigvalsh(pair.normalized.toarray())
        np.testing.assert_allclose(vals, [0.0, 1.0, 2.0], atol=1e-12)

    def test_rows_sum_to_zero(self):
        rng = np.random.default_rng(1)
        V = random_similarity_graph(25, rng)
        pair = sm.build_laplacians(V)
        ones = np.ones(25)
        np.testing.assert_allclose(
            pair.combinatorial @ ones, np.zeros(25), atol=1e-12
        )

    def test_isolated_vertex_named(self):
        dense = np.zeros((3, 3))
        dense[0, 1] = dense[1, 0] = 1.0
        V = sm.SimilarityGraph.from_dense(dense)
        with pytest.raises(GraphStructureError, match="vertex 2"):
            sm.build_laplacians(V)

    def test_normalized_spectrum_in_zero_two(self):
        rng = np.random.default_rng(2)
        for seed in range(5):
            V = random_similarity_graph(20 + seed, rng)
            pair = sm.build_laplacians(V)
            vals = np.linalg.eigvalsh(pair.normalized.toarray())
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
        pair = sm.build_laplacians(p3_graph)
        u = sol.vectors[:, 0]
        rayleigh = u @ (pair.normalized @ u) / (u @ u)
        assert abs(rayleigh - 1.0) <= 1e-8

    def test_null_space_counts_components(self, two_cliques_graph):
        sol = sm.spectral_init(two_cliques_graph, 1)
        assert sol.n_null == 2

    def test_trace_equals_smallest_nonzero_eigenvalues(self, two_blob_graph):
        # may be disconnected; the trace identity holds regardless
        sol = sm.spectral_init(two_blob_graph, 2)
        pair = sm.build_laplacians(two_blob_graph)
        Ln = pair.normalized.toarray()
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
        pair = sm.build_laplacians(p3_graph)
        null = np.sqrt(pair.degree)
        null /= np.linalg.norm(null)
        assert np.abs(sol.vectors.T @ null).max() <= 1e-8

    def test_eigen_residuals(self, two_blob_graph):
        sol = sm.spectral_init(two_blob_graph, 2)
        pair = sm.build_laplacians(two_blob_graph)
        for c in range(2):
            u = sol.vectors[:, c]
            res = np.linalg.norm(pair.normalized @ u - sol.values[c] * u)
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

    def test_optimality_against_random_frames(self, p3_graph):
        pair = sm.build_laplacians(p3_graph)
        Ln = pair.normalized.toarray()
        sol = sm.spectral_init(p3_graph, 1)
        tr_sp = float(np.sum(sol.vectors * (Ln @ sol.vectors)))
        null = np.sqrt(pair.degree)
        null = (null / np.linalg.norm(null))[:, None]
        rng = np.random.default_rng(7)
        for _ in range(100):
            Q = random_orthonormal_frame(3, 1, rng, complement=null)
            assert float(np.sum(Q * (Ln @ Q))) >= tr_sp - 1e-9


def _two_copies(V):
    return sm.SimilarityGraph.from_sparse(sp.block_diag([V.matrix, V.matrix]).tocsr())


@pytest.fixture(scope="module")
def sparse_path_graphs():
    """Graphs above the dense cutoff, with their component counts."""
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
    return {
        "blobs": (blobs, 1),
        "moons": (moons, 2),
        "two_copies": (_two_copies(split), 4),
        "two_copies_connected": (_two_copies(blobs), 2),
    }


class TestSparseSpectralInit:
    @pytest.mark.parametrize("name", ["blobs", "moons", "two_copies", "two_copies_connected"])
    @pytest.mark.parametrize("d", [2, 3])
    def test_matches_dense_eigh(self, sparse_path_graphs, name, d):
        V, components = sparse_path_graphs[name]
        assert V.n > DENSE_MAX_N and V.components[0] == components
        sol = sm.spectral_init(V, d)
        Ln = sm.build_laplacians(V).normalized
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

        def fail(op, k, **kw):
            raise ArpackNoConvergence("no luck", np.empty(0), np.empty((op.shape[0], 0)))

        monkeypatch.setattr(spectra, "eigsh", fail)
        with pytest.raises(EigensolverError, match=r"n=300, d=2.*residual"):
            sm.spectral_init(V, 2)

    def test_dense_path_reports_residual(self, two_blob_graph):
        assert two_blob_graph.n <= DENSE_MAX_N
        sol = sm.spectral_init(two_blob_graph, 2)
        assert 0.0 <= sol.residual <= 1e-8


class TestNcutRelaxation:
    def test_path_three(self, p3_graph):
        rep = sm.ncut_relaxation_check(p3_graph, 1)
        np.testing.assert_allclose(rep.values_generalized, [1.0], atol=1e-10)
        np.testing.assert_allclose(rep.values_normalized, [1.0], atol=1e-10)
        assert rep.max_value_gap <= 1e-8

    def test_single_edge(self, k2_graph):
        rep = sm.ncut_relaxation_check(k2_graph, 1)
        np.testing.assert_allclose(rep.values_generalized, [2.0], atol=1e-10)
        np.testing.assert_allclose(rep.values_normalized, [2.0], atol=1e-10)

    def test_random_connected_graph(self):
        from spectramap.equivalence import random_connected_graph

        rng = np.random.default_rng(9)
        V = random_connected_graph(15, rng)
        rep = sm.ncut_relaxation_check(V, 3)
        assert rep.max_value_gap <= 1e-8
        assert rep.max_principal_angle <= 1e-6

    def test_disconnected_rejected(self, two_cliques_graph):
        with pytest.raises(GraphStructureError):
            sm.ncut_relaxation_check(two_cliques_graph, 1)


class TestComponents:
    def test_counts(self, two_cliques_graph, p3_graph):
        assert two_cliques_graph.components[0] == 2
        assert p3_graph.components[0] == 1

    def test_computed_once_per_graph(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return connected_components(*args, **kwargs)

        monkeypatch.setattr(fuzzy, "connected_components", counted)
        points = np.random.default_rng(3).standard_normal((40, 2))
        V = sm.build_similarity_graph(sm.DataMatrix(points), 8)
        sol = sm.spectral_init(V, 2)
        assert V.components[0] == sol.n_null
        sm.ncut_relaxation_check(V, 2)
        assert len(calls) == 1
