import numpy as np
import pytest

import spectramap as sm


@pytest.fixture(scope="session")
def two_blob_dataset():
    """100 well-separated points in two clusters; the standard desk fixture."""
    return sm.gen_blobs(50, [(0.0, 0.0), (10.0, 0.0)], 0.5, 42)


@pytest.fixture(scope="session")
def two_blob_graph(two_blob_dataset):
    return sm.build_similarity_graph(two_blob_dataset.data, 15)


@pytest.fixture(scope="session")
def k2_graph():
    """Single unit-weight edge between two vertices."""
    return sm.SimilarityGraph.from_dense([[0.0, 1.0], [1.0, 0.0]])


@pytest.fixture(scope="session")
def p3_graph():
    """Unit-weight path on three vertices."""
    return sm.SimilarityGraph.from_dense(
        [[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]
    )


@pytest.fixture(scope="session")
def two_cliques_graph():
    """Two disconnected unit-weight edges (vertices 0-1 and 2-3)."""
    dense = np.zeros((4, 4))
    dense[0, 1] = dense[1, 0] = 1.0
    dense[2, 3] = dense[3, 2] = 1.0
    return sm.SimilarityGraph.from_dense(dense)


def random_similarity_graph(n, rng, density=0.3):
    """Random symmetric weight matrix with zero diagonal, weights in (0, 1]."""
    mask = rng.random((n, n)) < density
    vals = rng.uniform(0.05, 1.0, size=(n, n))
    dense = np.where(mask, vals, 0.0)
    dense = np.maximum(dense, dense.T)
    np.fill_diagonal(dense, 0.0)
    # guarantee no isolated vertex: link i to i+1 where needed
    deg = dense.sum(axis=1)
    for i in np.flatnonzero(deg == 0):
        j = (i + 1) % n
        w = rng.uniform(0.05, 1.0)
        dense[i, j] = dense[j, i] = w
    return sm.SimilarityGraph.from_dense(dense)


def negated_laplacian_quadratic(V, Z):
    """A broken quadratic form, its sign flipped: the claim suite must fail on it."""
    return -sm.laplacian_quadratic(V, Z)
