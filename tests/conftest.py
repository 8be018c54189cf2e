import numpy as np
import pytest

import spectramap as sm
from spectramap.losses import LOG_CLAMP


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


def graph_from_sparse(m):
    """``SimilarityGraph`` on the entries of a square scipy sparse matrix,
    duplicates summed first."""
    m = m.tocsr(copy=True)
    m.sum_duplicates()  # also sorts each row's indices
    rows = np.repeat(np.arange(m.shape[0], dtype=m.indices.dtype), np.diff(m.indptr))
    return sm.SimilarityGraph(m.shape[0], rows, m.indices, m.data)


def read_edge_list(path):
    """(n, i, j, w) of a file that ``save_edge_list`` wrote."""
    with open(path) as f:
        n = int(f.readline())
        table = np.loadtxt(f, dtype=[("i", np.int64), ("j", np.int64), ("w", np.float64)],
                           ndmin=1)
    return n, table["i"], table["j"], table["w"]


def negated_laplacian_quadratic(V, Z):
    """A broken quadratic form, its sign flipped: the claim suite must fail on it."""
    return -sm.laplacian_quadratic(V, Z)


def stochastic_step_loss(a, b, negs, Y, p):
    """One negative-sampling event's loss, one scalar at a time: the oracle
    that ``losses.step_losses`` (and through it ``losses.event_losses``, which
    the optimizer's trace uses) must match bit for bit.

    Positive pair (a, b) with the closed-form log phi, then each negative's
    clamped log(1 - phi) in draw order; draws equal to the anchor are skipped.
    """
    Y = np.atleast_2d(np.asarray(Y, dtype=np.float64))

    def sq_dist(i, j):
        # same coordinate-at-a-time accumulation as knn.sq_norms, which
        # squares by multiplication: x ** 2 goes through pow, which can
        # differ from x * x in the last bit
        s = 0.0
        for t in range(Y.shape[1]):
            diff = Y[i, t] - Y[j, t]
            s += diff * diff
        return s

    loss = -float(sm.log_phi(sq_dist(a, b), p))
    for c in np.atleast_1d(negs):
        if c == a:
            continue
        loss -= float(np.log(max(sm.one_minus_phi(sq_dist(a, c), p), LOG_CLAMP)))
    return loss
