"""Fuzzy similarity graph construction.

Three stages: per-point calibration of the local offset rho_i (distance to
the nearest distinct neighbor) and bandwidth sigma_i (binary search so the
smoothed neighbor weights sum to log2 k), directed edge weights
exp(-max(0, d - rho_i) / sigma_i), and symmetrization through the
probabilistic t-conorm a (+) b = a + b - ab.

The result is a ``SimilarityGraph(n, rows, cols, weights)``: the canonical
edge arrays (row-major, sorted, duplicate-free) of a symmetric matrix with
zero diagonal and weights in [0, 1], validated once with numpy. ``symmetrize``
makes them itself, the adapter ``from_dense`` from a square array. Edge sums
read the arrays. The scipy CSR ``matrix`` is built from them on first use,
and the degrees are its row sums, computed per call; only the CSR and the
components are cached. The connected components come from a numpy
hook-and-compress pass over the same arrays.

``scipy.sparse`` takes about 0.2 s to import, which a process that builds
no graph should not pay, so ``directed_weights`` and ``matrix`` import it
when they first build a CSR matrix. ``embed`` loads it there, and
``run_suite`` before its first claim. ``import spectramap.cli`` loads numpy
and no scipy; ``import spectramap`` loads neither, until a name is read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .datasets import DataMatrix
from .errors import ConfigurationError, GraphStructureError
from .knn import KnnGraph, knn_search

if TYPE_CHECKING:
    import scipy.sparse as sp

BRACKET_LO = 1e-8
BRACKET_HI = 1e4
MAX_BISECT_ITERS = 64
RESIDUAL_TOL = 1e-5
# bandwidth used when every neighbor gap is zero and the calibration sum is
# constant in sigma; any positive value yields the same unit weights
FALLBACK_SIGMA = 1.0


@dataclass(frozen=True)
class SmoothKnnParams:
    """Calibrated (rho, sigma) per point, with diagnostics.

    ``flagged[i]`` marks rows where the calibration target log2(k) has no
    root in the search bracket; sigma is then clamped (see module notes) and
    ``residual[i]`` records how far the weight sum remains from the target.
    """

    rho: np.ndarray
    sigma: np.ndarray
    flagged: np.ndarray
    residual: np.ndarray


def _weight_sum(gaps: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Sum_j exp(-gap_ij / sigma_i) for each row; increasing in sigma."""
    return np.exp(-gaps / sigma[:, None]).sum(axis=1)


def smooth_knn_params(knn: KnnGraph) -> SmoothKnnParams:
    """Calibrate (rho_i, sigma_i) so each row's weight sum hits log2 k.

    rho_i is the smallest strictly positive neighbor distance (0 if all
    neighbor distances vanish). sigma_i is found by bisection on the bracket
    [1e-8, 1e4] x (mean positive gap); the weight sum is monotone increasing
    in sigma, so a row is unsolvable when its sigma -> 0 limit (the count of
    zero gaps) already reaches the target. Unsolvable rows clamp sigma to
    the upper bracket edge and are flagged rather than raised.
    """
    if knn.k < 2:
        raise ConfigurationError("calibration needs k >= 2")

    d = knn.distances
    n, k = d.shape
    target = np.log2(k)

    pos = d > 0.0
    has_pos_dist = pos.any(axis=1)
    first_pos = np.where(pos, d, np.inf).min(axis=1)
    rho = np.where(has_pos_dist, first_pos, 0.0)

    gaps = np.maximum(d - rho[:, None], 0.0)
    pos_gap = gaps > 0.0
    n_pos = pos_gap.sum(axis=1)
    n_zero = k - n_pos
    mean_gap = np.divide(
        gaps.sum(axis=1), n_pos, out=np.ones(n), where=n_pos > 0
    )

    sigma = np.full(n, FALLBACK_SIGMA)
    flagged = np.zeros(n, dtype=bool)

    degenerate = n_pos == 0
    unreachable = (~degenerate) & (n_zero >= target)
    flagged[degenerate | unreachable] = True
    sigma[unreachable] = BRACKET_HI * mean_gap[unreachable]

    solve = ~(degenerate | unreachable)
    if solve.any():
        g = gaps[solve]
        lo = BRACKET_LO * mean_gap[solve]
        hi = BRACKET_HI * mean_gap[solve]

        s_lo = _weight_sum(g, lo)
        s_hi = _weight_sum(g, hi)
        below = s_hi < target  # root above the bracket
        above = s_lo > target  # root below the bracket

        for _ in range(MAX_BISECT_ITERS):
            mid = 0.5 * (lo + hi)
            too_big = _weight_sum(g, mid) >= target
            hi = np.where(too_big, mid, hi)
            lo = np.where(too_big, lo, mid)
        sig = 0.5 * (lo + hi)
        sig[below] = (BRACKET_HI * mean_gap[solve])[below]
        sig[above] = (BRACKET_LO * mean_gap[solve])[above]
        sigma[solve] = sig

        flagged[solve] = below | above

    residual = np.abs(_weight_sum(gaps, sigma) - target)
    # rows outside ``solve`` are flagged already
    flagged |= residual > RESIDUAL_TOL
    return SmoothKnnParams(rho=rho, sigma=sigma, flagged=flagged, residual=residual)


def directed_weights(knn: KnnGraph, params: SmoothKnnParams) -> sp.csr_matrix:
    """exp(-max(0, d_ij - rho_i) / sigma_i) for every k-NN edge, as the CSR
    matrix of directed weights v_{j|i}, row i holding point i's neighbors.

    Weights are in (0, 1]; entries that underflow to exactly zero (possible
    only for clamped degenerate rows) are dropped from the sparse structure.
    """
    import scipy.sparse as sp

    n, k = knn.distances.shape
    gaps = np.maximum(knn.distances - params.rho[:, None], 0.0)
    vals = np.exp(-gaps / params.sigma[:, None])
    rows = np.repeat(np.arange(n), k)
    mat = sp.csr_matrix(
        (vals.ravel(), (rows, knn.indices.ravel())), shape=(n, n)
    )
    mat.eliminate_zeros()
    return mat


def t_conorm(a, b):
    """Probabilistic fuzzy union a + b - ab on [0, 1].

    Computed so the algebraic laws hold exactly in floating point:
    commutative, 0 is the identity, 1 is absorbing, and the result never
    exceeds 1.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    raw = a + b - a * b
    out = np.where(np.maximum(a, b) == 1.0, 1.0, np.minimum(raw, 1.0))
    return out if out.ndim else float(out)


def _index_dtype(n: int, nnz: int):
    """scipy's choice of sparse index dtype: int32 while it can hold n and nnz."""
    return np.int32 if max(n, nnz) < 2**31 else np.int64


def connected_components(n: int, rows: np.ndarray, cols: np.ndarray) -> tuple[int, np.ndarray]:
    """Components of the undirected graph on n vertices whose edges are the
    pairs (rows[e], cols[e]): their number and each vertex's label.

    Each vertex points at a smaller or equal one. A round points every
    vertex at its root, then hooks each root onto the smallest root across
    an edge; no edge crossing two roots is left at the end. The labels
    number the components by their smallest vertex, as scipy's
    ``connected_components`` does, with its int32 dtype.
    """
    root = np.arange(n)
    while True:
        while not np.array_equal(up := root[root], root):
            root = up
        a, b = root[rows], root[cols]
        cross = a != b
        if not cross.any():
            break
        a, b = a[cross], b[cross]
        np.minimum.at(root, np.maximum(a, b), np.minimum(a, b))
    first = root == np.arange(n)
    return int(first.sum()), (np.cumsum(first) - 1)[root].astype(np.int32)


@dataclass(frozen=True, eq=False)
class SimilarityGraph:
    """Symmetric fuzzy adjacency matrix with weights in [0, 1], zero diagonal.

    ``SimilarityGraph(n, rows, cols, weights)`` takes over the canonical
    arrays of the stored entries, row-major, sorted and duplicate-free (the
    keys rows * n + cols strictly increase) with every index in [0, n), and
    makes them read-only. An explicitly stored zero stays an entry. The
    arrays are validated once: integer and canonical indices, finite weights,
    exact symmetry (W_ij == W_ji as values, a missing entry counting as 0),
    zero diagonal and weights in [0, 1]. The scipy CSR ``matrix`` and the
    connected components are each computed on first use and kept; the
    degrees are ``matrix``'s row sums, computed per call. The graph is
    immutable. The adapter ``from_dense`` (the nonzero entries of a square
    array, no scipy matrix built) makes the arrays with scipy's int32 index
    dtype (int64 once n or nnz outgrows it) and float64 weights.
    """

    n: int
    rows: np.ndarray
    cols: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or self.n < 0:
            raise GraphStructureError(f"vertex count must be an integer >= 0, got {self.n!r}")
        n = int(self.n)
        rows, cols = np.asarray(self.rows), np.asarray(self.cols)
        weights = np.asarray(self.weights, dtype=np.float64)
        if not rows.shape == cols.shape == weights.shape == (weights.size,):
            raise GraphStructureError("rows, cols and weights must be 1-D and of one length")
        if rows.dtype.kind not in "iu" or cols.dtype.kind not in "iu":
            raise GraphStructureError("rows and cols must be integer arrays")
        key = rows.astype(np.int64) * n + cols
        if np.any(key[1:] <= key[:-1]):
            raise GraphStructureError("entries must be row-major sorted and duplicate-free")
        # increasing keys with every column in [0, n) leave the rows sorted
        if rows.size and (rows[0] < 0 or rows[-1] >= n or cols.min() < 0 or cols.max() >= n):
            raise GraphStructureError(f"vertex index outside [0, {n})")
        if not np.all(np.isfinite(weights)):
            # NaN fails every comparison below, so it must be caught first
            raise GraphStructureError("edge weights must be finite")
        # symmetric iff the nonzero entries, keyed col * n + row and sorted,
        # repeat the row-major keys with the same weights
        nz = weights != 0.0
        r, c, w = rows[nz], cols[nz], weights[nz]
        key_t = c.astype(np.int64) * n + r
        order = np.argsort(key_t)
        if not (np.array_equal(key_t[order], key[nz]) and np.array_equal(w[order], w)):
            raise GraphStructureError("adjacency matrix must be exactly symmetric")
        if np.any(w[r == c]):
            raise GraphStructureError("diagonal must be zero")
        if weights.size and (weights.min() < 0.0 or weights.max() > 1.0):
            raise GraphStructureError("edge weights must lie in [0, 1]")
        for name, arr in (("rows", rows), ("cols", cols), ("weights", weights)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "n", n)

    @classmethod
    def from_dense(cls, dense) -> "SimilarityGraph":
        """Graph on the nonzero entries of a square array."""
        dense = np.atleast_2d(np.asarray(dense, dtype=np.float64))
        if dense.ndim != 2 or dense.shape[0] != dense.shape[1]:
            raise GraphStructureError("adjacency matrix must be square")
        rows, cols = np.nonzero(dense)
        idx = _index_dtype(dense.shape[0], rows.size)
        return cls(dense.shape[0], rows.astype(idx), cols.astype(idx), dense[rows, cols])

    @property
    def nnz(self) -> int:
        return self.weights.size

    @cached_property
    def matrix(self) -> sp.csr_matrix:
        """The adjacency matrix as scipy CSR, for Laplacian and graph work."""
        import scipy.sparse as sp

        indptr = np.searchsorted(self.rows, np.arange(self.n + 1))
        return sp.csr_matrix((self.weights, self.cols, indptr), shape=(self.n, self.n), copy=True)

    @cached_property
    def components(self) -> tuple[int, np.ndarray]:
        """Number of connected components and each vertex's component label
        (see ``connected_components``); every stored entry is an edge, an
        explicit zero too, as scipy counts it."""
        count, labels = connected_components(self.n, self.rows, self.cols)
        labels.flags.writeable = False
        return count, labels

    def degrees(self) -> np.ndarray:
        """d_i = sum_j v_ij for every vertex: ``matrix``'s row sums, computed
        per call into a fresh array."""
        return np.asarray(self.matrix.sum(axis=1)).ravel()

    def edges(self):
        """Upper-triangle edge view: (i, j, w) arrays with i < j."""
        keep = self.rows < self.cols
        return self.rows[keep], self.cols[keep], self.weights[keep]

    def save_edge_list(self, path) -> None:
        """Text serialization: the vertex count on the first line, then one
        ``i j w`` line per undirected edge, with i < j and w in ``.17g``."""
        i, j, w = self.edges()
        lines = [f"{self.n}"]
        lines += [f"{a} {b} {v:.17g}" for a, b, v in zip(i, j, w)]
        Path(path).write_text("\n".join(lines) + "\n")


def symmetrize(directed: sp.csr_matrix) -> SimilarityGraph:
    """Fuzzy-union the two directions of every edge of the ``directed_weights``
    matrix: v_ij = v_j|i (+) v_i|j."""
    n = directed.shape[0]
    coo = directed.tocoo()
    key_fwd = coo.row.astype(np.int64) * n + coo.col
    key_bwd = coo.col.astype(np.int64) * n + coo.row
    # sort and keep each run's first key, which differs from its predecessor
    # (the first from -1, as keys are >= 0): numpy 2.4's np.unique takes a
    # hash path here, 0.33 s against np.sort's 0.008 s on the 893k keys of a
    # 20,000-point k = 15 graph (2 CPUs)
    keys = np.sort(np.concatenate([key_fwd, key_bwd]))
    keys = keys[np.diff(keys, prepend=-1) != 0]

    p = np.zeros(keys.size)
    q = np.zeros(keys.size)
    p[np.searchsorted(keys, key_fwd)] = coo.data
    q[np.searchsorted(keys, key_bwd)] = coo.data

    w = t_conorm(p, q)
    # the keys are sorted and unique, so these arrays are already canonical
    idx = _index_dtype(n, keys.size)
    return SimilarityGraph(n, (keys // n).astype(idx), (keys % n).astype(idx), w)


def build_similarity_graph(X: DataMatrix, k: int) -> SimilarityGraph:
    """Full pipeline: k-NN search, (rho, sigma) calibration, fuzzy union."""
    knn = knn_search(X, k)
    params = smooth_knn_params(knn)
    return symmetrize(directed_weights(knn, params))
