"""Exact k-nearest-neighbor search.

Brute force O(n^2 D), processed in blocks of query rows so one block's
distance matrix takes about ``BLOCK_BYTES``. Squared distances accumulate one
coordinate at a time, an elementary reduction order the scalar test oracle
reproduces exactly, so neighbors and distances are bit-identical to it.

Tie rule: neighbors are ordered by (distance, index), so equal distances
resolve to the smaller index. Duplicate points (zero distance) are legitimate
neighbors and are kept; only the query point itself is excluded. Each row
takes k candidates with ``argpartition``; when more than k entries sit at or
below the k-th distance, the whole tied set is ordered by the same rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datasets import DataMatrix
from .errors import ConfigurationError

# target size of one block's float64 distance matrix
BLOCK_BYTES = 8 * 2**20


@dataclass(frozen=True)
class KnnGraph:
    """Per-point neighbor ids and distances, each row sorted ascending."""

    indices: np.ndarray
    distances: np.ndarray
    k: int

    @property
    def n(self) -> int:
        return self.indices.shape[0]


def row_blocks(n: int):
    """Consecutive (start, stop) row ranges whose n-column float64 block takes
    about ``BLOCK_BYTES`` (at least one row each)."""
    block = max(1, BLOCK_BYTES // (8 * n))
    for start in range(0, n, block):
        yield start, min(n, start + block)


def block_sq_dists(cols: list[np.ndarray], start: int, stop: int) -> np.ndarray:
    """Squared distances from rows [start, stop) to every point, summed in
    coordinate order with in-place subtract, square and add.

    ``cols`` holds one contiguous array per coordinate. Entry (i, j) equals
    entry (j, i) bit for bit, since (y_j - y_i)^2 == (y_i - y_j)^2 exactly."""
    d2 = np.zeros((stop - start, cols[0].size))
    diff = np.empty_like(d2)
    for col in cols:
        np.subtract(col[None, :], col[start:stop, None], out=diff)
        np.multiply(diff, diff, out=diff)
        np.add(d2, diff, out=d2)
    return d2


def _select_rows(d2: np.ndarray, k: int) -> np.ndarray:
    """The k smallest entries of each row in (value, column) order."""
    rows = np.arange(d2.shape[0])[:, None]
    cand = np.argpartition(d2, k - 1, axis=1)[:, :k]
    cand_d = d2[rows, cand]
    kth = cand_d.max(axis=1)
    order = np.lexsort((cand, cand_d), axis=1)
    picked = cand[rows, order]
    # ties at the k-th distance: argpartition picked an arbitrary subset of
    # the tied columns, so order the full set at or below it instead
    for r in np.flatnonzero((d2 <= kth[:, None]).sum(axis=1) > k):
        tied = np.flatnonzero(d2[r] <= kth[r])
        picked[r] = tied[np.lexsort((tied, d2[r, tied]))[:k]]
    return picked


def knn_search(X: DataMatrix, k: int) -> KnnGraph:
    """Exact k nearest neighbors of every point under the Euclidean metric."""
    n = X.n
    if k < 1:
        raise ConfigurationError("k must be >= 1")
    if k >= n:
        raise ConfigurationError(f"k={k} requires at least k+1={k + 1} points, got {n}")

    cols = [np.ascontiguousarray(X.points[:, t]) for t in range(X.dim)]
    indices = np.empty((n, k), dtype=np.int64)
    distances = np.empty((n, k), dtype=np.float64)
    for start, stop in row_blocks(n):
        d2 = block_sq_dists(cols, start, stop)
        rows = np.arange(stop - start)
        d2[rows, start + rows] = np.inf
        picked = _select_rows(d2, k)
        indices[start:stop] = picked
        distances[start:stop] = np.sqrt(d2[rows[:, None], picked])
        del d2  # free this block before the next one is allocated
    return KnnGraph(indices=indices, distances=distances, k=k)
