"""Exact k-nearest-neighbor search: a BLAS distance screen and an exact re-rank.

The reference is a per-row search that sums squared distances one coordinate
at a time, delta_ij = sum_t (x_jt - x_it)^2 with subtract, square and add in
coordinate order, and ranks each row by (delta, index): equal distances
resolve to the smaller index. Duplicate points (zero distance) are legitimate
neighbors and are kept; only the query point itself is excluded.
``knn_search`` returns that ranking and those distances bit for bit, through
one code path at every dimension D. ``sq_norms`` and ``block_sq_dists``
hold this arithmetic for the whole package; outside the screen below, the
one exception is the ``np.vecdot`` of the kernels' row-wise gradients,
kept because the optimizer's trajectory is pinned to its bits.

Overflow rule. Rounding is monotone, so every delta_ij is at most the same
coordinate-order sum of (max_t - min_t)^2. ``knn_search`` computes that sum
first and raises ``ConfigurationError`` when it is not finite in float64,
before any distance work; so neither the search nor the reference ever
forms an infinite distance.

Screen. The points are centered on their per-coordinate lower median m and
scaled by an exact power of two sigma, c_i = fl(sigma fl(x_i - m)), so that
every |c_it| < 1. The median keeps one far outlier from inflating every
row's norm. With n_j = ||c_j||^2, one ``dgemm`` per row block gives the
screen value g_ij = n_j - 2 c_i.c_j; the row's own n_i is left out because
it does not change the order within a row. The screen only bounds which j
can be a neighbor; it never decides one.

The bound. Let u = 2^-53, eta = 2^-1074 (the smallest subnormal) and
gamma_m = m u / (1 - m u), and write Q_ij = sigma^2 delta_ij - n_i for the
reference distance in screen units. Four sources separate g_ij from Q_ij;
each is bounded per pair, by a multiple of n_i + n_j plus an absolute term:

* centering and scaling: fl(x - m) carries a relative error of at most u,
  and the power-of-two scaling loses bits only to underflow (eta / 2 per
  coordinate). So c_i - c_j = sigma (x_i - x_j) + e with |e_t| <= 1.01 u
  (|c_it| + |c_jt|) + 1.01 eta, which moves the squared distance by at
  most 4.05 u (n_i + n_j) + 4.1 D eta, as ||c_i|| + ||c_j|| <=
  sqrt(2 (n_i + n_j)) and |c_it| < 1;
* ``dgemm`` and the norms: an inner product summed in any order (any
  blocking or BLAS thread count, with or without FMA) is within gamma_D
  sum_t |c_it c_jt| + D eta / 2 of its exact value, and sum_t |c_it c_jt|
  <= (n_i + n_j) / 2; with the additions that form the screen's two sides
  below, this step adds at most (2 gamma_D + 6.3 u)(n_i + n_j) + 2.5 D eta;
* the reference's own rounding: delta_ij is within gamma_{D+2} delta_ij of
  the exact squared distance, plus D eta / 2 for squares that underflow;
  in screen units at most 2.01 gamma_{D+2} (n_i + n_j) + sigma^2 D eta / 2;
* underflow, the eta terms above: they matter only near the subnormal
  range, or when sigma lifts tiny coordinates and with them the
  reference's absolute error.

In total the error is at most E (n_i + n_j) + F with E <= (4.01 D + 15) u
<= alpha / 2 for alpha = 16 (D + 4) u, and F <= D eta (sigma^2 / 2 + 7) <=
beta / 2 for beta = D eta (sigma^2 + 16). The screen's two sides are
A_ij = g_ij + alpha n_j and B_ij = g_ij - alpha n_j as computed, so

    A_ij >= Q_ij - alpha n_i / 2 - beta / 2,
    B_ij <= Q_ij + alpha n_i / 2 + beta / 2.

Let t_i be the k-th smallest A_ij over j != i. The k points with A_ij <= t_i
have Q_ij <= t_i + alpha n_i / 2 + beta / 2, so the reference's k-th
distance is at most that, and every j whose reference distance is at or
below the k-th has B_ij <= t_i + alpha n_i + beta. The search keeps the
candidates with B_ij <= thr_i = t_i + 4 u |t_i| + 2 alpha n_i + 2 beta; the
u |t_i| term and the factor 2 cover the rounding of thr_i itself and of
the computed norms. The bound is per pair: a far outlier has a large n_j,
which widens only its own pairs, and their screen values lie far above
every other row's threshold. (sigma^2 eta is capped at 2^64, which already
makes every pair a candidate.)

Re-rank. ``sq_norms`` evaluates the candidates again on the original points
and they are ordered by (delta, index) within each row; the first k of each
row are the result. Every j outside the candidates is strictly farther than
the reference's k-th neighbor, so this is the reference's output, ties
across the k-th boundary included. ``KnnGraph.exact_evals`` counts the pairs
re-ranked; its ratio to n k shows how tight the screen was.

Memory: one row block's float64 screen (about ``BLOCK_BYTES``), its boolean
candidate mask, and the k-th-value selection on copies of an eighth of a
block at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .datasets import DataMatrix
from .errors import ConfigurationError

# target size of one row block's float64 array, for the k-NN screen and the
# loss's all-pairs row sums; sized to stay near the L2 cache
BLOCK_BYTES = 2**20

_U = 2.0**-53
_ETA = math.ldexp(1.0, -1074)


@dataclass(frozen=True)
class KnnGraph:
    """Per-point neighbor ids and distances, each row sorted ascending.

    ``exact_evals`` is the number of candidate distances the search
    evaluated exactly."""

    indices: np.ndarray
    distances: np.ndarray
    k: int
    exact_evals: int


def row_block_buffers(n: int, count: int):
    """Consecutive (start, stop) row ranges whose n-column float64 block takes
    about ``BLOCK_BYTES`` (at least one row each), each with ``count`` float64
    (stop - start, n) arrays, views of buffers allocated once for the whole
    sweep: a fresh block-sized array per block is page-faulted anew each time."""
    block = max(1, BLOCK_BYTES // (8 * n))
    bufs = [np.empty(min(block, n) * n) for _ in range(count)]
    for start in range(0, n, block):
        stop = min(n, start + block)
        yield (start, stop, *(b[: (stop - start) * n].reshape(-1, n) for b in bufs))


def sq_norms(diff: np.ndarray) -> np.ndarray:
    """Squared norm of each row (along the last axis) of the float64 array
    ``diff``, (m, d) or (m, n_neg, d), with the reference's arithmetic:
    ``diff`` is squared in place (its values are consumed) and the
    coordinates are added in order."""
    diff *= diff
    s = diff[..., 0].copy()
    for t in range(1, diff.shape[-1]):
        s += diff[..., t]
    return s


def block_sq_dists(
    cols: list[np.ndarray], start: int, stop: int, out: np.ndarray, work: np.ndarray
) -> np.ndarray:
    """Squared distances from rows [start, stop) to every point, written to
    ``out`` and summed in coordinate order with in-place subtract, square
    and add; ``work`` is a spare array of the same (stop - start, n) shape.

    ``cols`` holds one contiguous array per coordinate. Entry (i, j) equals
    entry (j, i) bit for bit, since (y_j - y_i)^2 == (y_i - y_j)^2 exactly."""
    out.fill(0.0)
    for col in cols:
        np.subtract(col[None, :], col[start:stop, None], out=work)
        np.multiply(work, work, out=work)
        np.add(out, work, out=out)
    return out


def _check_spread(points: np.ndarray) -> None:
    """Raise when sum_t (max_t - min_t)^2, summed in coordinate order, is not
    finite in float64: it bounds every pairwise squared distance."""
    with np.errstate(over="ignore"):
        spread = sq_norms((points.max(axis=0) - points.min(axis=0))[None, :])[0]
    if not math.isfinite(spread):
        raise ConfigurationError(
            "coordinate spread overflows float64: the sum over axes of "
            "(max - min)^2 must be finite"
        )


def _screen_coords(points: np.ndarray) -> tuple[np.ndarray, int]:
    """Points centered on the per-coordinate lower median and scaled by 2^-e
    so every entry is below 1 in magnitude; returns them and e."""
    n = points.shape[0]
    mid = (n - 1) // 2
    C = points - np.partition(points, mid, axis=0)[mid]
    top = float(np.abs(C).max())
    e = math.frexp(top)[1] if top > 0.0 else 0
    return np.ldexp(C, -e, out=C), e


def _kth_smallest(A: np.ndarray, k: int) -> np.ndarray:
    """The k-th smallest entry of each row, partitioning copies of an eighth
    of the rows at a time."""
    step = max(1, A.shape[0] // 8)
    kth = np.empty(A.shape[0])
    for r in range(0, A.shape[0], step):
        kth[r : r + step] = np.partition(A[r : r + step], k - 1, axis=1)[:, k - 1]
    return kth


def knn_search(X: DataMatrix, k: int) -> KnnGraph:
    """Exact k nearest neighbors of every point under the Euclidean metric,
    bit-identical to the per-row reference of the module docstring."""
    n, dim = X.n, X.dim
    if k < 1:
        raise ConfigurationError("k must be >= 1")
    if k >= n:
        raise ConfigurationError(f"k={k} requires at least k+1={k + 1} points, got {n}")
    P = X.points
    _check_spread(P)

    C, e = _screen_coords(P)
    norms = np.einsum("ij,ij->i", C, C)
    alpha = 16 * (dim + 4) * _U
    beta = dim * (math.ldexp(1.0, min(-2 * e - 1074, 64)) + 16 * _ETA)
    upper = norms + alpha * norms  # n_j (1 + alpha)
    lower = 2 * alpha * norms

    indices = np.empty((n, k), dtype=np.int64)
    distances = np.empty((n, k), dtype=np.float64)
    exact_evals = 0
    for start, stop, A in row_block_buffers(n, 1):
        m = stop - start
        own = np.arange(m)
        # A holds the screen's A side, then its B side
        np.matmul(-2.0 * C[start:stop], C.T, out=A)
        A += upper
        A[own, start + own] = np.inf
        t = _kth_smallest(A, k)
        thr = t + 4 * _U * np.abs(t)
        thr += 2 * alpha * norms[start:stop] + 2 * beta
        A -= lower
        rows, cols = np.divmod(np.flatnonzero(A <= thr[:, None]), n)

        # re-rank the candidates with the reference's arithmetic
        diff = P.take(cols, axis=0)
        diff -= P.take(rows + start, axis=0)
        d2 = sq_norms(diff)
        order = np.lexsort((cols, d2, rows))
        counts = np.bincount(rows, minlength=m)
        first = np.cumsum(counts) - counts
        picked = order[first[:, None] + np.arange(k)]
        indices[start:stop] = cols[picked]
        distances[start:stop] = np.sqrt(d2[picked])
        exact_evals += rows.size
    return KnnGraph(indices=indices, distances=distances, k=k, exact_evals=exact_evals)
