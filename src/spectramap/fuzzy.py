"""Fuzzy similarity graph construction.

Three stages: per-point calibration of the local offset rho_i (distance to
the nearest distinct neighbor) and bandwidth sigma_i (binary search so the
smoothed neighbor weights sum to log2 k), directed edge weights
exp(-max(0, d - rho_i) / sigma_i), and symmetrization through the
probabilistic t-conorm a (+) b = a + b - ab.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .datasets import DataMatrix
from .errors import ConfigurationError, GraphStructureError, ParseError
from .knn import KnnGraph, knn_search

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

        res = np.abs(_weight_sum(g, sig) - target)
        sub_flag = below | above | (res > RESIDUAL_TOL)
        flags = flagged[solve]
        flags |= sub_flag
        flagged[solve] = flags

    residual = np.abs(_weight_sum(gaps, sigma) - target)
    return SmoothKnnParams(rho=rho, sigma=sigma, flagged=flagged, residual=residual)


@dataclass(frozen=True)
class DirectedWeights:
    """Sparse matrix of directed fuzzy weights v_{j|i} on the k-NN edges."""

    matrix: sp.csr_matrix

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def directed_weights(knn: KnnGraph, params: SmoothKnnParams) -> DirectedWeights:
    """exp(-max(0, d_ij - rho_i) / sigma_i) for every k-NN edge.

    Weights are in (0, 1]; entries that underflow to exactly zero (possible
    only for clamped degenerate rows) are dropped from the sparse structure.
    """
    n, k = knn.distances.shape
    gaps = np.maximum(knn.distances - params.rho[:, None], 0.0)
    vals = np.exp(-gaps / params.sigma[:, None])
    rows = np.repeat(np.arange(n), k)
    mat = sp.csr_matrix(
        (vals.ravel(), (rows, knn.indices.ravel())), shape=(n, n)
    )
    mat.eliminate_zeros()
    mat.sort_indices()
    return DirectedWeights(matrix=mat)


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


@dataclass(frozen=True)
class SimilarityGraph:
    """Symmetric fuzzy adjacency matrix with weights in [0, 1], zero diagonal."""

    matrix: sp.csr_matrix

    def __post_init__(self):
        m = self.matrix.tocsr()
        m.sum_duplicates()
        m.sort_indices()
        if m.shape[0] != m.shape[1]:
            raise GraphStructureError("adjacency matrix must be square")
        if not np.all(np.isfinite(m.data)):
            # NaN fails every comparison below, so it must be caught first
            raise GraphStructureError("edge weights must be finite")
        asym = m - m.T
        if asym.nnz and np.abs(asym.data).max() > 0.0:
            raise GraphStructureError("adjacency matrix must be exactly symmetric")
        if m.diagonal().any():
            raise GraphStructureError("diagonal must be zero")
        if m.nnz and (m.data.min() < 0.0 or m.data.max() > 1.0):
            raise GraphStructureError("edge weights must lie in [0, 1]")
        object.__setattr__(self, "matrix", m)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def nnz(self) -> int:
        return self.matrix.nnz

    def degrees(self) -> np.ndarray:
        return np.asarray(self.matrix.sum(axis=1)).ravel()

    def total_weight(self) -> float:
        """Sum of v_ij over ordered pairs (twice the undirected total)."""
        return float(self.matrix.sum())

    def edges(self):
        """Upper-triangle edge view: (i, j, w) arrays with i < j."""
        coo = self.matrix.tocoo()
        keep = coo.row < coo.col
        return coo.row[keep], coo.col[keep], coo.data[keep]

    @classmethod
    def from_dense(cls, dense) -> "SimilarityGraph":
        return cls(sp.csr_matrix(np.asarray(dense, dtype=np.float64)))

    def save_edge_list(self, path) -> None:
        """Text serialization: one `i j w` line per undirected edge, i < j."""
        i, j, w = self.edges()
        lines = [f"{self.n}"]
        lines += [f"{a} {b} {v:.17g}" for a, b, v in zip(i, j, w)]
        Path(path).write_text("\n".join(lines) + "\n")

    @classmethod
    def load_edge_list(cls, path) -> "SimilarityGraph":
        """Inverse of ``save_edge_list``; errors name the 1-based line.

        Raises ``ParseError`` for a bad header, a line without exactly three
        fields or a non-numeric field, and ``GraphStructureError`` for an
        index outside [0, n), a self-loop, a weight outside [0, 1] or an edge
        given twice (in either orientation).
        """
        lines = Path(path).read_text().splitlines()
        header = lines[0].strip() if lines else ""
        try:
            n = int(header)
        except ValueError:
            raise ParseError(f"line 1: header must be the vertex count, got {header!r}") from None
        if n < 1:
            raise ParseError(f"line 1: vertex count must be >= 1, got {n}")
        seen: set[tuple[int, int]] = set()
        rows, cols, vals = [], [], []
        for lineno, line in enumerate(lines[1:], start=2):
            fields = line.split()
            if not fields:
                continue
            if len(fields) != 3:
                raise ParseError(f"line {lineno}: expected 'i j w', got {line.strip()!r}")
            try:
                a, b, v = int(fields[0]), int(fields[1]), float(fields[2])
            except ValueError:
                raise ParseError(
                    f"line {lineno}: non-numeric or non-integer field in {line.strip()!r}"
                ) from None
            if not (0 <= a < n and 0 <= b < n):
                raise GraphStructureError(
                    f"line {lineno}: vertex index outside [0, {n}) in {line.strip()!r}"
                )
            if a == b or not 0.0 <= v <= 1.0:
                raise GraphStructureError(
                    f"line {lineno}: need i != j and a weight in [0, 1], got {line.strip()!r}"
                )
            key = (min(a, b), max(a, b))
            if key in seen:
                raise GraphStructureError(f"line {lineno}: duplicate edge {key[0]} {key[1]}")
            seen.add(key)
            rows += [a, b]
            cols += [b, a]
            vals += [v, v]
        return cls(sp.csr_matrix((vals, (rows, cols)), shape=(n, n)))


def symmetrize(directed: DirectedWeights) -> SimilarityGraph:
    """Fuzzy-union the two directions of every edge: v_ij = v_j|i (+) v_i|j."""
    n = directed.n
    coo = directed.matrix.tocoo()
    key_fwd = coo.row.astype(np.int64) * n + coo.col
    key_bwd = coo.col.astype(np.int64) * n + coo.row
    keys = np.unique(np.concatenate([key_fwd, key_bwd]))

    p = np.zeros(keys.size)
    q = np.zeros(keys.size)
    p[np.searchsorted(keys, key_fwd)] = coo.data
    q[np.searchsorted(keys, key_bwd)] = coo.data

    w = t_conorm(p, q)
    rows, cols = keys // n, keys % n
    mat = sp.csr_matrix((w, (rows, cols)), shape=(n, n))
    return SimilarityGraph(matrix=mat)


def build_similarity_graph(X: DataMatrix, k: int) -> SimilarityGraph:
    """Full pipeline: k-NN search, (rho, sigma) calibration, fuzzy union."""
    knn = knn_search(X, k)
    params = smooth_knn_params(knn)
    return symmetrize(directed_weights(knn, params))
