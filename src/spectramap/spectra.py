"""Graph Laplacians, their quadratic form, spectral layout, and normalized cut.

For a symmetric weight matrix W with degrees d_i = sum_j W_ij, the
combinatorial Laplacian is L = D - W and the normalized Laplacian is
Lnorm = D^{-1/2} L D^{-1/2}. The central identity

    tr(Z^T L Z) = 1/2 * sum_ij W_ij ||Z_i - Z_j||^2

lets the quadratic form be evaluated as a sum over stored edges, which is
how ``laplacian_quadratic`` computes it; the dense matrix product is kept
only as an independent cross-check in the test suite.

``spectral_init`` needs only the d eigenpairs of Lnorm just above its null
space, and that null space is known exactly: one vector D^{1/2} 1_c per
connected component c. Chebyshev-filtered subspace iteration (Zhou, Saad,
Tiago & Chelikowsky, J. Comput. Phys. 219, 2006) finds them at every n. It
works on a block of d + ``BLOCK_EXTRA`` vectors (on all n - n_null of a
smaller graph, where the first Rayleigh-Ritz step is exact), drawn from a
``START_SEED`` generator and kept orthogonal to the null space. Each round
is a Rayleigh-Ritz step on the block, then a degree-``FILTER_DEGREE``
Chebyshev polynomial in Lnorm that is bounded by 1 on [largest Ritz value,
2] and grows fast below it: the spectrum of Lnorm lies in [0, 2], so the
filter damps every eigenvalue above the block and amplifies the wanted
ones, with sparse products only. A block wider than an eigenvalue's
multiplicity holds every copy of it, which one Krylov start vector cannot.
A narrower block can sink into a wanted eigenvalue's eigenspace, where its
largest Ritz value comes within its residual of the wanted ones and the
filter stalls; then the block is doubled with fresh columns. The solver
stops once the d wanted pairs have residual ||Lnorm u - lambda u|| at most
``EIG_RESIDUAL_TOL``/100, and gives up after ``MAX_ROUNDS`` rounds. Only
the dense oracle ``ncut_relaxation_check`` imports ``scipy.linalg``, when
it runs, so ``embed`` never pays that import (about 0.2 s and 12 MB).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import ConfigurationError, EigensolverError, GraphStructureError
from .fuzzy import SimilarityGraph
from .knn import sq_norms

# the dense oracles treat eigenvalues at or below this as the zero eigenspace
NULL_SPACE_TOL = 1e-8
# largest accepted ||Lnorm u - lambda u|| of a returned eigenpair
EIG_RESIDUAL_TOL = 1e-8
# seed of the iterative solver's start vectors
START_SEED = 0
# vectors the iterative solver's block holds beyond the d wanted ones
BLOCK_EXTRA = 10
# degree of the Chebyshev filter applied to the block every round
FILTER_DEGREE = 24
# rounds after which the iterative solver gives up
MAX_ROUNDS = 200


@dataclass(frozen=True)
class LaplacianPair:
    """Degrees plus the combinatorial and normalized Laplacians of a graph."""

    degree: np.ndarray
    combinatorial: sp.csr_matrix
    normalized: sp.csr_matrix


def build_laplacians(V: SimilarityGraph) -> LaplacianPair:
    """Compute L = D - V and Lnorm = D^{-1/2} L D^{-1/2}; rejects isolated vertices."""
    deg = V.degrees()
    bad = np.flatnonzero(deg <= 0)
    if bad.size:
        raise GraphStructureError(
            f"vertex {bad[0]} is isolated (degree 0); normalized Laplacian undefined"
        )
    D = sp.diags(deg)
    L = (D - V.matrix).tocsr()
    inv_sqrt = sp.diags(1.0 / np.sqrt(deg))
    Lnorm = (inv_sqrt @ L @ inv_sqrt).tocsr()
    return LaplacianPair(degree=deg, combinatorial=L, normalized=Lnorm)


def edge_sq_lengths(V: SimilarityGraph, Y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Weights w and squared lengths s = ||Y_i - Y_j||^2 of the stored edges.

    Reads the graph's canonical edge arrays, in their row-major order, with
    both orientations of each undirected edge; no sparse matrix is built.
    Every edge-sum form (attraction, quadratic form, curvature bound) reads
    its lengths here, with ``knn.sq_norms``'s arithmetic, so each equals the
    all-pairs ``knn.block_sq_dists`` at its pair bit for bit; rejects a Y
    whose row count is not the graph's vertex count.
    """
    Y = np.atleast_2d(np.asarray(Y, dtype=np.float64))
    if Y.shape[0] != V.n:
        raise ConfigurationError(
            f"Y has {Y.shape[0]} rows but the graph has {V.n} vertices"
        )
    return V.weights, sq_norms(Y.take(V.rows, axis=0) - Y.take(V.cols, axis=0))


def laplacian_quadratic(V: SimilarityGraph, Z: np.ndarray) -> float:
    """tr(Z^T L(V) Z) evaluated as the half-sum of w_ij ||Z_i - Z_j||^2 over edges."""
    w, s = edge_sq_lengths(V, Z)
    return 0.5 * float(w @ s)


@dataclass(frozen=True)
class SpectralSolution:
    """Selected eigenvectors of the normalized Laplacian.

    ``vectors`` holds orthonormal eigenvector columns for the ``values``
    (ascending) strictly above the zero eigenspace; ``n_null`` is the
    dimension of the discarded zero eigenspace, which equals the number of
    connected components; ``residual`` is the largest eigen-residual
    ||Lnorm u - lambda u|| over the returned pairs.
    """

    vectors: np.ndarray
    values: np.ndarray
    n_null: int
    residual: float


def _fix_signs(vecs: np.ndarray) -> np.ndarray:
    """Make the largest-magnitude entry of each column positive (first on ties)."""
    lead = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(vecs.shape[1])]
    return np.where(lead < 0, -vecs, vecs)


def _filtered_subspace(
    Ln: sp.csr_matrix, sqrt_deg: np.ndarray, labels: np.ndarray, d: int
) -> tuple[np.ndarray, np.ndarray]:
    """Bottom d eigenpairs of Lnorm above the null space spanned by the
    per-component vectors D^{1/2} 1_c, by Chebyshev-filtered subspace
    iteration (see the module docstring)."""
    n = Ln.shape[0]
    vol = np.bincount(labels, weights=sqrt_deg**2)
    # entries of the orthonormal null basis, one column per component
    q = sqrt_deg / np.sqrt(vol[labels])

    rng = np.random.default_rng(START_SEED)
    # a Gram-Schmidt pass that leaves less than this share of a column has
    # left only its rounding error: the column lay in the span projected out
    vanished = n * np.finfo(np.float64).eps

    def orthonormalize(X):
        # classical Gram-Schmidt against the null space and the earlier
        # columns, repeated while a pass removes more than half of a column
        # (Daniel, Gragg, Kaufman & Stewart 1976), which leaves each column
        # orthogonal to rounding; a vanished column is redrawn. LAPACK's
        # Householder QR took up to 45 ms per call on a 1000 x 12 block under
        # 2-thread OpenBLAS on 2 CPUs, this under 1 ms.
        for j in range(X.shape[1]):
            x = X[:, j].copy()
            size = np.sqrt(x @ x)
            while True:
                x -= q * np.bincount(labels, weights=q * x)[labels]
                x -= X[:, :j] @ (x @ X[:, :j])
                last, size = size, np.sqrt(x @ x)
                if size > last / 2:
                    break
                if size <= vanished * last:
                    x = rng.standard_normal(n)
                    size = np.sqrt(x @ x)
            X[:, j] = x / size
        return X

    # the block fits in the complement of the null space
    room = n - vol.size
    X = rng.standard_normal((n, min(d + BLOCK_EXTRA, room)))
    for rounds in range(MAX_ROUNDS):
        X = orthonormalize(X)
        LX = Ln @ X
        theta, S = np.linalg.eigh(X.T @ LX)
        X, LX = X @ S, LX @ S
        residual = np.linalg.norm(LX[:, :d] - X[:, :d] * theta[:d], axis=0).max()
        if residual <= EIG_RESIDUAL_TOL / 100:
            return theta[:d], X[:, :d]
        top_residual = np.linalg.norm(LX[:, -1] - X[:, -1] * theta[-1])
        if rounds and X.shape[1] < room and theta[-1] - theta[d - 1] < top_residual:
            # the block may sit inside one eigenspace, where the filter stalls
            X = np.hstack([X, rng.standard_normal((n, min(X.shape[1], room - X.shape[1])))])
            continue
        # T_k((Lnorm - c) / e) maps [lo, 2] into [-1, 1]; lo stays 2^-9 below
        # 2, which keeps T_k of the wanted values far below overflow
        lo = min(theta[-1], 2.0 - 2.0**-9)
        c, e = (2.0 + lo) / 2, (2.0 - lo) / 2
        # T_{k+1} = M T_k - T_{k-1} with M = 2 (Lnorm - c) / e, T_1 = M T_0 / 2
        M = (Ln - c * sp.identity(n)) * (2.0 / e)
        prev, X = X, (LX - c * X) / e
        for _ in range(FILTER_DEGREE - 1):
            LX = M @ X
            LX -= prev
            prev, X = X, LX
    raise EigensolverError(
        f"block solver did not converge (n={n}, d={d}, residual={residual:.3e} "
        f"after {MAX_ROUNDS} rounds)"
    )


def spectral_init(V: SimilarityGraph, d: int) -> SpectralSolution:
    """Eigenvectors of Lnorm for the d smallest eigenvalues above the zero space.

    Raises ``EigensolverError`` when the iterative solver does not converge
    within ``MAX_ROUNDS`` or a returned pair misses ``EIG_RESIDUAL_TOL``.
    """
    if d < 1:
        raise ConfigurationError("d must be >= 1")
    pair = build_laplacians(V)
    n_null, labels = V.components
    if d + n_null > V.n:
        raise ConfigurationError(
            f"d={d} eigenvectors requested but only {V.n - n_null} non-null available"
        )
    Ln = pair.normalized
    vals, vecs = _filtered_subspace(Ln, np.sqrt(pair.degree), labels, d)
    residual = float(np.linalg.norm(Ln @ vecs - vecs * vals, axis=0).max())
    if not residual <= EIG_RESIDUAL_TOL:
        raise EigensolverError(
            f"spectral eigenpairs inexact (n={V.n}, d={d}, "
            f"residual={residual:.3e} > {EIG_RESIDUAL_TOL:g})"
        )
    return SpectralSolution(
        vectors=_fix_signs(vecs), values=vals.copy(), n_null=int(n_null),
        residual=residual,
    )


@dataclass(frozen=True)
class RelaxationReport:
    """Agreement between the (L, D) generalized and Lnorm ordinary eigenproblems."""

    values_generalized: np.ndarray
    values_normalized: np.ndarray
    max_value_gap: float
    max_principal_angle: float


def ncut_relaxation_check(V: SimilarityGraph, d: int) -> RelaxationReport:
    """Verify that generalized eigenvectors of (L, D) map onto Lnorm's under
    u -> D^{1/2} u, comparing eigenvalue lists and subspace principal angles."""
    n_comp = V.components[0]
    if n_comp != 1:
        raise GraphStructureError(
            f"relaxation check requires a connected graph, found {n_comp} components"
        )
    import scipy.linalg  # about 0.2 s to import; see the module docstring

    pair = build_laplacians(V)
    L = pair.combinatorial.toarray()
    D = np.diag(pair.degree)

    gvals, gvecs = scipy.linalg.eigh(L, D)
    nvals, nvecs = scipy.linalg.eigh(pair.normalized.toarray())

    gn = int(np.sum(gvals <= NULL_SPACE_TOL))
    nn = int(np.sum(nvals <= NULL_SPACE_TOL))
    g_sel = gvals[gn : gn + d]
    n_sel = nvals[nn : nn + d]

    mapped = np.sqrt(pair.degree)[:, None] * gvecs[:, gn : gn + d]
    angles = scipy.linalg.subspace_angles(mapped, nvecs[:, nn : nn + d])
    return RelaxationReport(
        values_generalized=g_sel,
        values_normalized=n_sel,
        max_value_gap=float(np.abs(g_sel - n_sel).max()),
        max_principal_angle=float(angles.max()) if angles.size else 0.0,
    )


def random_orthonormal_frame(
    n: int, d: int, rng: np.random.Generator, complement: np.ndarray
) -> np.ndarray:
    """Random n x d orthonormal frame orthogonal to the orthonormal columns
    of ``complement``."""
    G = rng.standard_normal((n, d))
    G = G - complement @ (complement.T @ G)
    Q, _ = np.linalg.qr(G)
    return Q
