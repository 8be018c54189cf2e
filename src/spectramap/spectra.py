"""The spectral step of ``embed``: Lnorm, its quadratic form, spectral layout.

For a symmetric weight matrix W with degrees d_i = sum_j W_ij, the
combinatorial Laplacian is L = D - W and the normalized Laplacian is
Lnorm = D^{-1/2} L D^{-1/2}. ``normalized_laplacian`` builds Lnorm from the
graph's ``matrix`` and its degrees. The central identity

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
``EIG_RESIDUAL_TOL``/100, and gives up after ``MAX_ROUNDS`` rounds. The
module holds no dense algorithm: the dense oracles that certify it belong
to the claims in ``equivalence``.

``normalized_laplacian`` and ``_filtered_subspace`` import ``scipy.sparse``
in their bodies, for the reason given in ``fuzzy``, whose
``directed_weights`` is where ``embed`` first loads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigurationError, EigensolverError, GraphStructureError
from .fuzzy import SimilarityGraph
from .knn import sq_norms

if TYPE_CHECKING:
    import scipy.sparse as sp

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


def normalized_laplacian(V: SimilarityGraph) -> sp.csr_matrix:
    """Lnorm = D^{-1/2} (D - W) D^{-1/2} from ``V.matrix``; rejects isolated vertices."""
    import scipy.sparse as sp

    deg = V.degrees()
    bad = np.flatnonzero(deg <= 0)
    if bad.size:
        raise GraphStructureError(
            f"vertex {bad[0]} is isolated (degree 0); normalized Laplacian undefined"
        )
    inv_sqrt = sp.diags(1.0 / np.sqrt(deg))
    return (inv_sqrt @ (sp.diags(deg) - V.matrix).tocsr() @ inv_sqrt).tocsr()


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


def edge_sum(w: np.ndarray, x: np.ndarray) -> float:
    """sum_e w_e x_e by ``np.einsum``, which runs no BLAS and allocates nothing:
    the same bits at any thread count, where ``ddot`` splits long sums."""
    return float(np.einsum("i,i->", w, x))


def laplacian_quadratic(V: SimilarityGraph, Z: np.ndarray) -> float:
    """tr(Z^T L(V) Z) evaluated as the half-sum of w_ij ||Z_i - Z_j||^2 over edges."""
    return 0.5 * edge_sum(*edge_sq_lengths(V, Z))


@dataclass(frozen=True)
class SpectralSolution:
    """Selected eigenvectors of the normalized Laplacian.

    ``vectors`` holds orthonormal eigenvector columns for the ``values``
    (ascending) strictly above the zero eigenspace; ``n_null`` is the
    dimension of the discarded zero eigenspace, which equals the number of
    connected components; ``residual`` is the largest eigen-residual
    ||Lnorm u - lambda u|| over the returned pairs. ``rounds`` counts the
    solver's Rayleigh-Ritz steps, ``matvecs`` its block products with Lnorm
    and ``block_width`` its final block's columns, which exceed d +
    ``BLOCK_EXTRA`` only where the block was doubled.
    """

    vectors: np.ndarray
    values: np.ndarray
    n_null: int
    residual: float
    rounds: int
    matvecs: int
    block_width: int


def _fix_signs(vecs: np.ndarray) -> np.ndarray:
    """Make the largest-magnitude entry of each column positive (first on ties)."""
    lead = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(vecs.shape[1])]
    return np.where(lead < 0, -vecs, vecs)


def _filtered_subspace(
    Ln: sp.csr_matrix, sqrt_deg: np.ndarray, labels: np.ndarray, d: int
) -> tuple[np.ndarray, np.ndarray, int, int, int]:
    """Bottom d eigenpairs of Lnorm above the null space spanned by the
    per-component vectors D^{1/2} 1_c, by Chebyshev-filtered subspace
    iteration (see the module docstring), then the round count, the count
    of block products with Lnorm and the final block width."""
    import scipy.sparse as sp

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
    matvecs = 0
    for rounds in range(MAX_ROUNDS):
        X = orthonormalize(X)
        LX = Ln @ X
        matvecs += 1
        theta, S = np.linalg.eigh(X.T @ LX)
        X, LX = X @ S, LX @ S
        residual = np.linalg.norm(LX[:, :d] - X[:, :d] * theta[:d], axis=0).max()
        if residual <= EIG_RESIDUAL_TOL / 100:
            return theta[:d], X[:, :d], rounds + 1, matvecs, X.shape[1]
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
        matvecs += FILTER_DEGREE - 1
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
    Ln = normalized_laplacian(V)
    n_null, labels = V.components
    if d + n_null > V.n:
        raise ConfigurationError(
            f"d={d} eigenvectors requested but only {V.n - n_null} non-null available"
        )
    vals, vecs, rounds, matvecs, width = _filtered_subspace(Ln, np.sqrt(V.degrees()), labels, d)
    residual = float(np.linalg.norm(Ln @ vecs - vecs * vals, axis=0).max())
    if not residual <= EIG_RESIDUAL_TOL:
        raise EigensolverError(
            f"spectral eigenpairs inexact (n={V.n}, d={d}, "
            f"residual={residual:.3e} > {EIG_RESIDUAL_TOL:g})"
        )
    return SpectralSolution(
        vectors=_fix_signs(vecs), values=vals.copy(), n_null=int(n_null),
        residual=residual, rounds=rounds, matvecs=matvecs, block_width=width,
    )
