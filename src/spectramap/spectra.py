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
connected component c. Up to ``DENSE_MAX_N`` vertices a dense ``eigh``
returns the whole spectrum. Above it, ARPACK's ``eigsh`` (tol=0) finds the
d largest eigenvalues 2 - lambda of 2I - Lnorm, applied through an operator
that projects the null space out, so the null eigenvalue 2 becomes 0 and
never competes. The start vector comes from a fixed-seed generator, not the
constant vector: on a graph made of identical copies a symmetric start
never leaves the symmetric subspace and misses one copy of every repeated
eigenvalue. A random start alone is not enough either, since Lanczos sees
each eigenspace through one direction; one more solve on the complement of
the returned vectors finds any eigenvalue that was skipped. The oracles
(``ncut_relaxation_check`` and the eigenvalue sums of the claim suite)
use dense decompositions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

from .errors import ConfigurationError, EigensolverError, GraphStructureError
from .fuzzy import SimilarityGraph

# the dense oracles treat eigenvalues at or below this as the zero eigenspace
NULL_SPACE_TOL = 1e-8
# spectral_init decomposes densely up to this many vertices, iteratively above
DENSE_MAX_N = 256
# largest accepted ||Lnorm u - lambda u|| of a returned eigenpair
EIG_RESIDUAL_TOL = 1e-8
# seed of the iterative solver's start vectors
START_SEED = 0
# an eigenvalue this far below the largest one returned was missed
MISSED_VALUE_TOL = 1e-12


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
    n = V.n
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
    its lengths here; rejects a Y whose row count is not the graph's vertex
    count.
    """
    Y = np.atleast_2d(np.asarray(Y, dtype=np.float64))
    if Y.shape[0] != V.n:
        raise ConfigurationError(
            f"Y has {Y.shape[0]} rows but the graph has {V.n} vertices"
        )
    diff = Y.take(V.rows, axis=0) - Y.take(V.cols, axis=0)
    return V.weights, np.einsum("ij,ij->i", diff, diff)


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
    out = vecs.copy()
    for c in range(out.shape[1]):
        lead = np.argmax(np.abs(out[:, c]))
        if out[lead, c] < 0:
            out[:, c] = -out[:, c]
    return out


def _deflated_eigsh(
    Ln: sp.csr_matrix, sqrt_deg: np.ndarray, labels: np.ndarray, d: int
) -> tuple[np.ndarray, np.ndarray]:
    """Bottom d eigenpairs of Lnorm above the null space spanned by the
    per-component vectors D^{1/2} 1_c, via eigsh on the projected 2I - Lnorm."""
    n = Ln.shape[0]
    vol = np.bincount(labels, weights=sqrt_deg**2)
    rng = np.random.default_rng(START_SEED)

    def smallest(k: int, found: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # k smallest eigenpairs of Lnorm orthogonal to the null space and found
        def project(x):
            coef = np.bincount(labels, weights=sqrt_deg * x, minlength=vol.size) / vol
            x = x - sqrt_deg * coef[labels]
            return x - found @ (found.T @ x)

        def matvec(x):
            # the projector commutes with Lnorm, so projecting the output
            # keeps the Krylov space, started inside the range, inside it
            x = np.ravel(x)
            return project(2.0 * x - Ln @ x)

        op = LinearOperator((n, n), matvec=matvec, dtype=np.float64)
        v0 = project(rng.standard_normal(n))
        theta, vecs = eigsh(op, k=k, which="LA", tol=0, v0=v0)
        return 2.0 - theta, vecs

    vals, vecs = smallest(d, np.empty((n, 0)))
    # Lanczos from one start vector sees each eigenspace through a single
    # direction, so it can return one copy of a repeated eigenvalue and the
    # next eigenvalue in place of the other. Search the complement of what
    # was found until it holds nothing below the largest value kept.
    while True:
        lam, u = smallest(1, vecs)
        if not lam[0] < vals.max() - MISSED_VALUE_TOL:
            break
        keep = np.argsort(vals, kind="stable")[:-1]
        vals = np.append(vals[keep], lam)
        vecs = np.column_stack([vecs[:, keep], u])
    order = np.argsort(vals, kind="stable")
    return vals[order], vecs[:, order]


def spectral_init(V: SimilarityGraph, d: int) -> SpectralSolution:
    """Eigenvectors of Lnorm for the d smallest eigenvalues above the zero space.

    Raises ``EigensolverError`` when the iterative solver does not converge
    or a returned pair misses ``EIG_RESIDUAL_TOL``.
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
    if V.n <= DENSE_MAX_N:
        vals, vecs = scipy.linalg.eigh(Ln.toarray())
        vals, vecs = vals[n_null : n_null + d], vecs[:, n_null : n_null + d]
    else:
        try:
            vals, vecs = _deflated_eigsh(Ln, np.sqrt(pair.degree), labels, d)
        except ArpackNoConvergence as exc:
            raise EigensolverError(
                f"eigsh did not converge (n={V.n}, d={d}: {len(exc.eigenvalues)} "
                f"of {d} pairs converged, residual undefined)"
            ) from exc
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
