"""Full-batch embedding losses and their structural decompositions.

The cross-entropy objective over all ordered vertex pairs i != j is

    total = attract + repel
    attract = -sum v_ij * log phi(s_ij)
    repel   = -sum (1 - v_ij) * log(1 - phi(s_ij))

with s_ij the squared embedding distance. Since v_ij is zero off the stored
edges, the repulsion is evaluated as an all-pairs sum minus an edge give-back,

    repel = sum_i r_i + sum_edges v_ij * log(1 - phi(s_ij)),
    r_i   = -sum_{j != i} log(1 - phi(s_ij)),

where the row sums r_i run over cache-sized ``knn.row_block_buffers`` with
the coordinate-order ``knn.block_sq_dists``, so no n x n array is ever
held, and the attraction and give-back run over the stored edges with the
lengths of ``spectra.edge_sq_lengths``, summed by ``spectra.edge_sum``.
Every attraction log is the closed-form ``log_phi``, finite at any distance
for both kernel families, so for the Gaussian kernel the attraction equals
(1/tau) * tr(Y^T L Y) identically at every scale; for the heavy-tailed
kernel it lies below the p-Laplacian energy a * sum w s^b (p = 2b;
2a * tr(Y^T L Y) at b = 1) by at most a curvature bound. ``first_order``
computes the form and the bound for both families. Only the repulsion
clamps its log (see ``LOG_CLAMP``).
``expected_sgd_loss`` is the per-epoch expectation of the negative-sampling
estimator: positives weighted by v_ab, negatives uniform over vertices with
the degree-weighted prefactor n_neg/n, which is deg @ r.

``step_losses`` evaluates that estimator one sample at a time: the loss
negative-sampling SGD actually minimizes. The optimizer traces it every
epoch (through ``event_losses``, which scores rows with ``knn.sq_norms``)
and the eq13 claim averages it. At the trajectory's two endpoints the
optimizer reports the cross-entropy above through ``sampled_cross_entropy``:
its attraction, form, bound and edge give-back are the exact O(nnz) terms,
and only the all-pairs sum over i of r_i is estimated, from ``LOSS_PAIRS``
uniform ordered pairs, with its standard error. ``cross_entropy_loss`` sums
all n(n - 1) pairs; it is the estimate's reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .fuzzy import SimilarityGraph
from .kernels import KernelParams, log_phi, one_minus_phi
from .knn import block_sq_dists, row_block_buffers, sq_norms
from .spectra import edge_sq_lengths, edge_sum, laplacian_quadratic

# Floor under 1 - phi in the repulsion logs, which are -inf at coincident
# points. The attraction never clamps: it uses the closed-form log_phi.
LOG_CLAMP = 1e-12
# uniform ordered pairs i != j that ``sampled_cross_entropy`` scores
LOSS_PAIRS = 2**16


def repel_logs(s: np.ndarray, p: KernelParams) -> np.ndarray:
    """log(max(1 - phi(s), LOG_CLAMP)), computed in place over the float64 array s."""
    q = one_minus_phi(s, p, out=s)
    np.maximum(q, LOG_CLAMP, out=q)
    return np.log(q, out=q)


def repel_row_sums(Y: np.ndarray, p: KernelParams) -> np.ndarray:
    """r_i = -sum_{j != i} log(max(1 - phi(s_ij), LOG_CLAMP)) for every row i.

    Evaluated one ``row_block_buffers`` block at a time; each row is summed
    whole, so the result does not depend on the block size.
    """
    Y = np.atleast_2d(np.asarray(Y, dtype=np.float64))
    n = Y.shape[0]
    cols = [np.ascontiguousarray(c) for c in Y.T]
    rows = np.empty(n)
    for start, stop, d2, work in row_block_buffers(n, 2):
        log_q = repel_logs(block_sq_dists(cols, start, stop, d2, work), p)
        own = np.arange(stop - start)
        log_q[own, start + own] = 0.0
        rows[start:stop] = -log_q.sum(axis=1)
    return rows


@dataclass(frozen=True)
class LossReport:
    """Loss decomposition for one embedding state.

    ``laplacian_form`` and ``taylor_bound`` are ``first_order``'s form and
    bound: the form is the Laplacian form c * tr(Y^T L Y) for the gaussian
    kernel (c = 1/tau) and the cauchy kernel at b = 1 (c = 2a), and the
    p-Laplacian energy with p = 2b at any other b; the bound is None for
    the gaussian kernel, whose attraction equals its form. ``repel_se`` is
    the standard error of ``repel``, and so of ``total``: 0.0 when the
    all-pairs sum is exact (``cross_entropy_loss``), the sampling error of
    its estimate from ``sampled_cross_entropy``.
    """

    total: float
    attract: float
    repel: float
    laplacian_form: float | None
    taylor_bound: float | None
    repel_se: float


def attractive_term(V: SimilarityGraph, Y: np.ndarray, p: KernelParams) -> float:
    """-sum_{i != j} v_ij log phi(s_ij) over stored edges, closed-form logs."""
    w, s = edge_sq_lengths(V, Y)
    return -edge_sum(w, log_phi(s, p))


def first_order(
    V: SimilarityGraph, Y: np.ndarray, p: KernelParams
) -> tuple[float, float, float | None]:
    """The attraction, its first-order form, and the bound on their gap.

    Sums run over ordered stored edges with squared lengths s. For the
    gaussian kernel -log phi = s / (2 tau), so the attraction equals the
    form (1/tau) * tr(Y^T L Y) and the bound is None. For the cauchy kernel
    -log phi = log(1 + x) with x = a * s^b, and x - x^2/2 <= log(1 + x) <= x,
    so the attraction lies below the form a * sum w s^b by at most the bound
    (a^2 / 2) * sum w s^{2b}. The form is the graph p-Laplacian energy with
    p = 2b (Bühler & Hein, ICML 2009); at b = 1 it is 2a * tr(Y^T L Y). The
    attraction comes from ``attractive_term``'s closed-form logs. For the
    cauchy kernel that route is independent of the form's; for the gaussian
    kernel both sum w s over the same ``edge_sq_lengths`` and differ only by
    scalar factors, so the thm3.1a claim checks them against a matrix route
    of its own.
    """
    attract = attractive_term(V, Y, p)
    if p.family == "gaussian":
        return attract, (1.0 / p.tau) * laplacian_quadratic(V, Y), None
    w, s = edge_sq_lengths(V, Y)
    sb = s**p.b
    return attract, p.a * edge_sum(w, sb), 0.5 * p.a * p.a * edge_sum(w, sb * sb)


def _edge_terms(V: SimilarityGraph, Y: np.ndarray, p: KernelParams) -> tuple:
    """``first_order``'s (attraction, form, bound) and the repulsion's edge
    give-back sum v_ij log(1 - phi(s_ij)): every exact O(nnz) term of the
    cross-entropy. ``edge_sq_lengths`` rejects a Y of the wrong row count."""
    attract, form, bound = first_order(V, Y, p)
    w, s = edge_sq_lengths(V, Y)
    return attract, form, bound, edge_sum(w, repel_logs(s, p))


def _loss_report(terms: tuple, row_sum: float, se: float) -> LossReport:
    """The report of ``_edge_terms`` plus the all-pairs sum of r_i, ``row_sum``,
    whose standard error is ``se``."""
    attract, form, bound, give_back = terms
    repel = row_sum + give_back
    return LossReport(total=attract + repel, attract=attract, repel=repel,
                      laplacian_form=form, taylor_bound=bound, repel_se=se)


def cross_entropy_loss(V: SimilarityGraph, Y: np.ndarray, p: KernelParams) -> LossReport:
    """Full cross-entropy over all ordered pairs, with its decomposition."""
    terms = _edge_terms(V, Y, p)
    return _loss_report(terms, float(repel_row_sums(Y, p).sum()), 0.0)


def sampled_cross_entropy(V: SimilarityGraph, Y: np.ndarray, p: KernelParams,
                          rng: np.random.Generator) -> LossReport:
    """``cross_entropy_loss`` with the all-pairs sum of r_i estimated.

    The estimate scores ``LOSS_PAIRS`` ordered pairs i != j drawn uniformly
    from ``rng`` (i from all n vertices, then j from the other n - 1) by
    ``knn.sq_norms`` and ``repel_logs``: n(n - 1) times their mean, with
    standard error n(n - 1) * std(ddof=1) / sqrt(LOSS_PAIRS), reported as
    ``repel_se``. Every other field equals ``cross_entropy_loss``'s bit for
    bit. O(nnz + LOSS_PAIRS) time and memory, and no BLAS.
    """
    terms = _edge_terms(V, Y, p)
    Y = np.atleast_2d(np.asarray(Y, dtype=np.float64))
    n = Y.shape[0]
    if n < 2:  # no pair to draw: the sum is empty
        return _loss_report(terms, 0.0, 0.0)
    i = rng.integers(0, n, LOSS_PAIRS)
    j = rng.integers(0, n - 1, LOSS_PAIRS)
    j += j >= i
    log_q = repel_logs(sq_norms(Y.take(i, axis=0) - Y.take(j, axis=0)), p)
    pairs = n * (n - 1)
    return _loss_report(terms, -pairs * float(log_q.mean()),
                        pairs * float(log_q.std(ddof=1)) / math.sqrt(LOSS_PAIRS))


def expected_sgd_loss(
    V: SimilarityGraph, Y: np.ndarray, p: KernelParams, n_neg: int
) -> float:
    """Expected one-epoch aggregate of the negative-sampling estimator.

    Attraction sums -v_ab log phi over ordered stored edges; repulsion is
    (n_neg / n) * sum_a d_a * r_a with r from ``repel_row_sums``, matching
    uniform negative draws over all vertices with self-draws skipped.
    """
    if n_neg < 0:
        raise ConfigurationError("n_neg must be >= 0")
    attract = attractive_term(V, Y, p)
    if n_neg == 0:
        return attract
    repel = (n_neg / V.n) * float(V.degrees() @ repel_row_sums(Y, p))
    return attract + repel


def step_losses(
    Y: np.ndarray,
    anchors: np.ndarray,
    partners: np.ndarray,
    negs: np.ndarray,
    p: KernelParams,
) -> np.ndarray:
    """Each negative-sampling event's loss at the coordinates Y.

    Event s has the positive pair (anchors[s], partners[s]) and the negatives
    in row s of the (events, n_neg) array ``negs``. Its loss is the
    closed-form -log phi of the pair, then minus each negative's clamped
    ``repel_logs`` in draw order; a negative equal to its own anchor is
    skipped (a pair with itself has no repulsion direction). The rows are
    gathered here with ``take``, several times faster than fancy indexing;
    ``event_losses`` does the arithmetic.
    """
    Y = np.asarray(Y, dtype=np.float64)
    ya, yb = Y.take(anchors, axis=0), Y.take(partners, axis=0)
    return event_losses(ya, yb, Y.take(negs, axis=0), negs != anchors[:, None], p)


def event_losses(ya, yb, yc, live, p: KernelParams) -> np.ndarray:
    """``step_losses`` from the events' rows: the (m, d) arrays ``ya`` of the
    anchors and ``yb`` of the partners, the (m, n_neg, d) array ``yc`` of
    the negatives, and the (m, n_neg) mask ``live``, true where the negative
    is not the event's own anchor. Each squared distance is ``knn.sq_norms``
    of the anchor's row less the other row; all negatives are scored in one
    pass and subtracted in draw order.
    """
    losses = -log_phi(sq_norms(ya - yb), p)
    log_q = repel_logs(sq_norms(ya[:, None] - yc), p)
    log_q[~live] = 0.0
    for j in range(log_q.shape[1]):
        losses -= log_q[:, j]
    return losses
