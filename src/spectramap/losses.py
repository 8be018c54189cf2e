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
lengths of ``spectra.edge_sq_lengths``. Every attraction log is the closed-form
``log_phi``, finite at any distance for both kernel families, so for the
Gaussian kernel the attraction equals (1/tau) * tr(Y^T L Y) identically at
every scale; for the heavy-tailed kernel with b = 1 it equals
2a * tr(Y^T L Y) up to a curvature error whose bound ``taylor_error_bound``
computes. Only the repulsion clamps its log (see ``LOG_CLAMP``).
``expected_sgd_loss`` is the per-epoch expectation of the negative-sampling
estimator: positives weighted by v_ab, negatives uniform over vertices with
the degree-weighted prefactor n_neg/n, which is deg @ r.

``step_losses`` evaluates that estimator one sample at a time: the loss
negative-sampling SGD actually minimizes. The optimizer traces it every
epoch (through ``event_losses``, which scores rows with ``knn.sq_norms``)
and the eq13 claim averages it; the full cross-entropy above is evaluated
only at the trajectory's endpoints.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .fuzzy import SimilarityGraph
from .kernels import KernelParams, log_phi, one_minus_phi
from .knn import block_sq_dists, row_block_buffers, sq_norms
from .spectra import edge_sq_lengths, laplacian_quadratic

# Floor under 1 - phi in the repulsion logs, which are -inf at coincident
# points. The attraction never clamps: it uses the closed-form log_phi.
LOG_CLAMP = 1e-12


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

    ``laplacian_form`` is c * tr(Y^T L Y) with c = 1/tau (gaussian) or 2a
    (cauchy with b = 1) and is None for kernel shapes where no quadratic
    form corresponds to the attraction; ``taylor_bound`` likewise exists
    only for the cauchy b = 1 case.
    """

    total: float
    attract: float
    repel: float
    laplacian_form: float | None
    taylor_bound: float | None


def attractive_term(V: SimilarityGraph, Y: np.ndarray, p: KernelParams) -> float:
    """-sum_{i != j} v_ij log phi(s_ij) over stored edges, closed-form logs."""
    w, s = edge_sq_lengths(V, Y)
    return -float(w @ log_phi(s, p))


def _laplacian_constant(p: KernelParams) -> float | None:
    if p.family == "gaussian":
        return 1.0 / p.tau
    if p.b == 1.0:
        return 2.0 * p.a
    return None


def laplacian_comparison(
    V: SimilarityGraph, Y: np.ndarray, p: KernelParams
) -> tuple[float, float, float]:
    """The attraction, its quadratic-form counterpart c * tr(Y^T L Y), and their gap.

    The two numbers come from independent code paths: the attraction sums
    closed-form kernel logs edge by edge, the quadratic form sums weighted
    squared edge lengths.
    """
    c = _laplacian_constant(p)
    if c is None:
        raise ConfigurationError(
            "no quadratic form corresponds to the cauchy kernel with b != 1"
        )
    att = attractive_term(V, Y, p)
    lap = c * laplacian_quadratic(V, Y)
    return att, lap, abs(att - lap)


def taylor_error_bound(V: SimilarityGraph, Y: np.ndarray, a: float) -> float:
    """(a^2 / 2) * sum_{i != j} v_ij ||y_i - y_j||^4 over ordered pairs."""
    w, s = edge_sq_lengths(V, Y)
    return 0.5 * a * a * float(w @ (s * s))


def cross_entropy_loss(V: SimilarityGraph, Y: np.ndarray, p: KernelParams) -> LossReport:
    """Full cross-entropy over all ordered pairs, with its decomposition."""
    attract = attractive_term(V, Y, p)
    w, s = edge_sq_lengths(V, Y)
    repel = float(repel_row_sums(Y, p).sum()) + float(w @ repel_logs(s, p))

    c = _laplacian_constant(p)
    lap = c * laplacian_quadratic(V, Y) if c is not None else None
    bound = (
        taylor_error_bound(V, Y, p.a)
        if p.family == "cauchy_ab" and p.b == 1.0
        else None
    )
    return LossReport(
        total=attract + repel,
        attract=attract,
        repel=repel,
        laplacian_form=lap,
        taylor_bound=bound,
    )


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
    gathered here with ``take``, several times faster than fancy indexing,
    one negative column at a time; ``event_losses`` does the arithmetic.
    """
    Y = np.asarray(Y, dtype=np.float64)
    ya, yb = Y.take(anchors, axis=0), Y.take(partners, axis=0)
    ycs = (Y.take(c, axis=0) for c in negs.T)
    return event_losses(ya, yb, ycs, negs != anchors[:, None], p)


def event_losses(ya, yb, ycs, live, p: KernelParams) -> np.ndarray:
    """``step_losses`` from the events' rows: the (m, d) arrays ``ya`` of the
    anchors and ``yb`` of the partners, an iterable ``ycs`` of each negative
    column's (m, d) rows in draw order, and the (m, n_neg) mask ``live``,
    true where the negative is not the event's own anchor. Each squared
    distance is ``knn.sq_norms`` of the anchor's row less the other row.
    """
    losses = -log_phi(sq_norms(ya - yb), p)
    for yc, mask in zip(ycs, live.T):
        log_q = repel_logs(sq_norms(ya - yc), p)
        log_q[~mask] = 0.0
        losses -= log_q
    return losses
