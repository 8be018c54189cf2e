"""Negative-sampling SGD over the fuzzy similarity graph.

Each event samples one positive edge with probability proportional to its
weight (via a Walker/Vose alias table over undirected edges, orientation
chosen by a fair coin) and n_neg uniform negative vertices. Only the anchor
endpoint moves by default; ``move_other`` mirrors the attractive update onto
the partner. The learning rate decays linearly: alpha_e = lr * (1 - e / E).

The events of an epoch are defined by a sequential sweep: sample s reads rows
{a, b, c_1..c_m} of Y as its predecessors left them and writes row a (and row
b under ``move_other``). ``optimize`` runs them in waves of samples that do
not conflict (``wave_schedule``): a sample's wave is strictly later than the
wave of the last earlier writer of any row it reads (read-after-write) and
no earlier than the wave of the last earlier reader of any row it writes
(write-after-read). Every sample of a wave reads the rows as they stood when
the wave began and the wave's writes land when it ends, so the result is
bit-identical to running the samples one at a time.

The trace follows one rule at every n. Each epoch records the mean and
standard error of its samples' step losses (``losses.step_losses``), each
taken at the rows the sample read, i.e. along the trajectory and not at the
epoch's end: the estimator whose expectation claim eq13 certifies. Each
wave computes them from the rows it gathers for its own update, through
``losses.event_losses``, the arithmetic ``step_losses`` shares. The
starting layout and the final one also get the full cross-entropy, from
``losses.sampled_cross_entropy``: exact over the stored edges, its all-pairs
repulsion estimated from ``losses.LOSS_PAIRS`` uniform pairs with a standard
error, in O(nnz + LOSS_PAIRS). No stage of ``optimize`` visits all n^2 pairs.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from .errors import ConfigurationError, OptimizationError, require_addressable
from .fuzzy import SimilarityGraph
from .kernels import KernelParams, grad_log_one_minus_phi_rows, grad_log_phi_rows
from .losses import LossReport, event_losses, sampled_cross_entropy
from .spectra import SpectralSolution

# spectral starting coordinates are rescaled to this max-abs
SPECTRAL_MAX_ABS = 10.0
# samples per chunk that wave_schedule converts to Python lists at once
SCHEDULE_CHUNK = 4096


@dataclass(frozen=True)
class OptimizerConfig:
    n_epochs: int
    n_neg: int = 5
    initial_lr: float = 1.0
    clip: float = 4.0
    eps: float = 1e-3
    seed: int = 0
    move_other: bool = False
    samples_per_epoch: int | None = None  # defaults to the undirected edge count

    def __post_init__(self):
        if self.n_epochs < 1:
            raise ConfigurationError("n_epochs must be >= 1")
        if self.n_neg < 0:
            raise ConfigurationError("n_neg must be >= 0")
        # NaN fails these tests too; clip = inf means no clipping, while
        # eps = inf would turn every repulsive step into an attractive one
        if not (0 < self.initial_lr < math.inf and self.clip > 0 and 0 < self.eps < math.inf):
            raise ConfigurationError("initial_lr and eps must be finite and positive; "
                                     "clip must be positive")
        if self.samples_per_epoch is not None and self.samples_per_epoch < 0:
            raise ConfigurationError("samples_per_epoch must be >= 0")


@dataclass(frozen=True)
class Embedding:
    """Low-dimensional coordinates plus where they came from."""

    coords: np.ndarray
    provenance: Literal["spectral", "random", "external"]

    def __post_init__(self):
        coords = np.atleast_2d(np.asarray(self.coords, dtype=np.float64))
        if coords.ndim != 2:
            raise ConfigurationError(f"embedding coordinates must be 2-D, not {coords.shape}")
        if not np.all(np.isfinite(coords)):
            raise ConfigurationError("embedding coordinates must be finite")
        if self.provenance not in ("spectral", "random", "external"):
            raise ConfigurationError(f"unknown provenance {self.provenance!r}")
        object.__setattr__(self, "coords", coords)

    @property
    def n(self) -> int:
        return self.coords.shape[0]


class EdgeSampler:
    """Alias-table sampler of undirected edges with probability ~ weight."""

    def __init__(self, V: SimilarityGraph):
        i, j, w = V.edges()
        if i.size == 0:
            raise ConfigurationError("cannot sample from a graph with no edges")
        self.n = V.n
        self.endpoints = np.column_stack([i, j])
        self.weights = w
        self.prob, self.alias = _build_alias_table(w)

    def draw_events(self, rng: np.random.Generator, size: int, n_neg: int) -> tuple:
        """``size`` negative-sampling events (anchors, partners, negs), drawn
        from one stream in this order: alias slots and their acceptance
        uniforms (an edge ~ weight), fair orientation coins, then the
        (size, n_neg) uniform negatives row by row; a negative may be its own
        anchor."""
        require_addressable(size * max(2, n_neg), f"{size} events with {n_neg} negatives each")
        slot = rng.integers(0, self.prob.size, size=size)
        accept = rng.random(size) < self.prob[slot]
        pairs = self.endpoints[np.where(accept, slot, self.alias[slot])]
        flip = rng.integers(0, 2, size=size).astype(bool)
        pairs = np.where(flip[:, None], pairs[:, ::-1], pairs)
        negs = rng.integers(0, self.n, size * n_neg).reshape(size, n_neg)
        return pairs[:, 0], pairs[:, 1], negs


def _build_alias_table(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vose's O(m) alias-table construction for weighted sampling."""
    w = np.asarray(weights, dtype=np.float64)
    if np.any(w < 0) or w.sum() <= 0:
        raise ConfigurationError("weights must be nonnegative with positive sum")
    m = w.size
    scaled = w * (m / w.sum())
    small = np.flatnonzero(scaled < 1.0).tolist()
    large = np.flatnonzero(scaled >= 1.0).tolist()
    # Python floats round like numpy's float64 scalars and index far faster
    scaled = scaled.tolist()
    prob = [1.0] * m
    alias = list(range(m))
    while small and large:
        s = small.pop()
        g = large.pop()
        prob[s] = scaled[s]
        alias[s] = g
        left = (scaled[g] + scaled[s]) - 1.0
        scaled[g] = left
        if left < 1.0:
            small.append(g)
        else:
            large.append(g)
    return np.array(prob), np.array(alias)


def random_embedding(n: int, d: int, seed: int) -> Embedding:
    """n starting points drawn uniformly from [-10, 10)^d, from the stream
    ``default_rng([seed, 1])``: ``optimize`` draws its SGD events from
    ``default_rng(seed)``, and a start drawn from that same stream would fix
    the first epoch's edge draws as a function of the start."""
    if d < 1:
        raise ConfigurationError("d must be >= 1")
    require_addressable(n * d, f"{n} points in {d} dims")
    rng = np.random.default_rng([seed, 1])
    return Embedding(rng.uniform(-10.0, 10.0, size=(n, d)), "random")


def spectral_embedding(sol: SpectralSolution) -> Embedding:
    """The spectral layout rescaled to max-abs ``SPECTRAL_MAX_ABS``."""
    coords = sol.vectors * (SPECTRAL_MAX_ABS / np.abs(sol.vectors).max())
    return Embedding(coords, "spectral")


@dataclass(frozen=True)
class EpochStats:
    """What one epoch did: the waves its samples ran in, the negative draws
    that hit their own anchor (skipped), the fraction of gradient
    coordinates that ``clip`` cut, and the mean and standard error of its
    samples' step losses, both taken in sample order.

    The step losses are those of ``losses.step_losses`` at the rows each
    sample read before its update. Both are None for an epoch with no
    samples, and the standard error is None for an epoch with one.
    """

    waves: int
    self_collisions: int
    clip_frac: float
    step_loss_mean: float | None
    step_loss_se: float | None


@dataclass(frozen=True)
class EpochRecord:
    """Trace entry for the state entering epoch ``epoch`` (the final entry,
    epoch == n_epochs, is the state after the last epoch; its alpha is 0).

    ``loss`` is the full cross-entropy of this state from
    ``losses.sampled_cross_entropy`` (its repulsion estimated, with
    ``repel_se``), present only on the first and the final entry (and on
    neither without ``track_loss``).
    ``stats`` and ``wall_s`` describe the epoch that produced this state;
    epoch 0 has neither.
    """

    epoch: int
    alpha: float
    loss: LossReport | None
    stats: EpochStats | None = None
    wall_s: float | None = None


@dataclass
class OptimizeResult:
    embedding: Embedding
    trace: list[EpochRecord] = field(default_factory=list)
    self_collisions: int = 0


def wave_schedule(
    anchors: np.ndarray, partners: np.ndarray, negs: np.ndarray, move_other: bool, n: int
) -> np.ndarray:
    """Wave index of each sample under the read-after-write and
    write-after-read rules of the module docstring.

    Writes are a subset of reads, so two writers of one row never share a
    wave and a wave's writes go to distinct rows.
    """
    written = [-1] * n  # wave of the last writer of each row
    read = [0] * n  # latest wave that read each row
    last_write = written.__getitem__
    waves = []
    table = np.column_stack([anchors, partners, negs])
    # rows become Python lists a chunk at a time, to keep that copy small
    for start in range(0, len(table), SCHEDULE_CHUNK):
        for rows in table[start : start + SCHEDULE_CHUNK].tolist():
            a = rows[0]
            w = max(map(last_write, rows)) + 1
            if read[a] > w:
                w = read[a]
            if move_other:
                b = rows[1]
                if read[b] > w:
                    w = read[b]
                written[b] = w
            written[a] = w
            for r in rows:
                if read[r] < w:
                    read[r] = w
            waves.append(w)
    return np.array(waves, dtype=np.intp)


def _run_wave(
    Y: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    negs: np.ndarray,
    live: np.ndarray,
    alpha: float,
    p: KernelParams,
    cfg: OptimizerConfig,
) -> tuple[np.ndarray, int]:
    """Apply one wave of samples to Y in place, each exactly as the sequential
    sweep would; returns each sample's step loss at the rows it read (see
    ``losses.step_losses``) and the number of gradient coordinates ``clip``
    cut.

    ``live`` masks the negatives that are not the sample's own anchor.
    """
    # take gathers rows several times faster than fancy indexing Y[a]
    ya, yb, yc = Y.take(a, axis=0), Y.take(b, axis=0), Y.take(negs, axis=0)
    # the losses at the rows as read, before ya moves
    losses = event_losses(ya, yb, yc, live, p)
    g = grad_log_phi_rows(ya - yb, p)
    cut = int(np.count_nonzero(np.abs(g) > cfg.clip))
    g = np.clip(g, -cfg.clip, cfg.clip)
    ya += alpha * g
    if cfg.move_other:
        yb -= alpha * g
    for j in range(negs.shape[1]):
        yc_j = yc[:, j]
        if cfg.move_other:
            # a negative that is the sample's own partner sees its update
            yc_j = np.where((negs[:, j] == b)[:, None], yb, yc_j)
        g = grad_log_one_minus_phi_rows(ya - yc_j, p, cfg.eps)
        live_j = live[:, j, None]
        cut += int(np.count_nonzero((np.abs(g) > cfg.clip) & live_j))
        g = np.clip(g, -cfg.clip, cfg.clip)
        ya = np.where(live_j, ya + alpha * g, ya)
    Y[a] = ya
    if cfg.move_other:
        Y[b] = yb
    return losses, cut


# the finiteness checks below report an overflow as OptimizationError; numpy's
# warnings would only repeat it, and errstate governs warnings alone
@np.errstate(over="ignore", invalid="ignore")
def optimize(
    V: SimilarityGraph,
    Y0: Embedding,
    p: KernelParams,
    cfg: OptimizerConfig,
    track_loss: bool = True,
) -> OptimizeResult:
    """Run negative-sampling SGD and return the trajectory end plus a loss trace.

    Deterministic for a fixed config: a single PCG64 stream drives edge
    choice, orientation, and negatives, drawn by ``EdgeSampler.draw_events``
    in one block per epoch, as the eq13 claim draws them. The epoch's
    samples then run in waves (see the module docstring); each trace entry
    after the first carries that epoch's ``EpochStats`` and wall time.
    ``track_loss`` adds the full cross-entropy to the first and final entry,
    as ``losses.sampled_cross_entropy`` estimates it from its own stream,
    ``default_rng([seed, 2])``, made once per call: the coordinates are the
    same bits with or without it.
    Raises ``OptimizationError`` naming the epoch when a coordinate, a
    step-loss mean or standard error, or a full loss is not finite.
    """
    if Y0.n != V.n:
        raise ConfigurationError("embedding and graph disagree on vertex count")
    Y = Y0.coords.copy()
    n, d = Y.shape
    rng = np.random.default_rng(cfg.seed)
    loss_rng = np.random.default_rng([cfg.seed, 2])
    sampler = EdgeSampler(V)
    n_samples = (
        cfg.samples_per_epoch
        if cfg.samples_per_epoch is not None
        else sampler.weights.size
    )

    def record(epoch: int, stats: EpochStats | None = None,
               wall_s: float | None = None) -> EpochRecord:
        alpha = cfg.initial_lr * (1.0 - epoch / cfg.n_epochs)
        endpoint = epoch in (0, cfg.n_epochs)
        loss = sampled_cross_entropy(V, Y, p, loss_rng) if track_loss and endpoint else None
        if loss is not None and not math.isfinite(loss.total):
            raise OptimizationError(f"non-finite loss {loss.total} at epoch {epoch}")
        return EpochRecord(epoch=epoch, alpha=alpha, loss=loss, stats=stats, wall_s=wall_s)

    trace = [record(0)]
    collisions = 0
    for epoch in range(cfg.n_epochs):
        started = time.perf_counter()
        alpha = trace[-1].alpha  # the schedule at this epoch, as record() set it
        anchors, partners, negs = sampler.draw_events(rng, n_samples, cfg.n_neg)
        live = negs != anchors[:, None]
        n_live = int(np.count_nonzero(live))

        wave = wave_schedule(anchors, partners, negs, cfg.move_other, n)
        order = np.argsort(wave, kind="stable")
        anchors, partners, negs, live = (
            anchors[order], partners[order], negs[order], live[order]
        )
        ends = np.cumsum(np.bincount(wave)).tolist()
        losses = np.empty(n_samples)
        cut = 0
        lo = 0
        for hi in ends:
            losses[order[lo:hi]], wave_cut = _run_wave(
                Y, anchors[lo:hi], partners[lo:hi], negs[lo:hi], live[lo:hi], alpha, p, cfg
            )
            cut += wave_cut
            lo = hi

        if not np.all(np.isfinite(Y)):
            bad = np.argwhere(~np.isfinite(Y))[0]
            raise OptimizationError(
                f"non-finite coordinate at epoch {epoch}, point {bad[0]}, "
                f"axis {bad[1]}"
            )
        wall_s = time.perf_counter() - started
        stats = EpochStats(
            waves=len(ends),
            self_collisions=live.size - n_live,
            clip_frac=cut / ((n_samples + n_live) * d) if n_samples else 0.0,
            step_loss_mean=float(losses.mean()) if n_samples else None,
            step_loss_se=(
                float(losses.std(ddof=1) / np.sqrt(n_samples)) if n_samples > 1 else None
            ),
        )
        summary = [v for v in (stats.step_loss_mean, stats.step_loss_se) if v is not None]
        if not np.isfinite(summary).all():
            raise OptimizationError(f"non-finite step-loss mean or error at epoch {epoch}")
        collisions += stats.self_collisions
        trace.append(record(epoch + 1, stats, wall_s))

    return OptimizeResult(
        embedding=Embedding(Y, Y0.provenance),
        trace=trace,
        self_collisions=collisions,
    )
