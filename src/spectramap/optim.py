"""Negative-sampling SGD over the fuzzy similarity graph.

Each event samples one positive edge with probability proportional to its
weight (via a Walker/Vose alias table over undirected edges, orientation
chosen by a fair coin) and n_neg uniform negative vertices. Only the anchor
endpoint moves by default; ``move_other`` mirrors the attractive update onto
the partner. The learning rate decays linearly: alpha_e = lr * (1 - e / E).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from .errors import ConfigurationError, OptimizationError
from .fuzzy import SimilarityGraph
from .kernels import KernelParams, grad_log_one_minus_phi, grad_log_phi
from .losses import LossReport, cross_entropy_loss
from .spectra import SpectralSolution, spectral_init

# full-loss tracing is O(n^2) per epoch; skip it for large graphs
TRACE_MAX_N = 5000
# spectral starting coordinates are rescaled to this max-abs
SPECTRAL_MAX_ABS = 10.0


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
        if self.initial_lr <= 0 or self.clip <= 0 or self.eps <= 0:
            raise ConfigurationError("initial_lr, clip and eps must be positive")
        if self.samples_per_epoch is not None and self.samples_per_epoch < 0:
            raise ConfigurationError("samples_per_epoch must be >= 0")


@dataclass(frozen=True)
class Embedding:
    """Low-dimensional coordinates plus where they came from."""

    coords: np.ndarray
    provenance: Literal["spectral", "random", "external"]

    def __post_init__(self):
        coords = np.atleast_2d(np.asarray(self.coords, dtype=np.float64))
        if not np.all(np.isfinite(coords)):
            raise ConfigurationError("embedding coordinates must be finite")
        if self.provenance not in ("spectral", "random", "external"):
            raise ConfigurationError(f"unknown provenance {self.provenance!r}")
        object.__setattr__(self, "coords", coords)

    @property
    def n(self) -> int:
        return self.coords.shape[0]

    @property
    def dim(self) -> int:
        return self.coords.shape[1]


class EdgeSampler:
    """Alias-table sampler of undirected edges with probability ~ weight."""

    def __init__(self, V: SimilarityGraph):
        i, j, w = V.edges()
        if i.size == 0:
            raise ConfigurationError("cannot sample from a graph with no edges")
        self.endpoints = np.column_stack([i, j])
        self.weights = w
        self.prob, self.alias = _build_alias_table(w)

    def sample_edges(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Indices into the undirected edge list, drawn ~ weight."""
        m = self.prob.size
        slot = rng.integers(0, m, size=size)
        accept = rng.random(size) < self.prob[slot]
        return np.where(accept, slot, self.alias[slot])

    def sample_ordered_pairs(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """(anchor, partner) pairs: weighted edge plus a fair orientation coin."""
        idx = self.sample_edges(rng, size)
        flip = rng.integers(0, 2, size=size).astype(bool)
        pairs = self.endpoints[idx]
        return np.where(flip[:, None], pairs[:, ::-1], pairs)


def _build_alias_table(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vose's O(m) alias-table construction for weighted sampling."""
    w = np.asarray(weights, dtype=np.float64)
    if np.any(w < 0) or w.sum() <= 0:
        raise ConfigurationError("weights must be nonnegative with positive sum")
    m = w.size
    scaled = w * (m / w.sum())
    prob = np.ones(m)
    alias = np.arange(m)
    small = [i for i in range(m) if scaled[i] < 1.0]
    large = [i for i in range(m) if scaled[i] >= 1.0]
    while small and large:
        s = small.pop()
        g = large.pop()
        prob[s] = scaled[s]
        alias[s] = g
        scaled[g] = (scaled[g] + scaled[s]) - 1.0
        if scaled[g] < 1.0:
            small.append(g)
        else:
            large.append(g)
    return prob, alias


def sample_negatives(n: int, n_neg: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform vertex draws in [0, n); collisions with anchors are allowed."""
    return rng.integers(0, n, size=n_neg)


def init_embedding(
    V: SimilarityGraph, d: int, mode: Literal["spectral", "random"], seed: int
) -> Embedding:
    """Starting coordinates: spectral layout rescaled to max-abs 10, or uniform."""
    if mode == "random":
        rng = np.random.default_rng(seed)
        return Embedding(rng.uniform(-10.0, 10.0, size=(V.n, d)), "random")
    if mode != "spectral":
        raise ConfigurationError(f"unknown init mode {mode!r}")
    return spectral_embedding(spectral_init(V, d))


def spectral_embedding(sol: SpectralSolution) -> Embedding:
    """The spectral layout rescaled to max-abs ``SPECTRAL_MAX_ABS``."""
    coords = sol.vectors * (SPECTRAL_MAX_ABS / np.abs(sol.vectors).max())
    return Embedding(coords, "spectral")


@dataclass(frozen=True)
class EpochRecord:
    """Trace entry for the state entering epoch ``epoch`` (the final entry,
    epoch == n_epochs, is the state after the last epoch; its alpha is 0)."""

    epoch: int
    alpha: float
    loss: LossReport | None

    def to_json(self) -> str:
        body = {"epoch": self.epoch, "alpha": self.alpha}
        if self.loss is not None:
            body.update(self.loss.to_json_dict())
        return json.dumps(body)


@dataclass
class OptimizeResult:
    embedding: Embedding
    trace: list[EpochRecord] = field(default_factory=list)
    self_collisions: int = 0

    def write_trace_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for rec in self.trace:
                fh.write(rec.to_json() + "\n")


def _clip(vec: np.ndarray, limit: float) -> np.ndarray:
    return np.clip(vec, -limit, limit)


def optimize(
    V: SimilarityGraph,
    Y0: Embedding,
    p: KernelParams,
    cfg: OptimizerConfig,
    track_loss: bool | None = None,
) -> OptimizeResult:
    """Run negative-sampling SGD and return the trajectory end plus a loss trace.

    Deterministic for a fixed config: a single PCG64 stream drives edge
    choice, orientation, and negatives, drawn in one block per epoch.
    """
    if Y0.n != V.n:
        raise ConfigurationError("embedding and graph disagree on vertex count")
    Y = Y0.coords.copy()
    n = V.n
    rng = np.random.default_rng(cfg.seed)
    sampler = EdgeSampler(V)
    n_samples = (
        cfg.samples_per_epoch
        if cfg.samples_per_epoch is not None
        else sampler.weights.size
    )
    if track_loss is None:
        track_loss = n <= TRACE_MAX_N

    def record(epoch: int) -> EpochRecord:
        alpha = cfg.initial_lr * (1.0 - epoch / cfg.n_epochs)
        loss = cross_entropy_loss(V, Y, p) if track_loss else None
        return EpochRecord(epoch=epoch, alpha=alpha, loss=loss)

    trace = [record(0)]
    collisions = 0
    for epoch in range(cfg.n_epochs):
        alpha = cfg.initial_lr * (1.0 - epoch / cfg.n_epochs)
        pairs = sampler.sample_ordered_pairs(rng, n_samples)
        negs = sample_negatives(n, n_samples * cfg.n_neg, rng).reshape(
            n_samples, cfg.n_neg
        ) if cfg.n_neg else np.empty((n_samples, 0), dtype=np.int64)

        for s in range(n_samples):
            a, b = pairs[s]
            grad = _clip(grad_log_phi(Y[a], Y[b], p), cfg.clip)
            Y[a] += alpha * grad
            if cfg.move_other:
                Y[b] -= alpha * grad
            for c in negs[s]:
                if c == a:
                    collisions += 1
                    continue
                g = _clip(grad_log_one_minus_phi(Y[a], Y[c], p, cfg.eps), cfg.clip)
                Y[a] += alpha * g

        if not np.all(np.isfinite(Y)):
            bad = np.argwhere(~np.isfinite(Y))[0]
            raise OptimizationError(
                f"non-finite coordinate at epoch {epoch}, point {bad[0]}, "
                f"axis {bad[1]}"
            )
        trace.append(record(epoch + 1))

    return OptimizeResult(
        embedding=Embedding(Y, Y0.provenance),
        trace=trace,
        self_collisions=collisions,
    )
