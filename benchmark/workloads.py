"""The benchmark's workloads: seeded input generators and the CLI runs they make.

Inputs are generated here, written as CSV and handed to ``spectramap embed
--input``, so a change to ``spectramap.datasets`` cannot change them.
"""

from __future__ import annotations

import csv
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

K = 15
DIM = 2
MIN_DIST = 0.1
# seeded inputs per run, quality is their mean: with one input per seed,
# knn_recall spreads 8-12% between seeds on the moons inputs
VARIANTS = 4
# claim ids in the order ``spectramap verify`` runs them
CLAIM_IDS = (
    "thm3.1a",
    "thm3.1b",
    "eq20_bound",
    "thm3.1c",
    "eq13_montecarlo",
    "lemmaA1",
    "a3_relaxation",
)


def blobs_hd(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n points in 8 overlapping unit-std Gaussian blobs in R^16.

    The centres sit evenly on a circle of radius 4 in a plane of R^16 drawn
    from a fixed stream, so the layout is part of the workload and only the
    points depend on the seed. Neighbouring blobs overlap, so the fuzzy
    graph is one component, and the two leading Laplacian eigenvectors span
    the ring: with centres drawn at random per seed, which blobs overlap in
    a 2-d embedding changes from seed to seed and moves the quality metrics
    by more than their bound.
    """
    clusters, dim, radius = 8, 16, 4.0
    plane, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((dim, 2)))
    angle = 2.0 * np.pi * np.arange(clusters) / clusters
    centres = radius * (np.cos(angle)[:, None] * plane[:, 0] + np.sin(angle)[:, None] * plane[:, 1])
    labels = rng.permutation(np.arange(n) % clusters)
    return centres[labels] + rng.standard_normal((n, dim)), labels


def two_moons(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n points on two interleaved half-circles in R^2 with noise 0.05."""
    labels = rng.permutation(np.arange(n) % 2)
    t = np.empty(n)
    for c in (0, 1):
        side = labels == c
        t[side] = np.linspace(0.0, np.pi, int(side.sum()))
    upper = np.column_stack([np.cos(t), np.sin(t)])
    lower = np.column_stack([1.0 - np.cos(t), 0.5 - np.sin(t)])
    points = np.where(labels[:, None] == 0, upper, lower)
    return points + 0.05 * rng.standard_normal((n, 2)), labels


@dataclass(frozen=True)
class EmbedSpec:
    """One ``spectramap embed`` configuration on generated input."""

    generator: Callable[[np.random.Generator, int], tuple[np.ndarray, np.ndarray]]
    n: int
    epochs: int
    samples_per_epoch: int | None = None

    def cli_args(self, csv_path: Path, out_dir: Path, seed: int) -> list[str]:
        args = [
            "embed", "--input", str(csv_path), "--has-labels",
            "--k", str(K), "--dim", str(DIM), "--min-dist", str(MIN_DIST),
            "--init", "spectral", "--epochs", str(self.epochs),
            "--seed", str(seed), "--out-dir", str(out_dir),
        ]
        if self.samples_per_epoch is not None:
            args += ["--samples-per-epoch", str(self.samples_per_epoch)]
        return args


@dataclass(frozen=True)
class Workload:
    """``main`` is what run_s times; ``embed`` is the timed embed run for the
    embed workloads and, for verify-suite, the small embed that supplies the
    embedding-quality metrics and the traced embed layers."""

    name: str
    code: int
    main: str  # "embed" or "verify"
    embed: EmbedSpec
    require_connected: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "blobs-hd", 1, "embed",
            EmbedSpec(blobs_hd, n=2000, epochs=1, samples_per_epoch=2000),
            require_connected=True,
        ),
        Workload(
            "moons-sgd", 2, "embed",
            EmbedSpec(two_moons, n=1000, epochs=4),
        ),
        Workload(
            "verify-suite", 3, "verify",
            EmbedSpec(two_moons, n=500, epochs=3),
        ),
    )
}


@dataclass(frozen=True)
class Input:
    path: Path
    points: np.ndarray
    labels: np.ndarray
    seed: int  # passed to the CLI as --seed


def write_inputs(w: Workload, seed: int, work: Path) -> list[Input]:
    """Generate the run's input variants from ``seed`` and write them as CSV."""
    inputs = []
    for v in range(VARIANTS):
        rng = np.random.default_rng([seed, w.code, v])
        points, labels = w.embed.generator(rng, w.embed.n)
        path = work / f"input-{v}.csv"
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([f"x{i}" for i in range(points.shape[1])] + ["label"])
            for row, lab in zip(points, labels):
                writer.writerow([repr(float(x)) for x in row] + [str(int(lab))])
        inputs.append(Input(path, points, labels, seed * 16 + v))
    return inputs
