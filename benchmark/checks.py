"""Embedding quality and the output checks that count an operation as failed.

Everything here is computed with scipy's cKDTree, independently of
``spectramap.knn``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.spatial import cKDTree

from workloads import CLAIM_IDS, K


def neighbours(points: np.ndarray, k: int = K) -> np.ndarray:
    """Indices of each point's k nearest other points, nearest first."""
    n = points.shape[0]
    _, idx = cKDTree(points).query(points, k=k + 1)
    # drop the point itself wherever a duplicate pushed it out of column 0
    keep = idx != np.arange(n)[:, None]
    keep[keep.sum(axis=1) > k, -1] = False
    return idx[keep].reshape(n, k)


def knn_recall(points: np.ndarray, embedding: np.ndarray, k: int = K) -> float:
    """Mean share of each point's k input-space neighbours that are among
    its k embedding neighbours."""
    a, b = neighbours(points, k), neighbours(embedding, k)
    hits = (a[:, :, None] == b[:, None, :]).any(axis=2).sum(axis=1)
    return float(hits.mean() / k)


def label_purity(labels: np.ndarray, embedding: np.ndarray, k: int = K) -> float:
    """Mean share of each point's k embedding neighbours that carry its label."""
    nb = neighbours(embedding, k)
    return float((labels[nb] == labels[:, None]).mean())


def fuzzy_graph_nnz(points: np.ndarray, k: int = K) -> int:
    """Stored entries of the symmetrized k-NN graph: ordered pairs (i, j)
    with j among i's neighbours or i among j's."""
    n = points.shape[0]
    nb = neighbours(points, k)
    keys = np.arange(n).repeat(k) * n + nb.ravel()
    back = nb.ravel() * n + np.arange(n).repeat(k)
    return int(np.union1d(keys, back).size)


@dataclass
class Ledger:
    """Operations attempted and failed, with the reason for each failure."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, problems: list[str], ops: int = 1, failed_ops: int | None = None) -> None:
        """Count ``ops`` operations; by default all fail if there is any problem."""
        self.attempted += ops
        if failed_ops is None:
            failed_ops = ops if problems else 0
        self.failed += failed_ops
        self.problems += problems

    @property
    def pass_frac(self) -> float:
        return (self.attempted - self.failed) / self.attempted if self.attempted else 0.0


def check_embed_outputs(
    rc: int, out_dir: Path, n: int, expected_nnz: int
) -> tuple[list[str], np.ndarray | None, dict]:
    """Problems with one ``spectramap embed`` run, its embedding and run.json."""
    if rc != 0:
        return [f"embed exited {rc}"], None, {}
    problems = []
    try:
        coords = np.loadtxt(out_dir / "embedding.csv", delimiter=",", skiprows=1, ndmin=2)[:, :-1]
        report = json.loads((out_dir / "run.json").read_text())
    except (OSError, ValueError) as exc:
        return [f"unreadable embed output: {exc}"], None, {}
    if coords.shape[0] != n or not np.all(np.isfinite(coords)):
        problems.append(f"embedding.csv: expected {n} finite rows, got shape {coords.shape}")
    if report.get("n") != n:
        problems.append(f"run.json n={report.get('n')}, expected {n}")
    if report.get("graph_nnz") != expected_nnz:
        problems.append(f"run.json graph_nnz={report.get('graph_nnz')}, expected {expected_nnz}")
    return problems, (None if problems else coords), report


def check_verify_report(rc: int, out_dir: Path) -> tuple[list[str], int, int]:
    """Problems with one ``spectramap verify`` run plus (reports, failed reports).

    Each claim report is one operation; a claim id missing from the report
    counts as one failed operation.
    """
    try:
        reports = json.loads((out_dir / "report.json").read_text())["reports"]
    except (OSError, ValueError, KeyError) as exc:
        return [f"verify exited {rc}, unreadable report: {exc}"], len(CLAIM_IDS), len(CLAIM_IDS)
    failed = [r["claim"] for r in reports if not r["passed"]]
    missing = sorted(set(CLAIM_IDS) - {r["claim"] for r in reports})
    problems = [f"claim {c} failed" for c in failed] + [f"claim {c} missing" for c in missing]
    if rc != 0 and not problems:
        problems.append(f"verify exited {rc}")
    return problems, len(reports) + len(missing), max(len(failed) + len(missing), int(rc != 0))
