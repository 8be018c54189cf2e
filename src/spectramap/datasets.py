"""Synthetic point-cloud generators and CSV ingestion.

Generators are pure functions of their arguments including the seed; the
normal variates come from numpy's PCG64 generator with the ziggurat
algorithm, so fixtures are stable within this implementation.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, ParseError


@dataclass(frozen=True)
class DataMatrix:
    """n points in an ambient real space, one row per point."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2:
            raise ConfigurationError("points must be a 2-d array (n rows x D columns)")
        if pts.shape[0] < 1 or pts.shape[1] < 1:
            raise ConfigurationError("need at least one point and one dimension")
        if not np.all(np.isfinite(pts)):
            raise ConfigurationError("coordinates must be finite")
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True)
class LabeledDataset:
    """A DataMatrix plus integer class ids used only for evaluation/plotting."""

    data: DataMatrix
    labels: np.ndarray

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=np.int64)
        if labels.shape != (self.data.n,):
            raise ConfigurationError("labels must be one integer per point")
        object.__setattr__(self, "labels", labels)


def gen_blobs(n_per_cluster: int, centers, std: float, seed: int) -> LabeledDataset:
    """Isotropic Gaussian clusters, ``n_per_cluster`` samples around each center."""
    if n_per_cluster < 1:
        raise ConfigurationError("n_per_cluster must be >= 1")
    if not std > 0:  # NaN fails too
        raise ConfigurationError("std must be positive")
    centers = np.atleast_2d(np.asarray(centers, dtype=np.float64))
    if centers.size == 0:
        raise ConfigurationError("need at least one center")

    rng = np.random.default_rng(seed)
    blocks = []
    labels = []
    for idx, center in enumerate(centers):
        pts = center + std * rng.standard_normal((n_per_cluster, centers.shape[1]))
        blocks.append(pts)
        labels.append(np.full(n_per_cluster, idx, dtype=np.int64))
    return LabeledDataset(DataMatrix(np.vstack(blocks)), np.concatenate(labels))


def gen_two_moons(n: int, noise: float, seed: int) -> LabeledDataset:
    """Two interleaved unit-radius half-circles with isotropic Gaussian noise.

    The first moon is the upper half of the circle centered at the origin,
    the second the lower half of the circle centered at (1, 0.5).
    """
    if n < 2:
        raise ConfigurationError("need n >= 2")
    if not noise >= 0:  # NaN fails too
        raise ConfigurationError("noise must be nonnegative")

    n_outer = n // 2
    n_inner = n - n_outer
    t_out = np.linspace(0.0, np.pi, n_outer)
    t_in = np.linspace(0.0, np.pi, n_inner)
    pts = np.concatenate(
        [
            np.column_stack([np.cos(t_out), np.sin(t_out)]),
            np.column_stack([1.0 - np.cos(t_in), 0.5 - np.sin(t_in)]),
        ]
    )
    if noise > 0:
        rng = np.random.default_rng(seed)
        pts = pts + noise * rng.standard_normal(pts.shape)
    labels = np.concatenate(
        [np.zeros(n_outer, dtype=np.int64), np.ones(n_inner, dtype=np.int64)]
    )
    return LabeledDataset(DataMatrix(pts), labels)


def _row_floats(cells: list[str], path: Path, line_no: int) -> list[float]:
    """The cells stripped and parsed one at a time, raising at the first that
    is not a number."""
    values = []
    for c, cell in enumerate(cells):
        cell = cell.strip()
        try:
            values.append(float(cell))
        except ValueError:
            raise ParseError(
                f"{path}: row {line_no}, column {c + 1}: not a number: {cell!r}"
            ) from None
    return values


def read_utf8(path) -> str:
    """The file's text; a byte sequence that is not UTF-8 is a ``ParseError``
    naming the file and the byte's offset."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: byte 0x{data[exc.start]:02x} "
                         f"at offset {exc.start}") from None


def load_csv(path, has_labels: bool = False) -> LabeledDataset:
    """Load a rectangular numeric CSV, optionally with a final integer label column.

    Read as UTF-8, without a byte-order mark; a file that is not UTF-8 is a
    ``ParseError``. Row 1 is a header when float() rejects one of its cells
    unstripped (a cell padded with U+001C..U+001F parses only stripped); data
    cells are parsed stripped. Labels must be integers in the int64 range.
    Rows and columns in error messages are 1-based file positions.
    """
    path = Path(path)
    text = read_utf8(path).removeprefix("\ufeff")
    reader = csv.reader(io.StringIO(text, newline=""))
    raw = []  # (first file line, cells) of each row that is not blank
    try:
        line_no = 1
        for row in reader:
            if any(cell.strip() for cell in row):
                raw.append((line_no, row))
            line_no = reader.line_num + 1
    except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
        raise ParseError(f"{path}: line {reader.line_num}: {exc}") from None
    if not raw:
        raise ParseError(f"{path}: empty file")
    try:
        [float(cell) for cell in raw[0][1]]
        start = 0
    except ValueError:
        start = 1  # a header row

    width = len(raw[start][1]) if start < len(raw) else 0
    rows = []
    labels = []
    for line_no, row in raw[start:]:
        if len(row) != width:
            raise ParseError(
                f"{path}: row {line_no} has {len(row)} fields, expected {width}"
            )
        values = _row_floats(row, path, line_no)
        if has_labels:
            lab = values.pop()
            if not (lab.is_integer() and -(2.0**63) <= lab < 2.0**63):
                raise ParseError(f"{path}: row {line_no}, column {width}: label must "
                                 "be an integer in the int64 range")
            labels.append(int(lab))
        rows.append(values)

    if len(rows) < 2:
        raise ParseError(f"{path}: need at least 2 data rows, got {len(rows)}")
    if has_labels and width < 2:
        raise ParseError(f"{path}: label column requested but only {width} column(s)")

    data = DataMatrix(np.asarray(rows, dtype=np.float64))
    label_arr = (
        np.asarray(labels, dtype=np.int64)
        if has_labels
        else np.zeros(data.n, dtype=np.int64)
    )
    return LabeledDataset(data, label_arr)


def save_csv(dataset: LabeledDataset, path, prefix: str = "x") -> None:
    """Write a dataset as CSV with the header ``{prefix}0,...,label`` and
    Unix line endings; floats use their shortest exact repr."""
    header = [f"{prefix}{i}" for i in range(dataset.data.dim)] + ["label"]
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row, lab in zip(dataset.data.points, dataset.labels):
            writer.writerow([repr(float(v)) for v in row] + [str(int(lab))])
