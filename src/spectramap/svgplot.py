"""Minimal SVG scatter emitter: circles plus a frame, no plotting dependency."""

from __future__ import annotations

from pathlib import Path

import numpy as np

PALETTE = (
    "#4c72b0",
    "#dd8452",
    "#55a868",
    "#c44e52",
    "#8172b3",
    "#937860",
    "#da8bc3",
    "#8c8c8c",
    "#ccb974",
    "#64b5cd",
)
# side of the square image, frame inset and circle radius, in SVG user units
SIZE = 480
MARGIN = 40
RADIUS = 3.0


def svg_scatter(points: np.ndarray, labels: np.ndarray, path) -> None:
    """Write a 2-d scatter as standalone SVG, one circle per point, coloured
    by its integer label."""
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))[:, :2]
    # a 1-d layout is drawn along the x axis, at y = 0
    pts = np.pad(pts, ((0, 0), (0, 2 - pts.shape[1])))

    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    span = np.where(hi - lo > 0, hi - lo, 1.0)
    inner = SIZE - 2 * MARGIN
    xs = MARGIN + (pts[:, 0] - lo[0]) / span[0] * inner
    # SVG y axis grows downward
    ys = SIZE - MARGIN - (pts[:, 1] - lo[1]) / span[1] * inner

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SIZE}" height="{SIZE}" '
        f'viewBox="0 0 {SIZE} {SIZE}">',
        f'<rect x="0" y="0" width="{SIZE}" height="{SIZE}" fill="white"/>',
        f'<rect x="{MARGIN}" y="{MARGIN}" width="{inner}" height="{inner}" '
        'fill="none" stroke="#888" stroke-width="1"/>',
    ]
    for (x, y), lab in zip(zip(xs, ys), labels):
        color = PALETTE[int(lab) % len(PALETTE)]
        parts.append(
            f'<circle cx="{x:.2f}" cy="{y:.2f}" r="{RADIUS}" '
            f'fill="{color}" fill-opacity="0.8"/>'
        )
    for txt, x, y, anchor in (
        (f"{lo[0]:.3g}", MARGIN, SIZE - MARGIN + 14, "middle"),
        (f"{hi[0]:.3g}", SIZE - MARGIN, SIZE - MARGIN + 14, "middle"),
        (f"{lo[1]:.3g}", MARGIN - 6, SIZE - MARGIN, "end"),
        (f"{hi[1]:.3g}", MARGIN - 6, MARGIN + 4, "end"),
    ):
        parts.append(
            f'<text x="{x}" y="{y}" font-size="10" text-anchor="{anchor}" '
            f'fill="#444">{txt}</text>'
        )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")
