"""Dominant-colour estimation.

"The court shots are recognized based on the dominant color" — this module
computes the dominant colour of a frame by histogram mode in quantised RGB
space, and the coverage of an arbitrary reference colour (used both to
recognise the court colour and, by the tracker, to estimate how much of the
frame is court).
"""

from __future__ import annotations

import numpy as np

from repro.vision.color import ensure_frames, ensure_rgb, plane_blocks
from repro.vision.histogram import _cell_counts, plane_cells

__all__ = [
    "dominant_color",
    "dominant_colors",
    "color_coverage",
    "color_coverages",
    "color_distance",
    "plane_coverages",
    "plane_dominant_colors",
]


def dominant_color(image: np.ndarray, bins: int = 16) -> tuple[np.ndarray, float]:
    """Most frequent quantised colour of an RGB frame.

    The frame is quantised to ``bins`` levels per channel; the returned
    colour is the mean RGB of the pixels falling in the most populated cell,
    which is more accurate than the cell centre.

    Returns:
        ``(color, coverage)`` where *color* is a float64 RGB triple and
        *coverage* is the fraction of frame pixels in the winning cell.
    """
    rgb = ensure_rgb(image)
    quant = (rgb.astype(np.uint32) * bins) >> 8
    codes = (quant[..., 0] * bins + quant[..., 1]) * bins + quant[..., 2]
    flat_codes = codes.ravel()
    counts = np.bincount(flat_codes, minlength=bins**3)
    winner = int(counts.argmax())
    member = flat_codes == winner
    pixels = rgb.reshape(-1, 3)[member]
    color = pixels.mean(axis=0) if len(pixels) else np.zeros(3)
    coverage = float(member.mean()) if flat_codes.size else 0.0
    return color.astype(np.float64), coverage


def dominant_colors(frames, bins: int = 16) -> list[tuple[np.ndarray, float]]:
    """Batched :func:`dominant_color` over a whole clip.

    Runs :func:`plane_dominant_colors` over cache-sized frame blocks, so
    each ``(color, coverage)`` pair matches the single-frame function
    exactly.
    """
    out: list[tuple[np.ndarray, float]] = []
    for _, planes in plane_blocks(ensure_frames(frames)):
        colors, coverages = plane_dominant_colors(planes, bins)
        out.extend((color, float(coverage)) for color, coverage in zip(colors, coverages))
    return out


def plane_dominant_colors(planes: np.ndarray, bins: int = 16) -> tuple[np.ndarray, np.ndarray]:
    """:func:`dominant_color` of each frame of ``(3, N, H, W)`` channel planes.

    One bincount of the block's :func:`~repro.vision.histogram.plane_cells`
    finds every frame's winning cell; its colour is the integer channel
    sums of the member pixels over their count.  Integer sums and counts
    are exact in float64, so each row equals the single-frame result.

    Returns:
        ``(colors, coverages)``: ``(N, 3)`` and ``(N,)`` float64 arrays.
    """
    n = planes.shape[1]
    flat = planes.reshape(3, n, -1)
    codes = plane_cells(planes, bins)
    counts = _cell_counts(codes, bins**3)
    winners = counts.argmax(axis=1)
    wins = counts[np.arange(n), winners]
    # _cell_counts offset frame j's codes by j * bins**3; offset its winner alike.
    member = codes == (winners + np.arange(n) * bins**3)[:, np.newaxis]
    sums = np.ascontiguousarray((flat * member).sum(axis=2).T)
    # A frame without pixels has no winner: colour and coverage stay 0.
    colors = sums / np.maximum(wins, 1)[:, np.newaxis]
    return colors, wins / float(max(flat.shape[2], 1))


def color_distance(c1: np.ndarray, c2: np.ndarray) -> float:
    """Euclidean distance between two RGB colours (0..~441)."""
    a = np.asarray(c1, dtype=np.float64)
    b = np.asarray(c2, dtype=np.float64)
    if a.shape != (3,) or b.shape != (3,):
        raise ValueError("colours must be RGB triples")
    return float(np.linalg.norm(a - b))


def color_coverage(
    image: np.ndarray, color: np.ndarray, tolerance: float = 40.0
) -> float:
    """Fraction of pixels within Euclidean *tolerance* of *color*.

    Used to test whether a frame is dominated by a known court colour.
    """
    rgb = ensure_rgb(image).astype(np.float64)
    ref = np.asarray(color, dtype=np.float64).reshape(1, 1, 3)
    dist = np.sqrt(((rgb - ref) ** 2).sum(axis=-1))
    return float((dist <= tolerance).mean())


def color_coverages(frames, color: np.ndarray, tolerance: float = 40.0) -> np.ndarray:
    """Batched :func:`color_coverage` over a whole clip -> ``(N,)`` float64.

    Runs :func:`plane_coverages` over cache-sized frame blocks, so each
    entry equals the single-frame function bit for bit.
    """
    frames = ensure_frames(frames)
    out = np.empty(frames.shape[0], dtype=np.float64)
    for s, planes in plane_blocks(frames):
        out[s : s + planes.shape[1]] = plane_coverages(planes, color, tolerance)
    return out


def plane_coverages(planes: np.ndarray, color: np.ndarray, tolerance: float = 40.0) -> np.ndarray:
    """:func:`color_coverage` of each frame of ``(3, N, H, W)`` channel planes.

    Each channel's squared difference ``(v - c) ** 2`` is looked up in a
    256-entry float64 table built with the arithmetic path's own
    operations, and the three are summed left to right as that path's
    channel sum adds them, then square-rooted and compared.  The result
    is the same bits for any court colour, integral or not; a frame's
    coverage is an integer count over its pixel count.
    """
    ref = np.asarray(color, dtype=np.float64).reshape(3)
    tables = (np.arange(256, dtype=np.float64) - ref[:, np.newaxis]) ** 2
    n = planes.shape[1]
    flat = planes.reshape(3, n, -1)
    squared = np.take(tables[0], flat[0])
    squared += np.take(tables[1], flat[1])
    squared += np.take(tables[2], flat[2])
    within = np.sqrt(squared, out=squared) <= tolerance
    return np.count_nonzero(within, axis=1) / float(flat.shape[2])
