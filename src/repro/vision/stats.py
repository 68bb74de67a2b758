"""Frame-level statistics: entropy, mean, variance.

The paper classifies shots using "entropy characteristics, mean and
variance" in addition to dominant colour and skin ratio.  These are the
corresponding primitives, computed on the greyscale rendering of a frame.
"""

from __future__ import annotations

import numpy as np

from repro.vision.color import ensure_frames, plane_blocks, planes_to_luma, rgb_to_grey
from repro.vision.histogram import _cell_counts, _normalize_rows, _quantize, grey_histogram

__all__ = [
    "frame_entropy",
    "frame_mean",
    "frame_variance",
    "frame_statistics",
    "frame_statistics_batch",
    "plane_statistics",
]


def _as_grey(image: np.ndarray) -> np.ndarray:
    arr = np.asarray(image)
    if arr.ndim == 3:
        return rgb_to_grey(arr)
    if arr.ndim == 2:
        return arr
    raise ValueError(f"expected an image array, got shape {arr.shape}")


def frame_entropy(image: np.ndarray, bins: int = 64) -> float:
    """Shannon entropy (bits) of the greyscale intensity distribution.

    Low for flat shots (empty court walls, uniform graphics), high for
    textured shots (audience).  Range is ``[0, log2(bins)]``.
    """
    hist = grey_histogram(_as_grey(image), bins=bins, normalize=True)
    positive = hist[hist > 0]
    if positive.size == 0:
        return 0.0
    return float(-(positive * np.log2(positive)).sum())


def frame_mean(image: np.ndarray) -> float:
    """Mean greyscale intensity of the frame (0..255)."""
    return float(_as_grey(image).mean())


def frame_variance(image: np.ndarray) -> float:
    """Variance of greyscale intensity of the frame."""
    return float(_as_grey(image).astype(np.float64).var())


def frame_statistics(image: np.ndarray, bins: int = 64) -> dict[str, float]:
    """Entropy, mean and variance in one pass over the greyscale frame."""
    grey = _as_grey(image)
    hist = grey_histogram(grey, bins=bins, normalize=True)
    positive = hist[hist > 0]
    entropy = float(-(positive * np.log2(positive)).sum()) if positive.size else 0.0
    as_float = grey.astype(np.float64)
    return {
        "entropy": entropy,
        "mean": float(as_float.mean()),
        "variance": float(as_float.var()),
    }


def frame_statistics_batch(frames, bins: int = 64) -> list[dict[str, float]]:
    """Batched :func:`frame_statistics` over a whole clip.

    Runs :func:`plane_statistics` over cache-sized frame blocks, so every
    value matches the single-frame function exactly.
    """
    out: list[dict[str, float]] = []
    for _, planes in plane_blocks(ensure_frames(frames)):
        for entropy, mean, variance in zip(*plane_statistics(planes, bins)):
            out.append(
                {"entropy": float(entropy), "mean": float(mean), "variance": float(variance)}
            )
    return out


def plane_statistics(
    planes: np.ndarray, bins: int = 64
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`frame_statistics` of each frame of ``(3, N, H, W)`` channel planes.

    Luma goes through the single-frame matmul (see
    :func:`~repro.vision.color.planes_to_luma`); the intensity histograms
    of all frames come from one offset bincount.  Entropy, mean and
    variance then reduce each frame's row with the single-frame
    operations, so every value matches :func:`frame_statistics`.

    Returns:
        ``(entropy, mean, variance)``, each an ``(N,)`` float64 array.
    """
    if not 2 <= bins <= 256:
        raise ValueError(f"bins must be in 2..256, got {bins}")
    n = planes.shape[1]
    # Rounded luma: the grey levels themselves, already in float64.
    as_float = planes_to_luma(planes).reshape(n, -1)
    counts = _cell_counts(_quantize(as_float.astype(np.uint8), bins, n * bins), bins)
    hists = _normalize_rows(counts.astype(np.float64), True)
    entropy = np.zeros(n)
    for j, hist in enumerate(hists):
        # Summed per frame: a segmented sum would group the terms differently.
        positive = hist[hist > 0]
        if positive.size:
            entropy[j] = -(positive * np.log2(positive)).sum()
    return entropy, as_float.mean(axis=1), as_float.var(axis=1)
