"""Court colour statistics.

"Using estimated statistics of the tennis field color" — the tracker does
not assume a known court colour; it estimates mean and spread of the
court surface from a frame of the playing shot itself, which makes it
robust to camera gain differences between shots.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.vision.color import ensure_rgb

__all__ = ["CourtColorModel"]


@dataclass(frozen=True)
class CourtColorModel:
    """Gaussian-ish model of the court surface colour.

    Attributes:
        mean: RGB mean of court pixels.
        std: per-channel standard deviation of court pixels (floored so a
            perfectly flat surface still yields a usable threshold).
    """

    mean: np.ndarray
    std: np.ndarray

    _STD_FLOOR = 4.0

    @classmethod
    def estimate(
        cls,
        frame: np.ndarray,
        tolerance: float = 45.0,
        seed_box: tuple[float, float, float, float] = (0.55, 0.30, 0.90, 0.70),
    ) -> "CourtColorModel":
        """Estimate the model from one frame of a court shot.

        The seed colour is the per-channel median of the *seed_box* patch
        (fractions ``(row_from, col_from, row_to, col_to)`` of the frame).
        In a broadcast court shot the lower-central area is almost pure
        playing surface — the same domain knowledge the paper's tennis
        detector applies.  Statistics are then computed over all frame
        pixels within *tolerance* of the seed, capturing the true noise
        spread of the surface.
        """
        rgb = ensure_rgb(frame).astype(np.float64)
        h, w, _ = rgb.shape
        r0, c0 = int(seed_box[0] * h), int(seed_box[1] * w)
        r1, c1 = max(r0 + 1, int(seed_box[2] * h)), max(c0 + 1, int(seed_box[3] * w))
        patch = rgb[r0:r1, c0:c1].reshape(-1, 3)
        seed = np.median(patch, axis=0)
        dist = np.sqrt(((rgb - seed.reshape(1, 1, 3)) ** 2).sum(axis=-1))
        member = dist <= tolerance
        if not member.any():
            # Degenerate frame; fall back to the seed with floor spread.
            return cls(mean=seed, std=np.full(3, cls._STD_FLOOR))
        pixels = rgb[member]
        std = np.maximum(pixels.std(axis=0), cls._STD_FLOOR)
        return cls(mean=pixels.mean(axis=0), std=std)

    @cached_property
    def _square_tables(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per channel, the scaled squared difference of every uint8 value."""
        values = np.arange(256, dtype=np.float64)
        tables = []
        for c in range(3):
            scaled = (values - self.mean[c]) / self.std[c]
            tables.append(scaled * scaled)
        return tables[0], tables[1], tables[2]

    def distance(self, frames: np.ndarray) -> np.ndarray:
        """Per-pixel normalised distance from the court colour.

        Each channel difference is scaled by that channel's std, so the
        result is a Mahalanobis-style distance (diagonal covariance).
        *frames* is one ``(H, W, 3)`` frame or an ``(N, H, W, 3)`` stack.

        For ``uint8`` pixels each channel's scaled square is looked up in
        a 256-entry table built with the very float operations the
        arithmetic path applies per pixel, and the three are summed left
        to right as that path sums them, so both give the same bits.
        """
        arr = np.asarray(frames)
        if arr.ndim not in (3, 4) or arr.shape[-1] != 3:
            raise ValueError(
                f"expected (H, W, 3) or (N, H, W, 3) RGB pixels, got shape {arr.shape}"
            )
        if arr.dtype == np.uint8:
            t0, t1, t2 = self._square_tables
            squared = np.take(t0, arr[..., 0])
            squared += np.take(t1, arr[..., 1])
            squared += np.take(t2, arr[..., 2])
            return np.sqrt(squared, out=squared)
        rgb = arr.astype(np.float64)
        s0 = (rgb[..., 0] - self.mean[0]) / self.std[0]
        s1 = (rgb[..., 1] - self.mean[1]) / self.std[1]
        s2 = (rgb[..., 2] - self.mean[2]) / self.std[2]
        return np.sqrt(s0 * s0 + s1 * s1 + s2 * s2)

    def is_court(self, frame: np.ndarray, k: float = 4.0) -> np.ndarray:
        """Boolean mask of pixels within *k* scaled stds of the court colour."""
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        return self.distance(frame) <= k
