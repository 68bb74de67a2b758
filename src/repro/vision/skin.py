"""Skin-colour detection.

The paper classifies a shot as a close-up "if it contains a significant
amount of skin colored pixels".  We model skin colour as an axis-aligned
box in HSV plus the classic RGB ratio constraints, which is what
early-2000s skin detectors (Peer et al., Kovac et al.) used.

The model is deliberately parametric so tests and the synthetic video
generator can agree exactly on what counts as skin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.vision.color import ensure_frames, ensure_rgb, plane_blocks

__all__ = ["SkinColorModel", "skin_ratio", "DEFAULT_SKIN_MODEL"]


@dataclass(frozen=True)
class SkinColorModel:
    """Rule-based skin classifier in RGB space.

    A pixel is skin when all hold (the Peer/Kovac daylight rules):

    - ``r > r_min`` and ``g > g_min`` and ``b > b_min``
    - ``max(r,g,b) - min(r,g,b) > spread_min`` (skin is never grey)
    - ``r > g`` and ``r > b`` (red dominance)
    - ``|r - g| > rg_gap_min``
    """

    r_min: int = 95
    g_min: int = 40
    b_min: int = 20
    spread_min: int = 15
    rg_gap_min: int = 15

    def mask(self, image: np.ndarray) -> np.ndarray:
        """Boolean mask of skin pixels for an RGB frame."""
        rgb = ensure_rgb(image).astype(np.int32)
        r, g, b = rgb[..., 0], rgb[..., 1], rgb[..., 2]
        maxc = rgb.max(axis=-1)
        minc = rgb.min(axis=-1)
        return (
            (r > self.r_min)
            & (g > self.g_min)
            & (b > self.b_min)
            & ((maxc - minc) > self.spread_min)
            & (np.abs(r - g) > self.rg_gap_min)
            & (r > g)
            & (r > b)
        )

    def ratio(self, image: np.ndarray) -> float:
        """Fraction of frame pixels classified as skin, in ``[0, 1]``."""
        mask = self.mask(image)
        return float(mask.mean()) if mask.size else 0.0

    def masks(self, frames) -> np.ndarray:
        """Boolean skin masks for a whole clip, ``(N, H, W)``.

        Batched form of :meth:`mask`: :meth:`plane_masks` over
        cache-sized frame blocks, so ``masks(c)[i]`` equals
        ``mask(c[i])`` bit for bit.
        """
        frames = ensure_frames(frames)
        out = np.empty(frames.shape[:3], dtype=bool)
        for s, planes in plane_blocks(frames):
            out[s : s + planes.shape[1]] = self.plane_masks(planes)
        return out

    def ratios(self, frames) -> np.ndarray:
        """Per-frame skin fractions for a whole clip, ``(N,)`` float64.

        A mask mean is an integer pixel count divided by the frame size
        — exact in float64 — so each entry equals :meth:`ratio` on that
        frame.
        """
        return _fractions(self.masks(frames))

    def plane_masks(self, planes: np.ndarray) -> np.ndarray:
        """Skin masks ``(N, H, W)`` of ``(3, N, H, W)`` int16 channel planes.

        The rule chain of :meth:`mask` with per-channel plane arithmetic
        — ``maximum(maximum(r, g), b)`` instead of a reduction over the
        3-wide channel axis, which NumPy handles an order of magnitude
        slower.  Integer comparisons are exact.
        """
        r, g, b = planes
        maxc = np.maximum(np.maximum(r, g), b)
        minc = np.minimum(np.minimum(r, g), b)
        return (
            (r > self.r_min)
            & (g > self.g_min)
            & (b > self.b_min)
            & ((maxc - minc) > self.spread_min)
            & (np.abs(r - g) > self.rg_gap_min)
            & (r > g)
            & (r > b)
        )

    def plane_ratios(self, planes: np.ndarray) -> np.ndarray:
        """:meth:`ratio` of each frame of ``(3, N, H, W)`` channel planes."""
        return _fractions(self.plane_masks(planes))


def _fractions(masks: np.ndarray) -> np.ndarray:
    """Per-frame true fraction of ``(N, H, W)`` masks (0 for empty frames)."""
    if masks.size == 0:
        return np.zeros(masks.shape[0], dtype=np.float64)
    return np.count_nonzero(masks.reshape(masks.shape[0], -1), axis=1) / float(masks[0].size)


#: Default model; also the model the synthetic close-up renderer targets.
DEFAULT_SKIN_MODEL = SkinColorModel()


def skin_ratio(image: np.ndarray, model: SkinColorModel | None = None) -> float:
    """Convenience wrapper: skin-pixel fraction under *model* (default model)."""
    return (model or DEFAULT_SKIN_MODEL).ratio(image)
