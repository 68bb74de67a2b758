"""Colour space conversions.

The shot classifier works on RGB statistics, dominant colours are more
stable in HSV, and the boundary detector and entropy work on greyscale.
Conversions follow the standard ITU-R BT.601 luma weights and the usual
hexcone HSV model, matching what the paper's 2002-era tooling (and
OpenCV today) computes.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "rgb_to_grey",
    "rgb_to_hsv",
    "hsv_to_rgb",
    "ensure_rgb",
    "ensure_frames",
    "rgb_to_grey_frames",
    "rgb_to_hsv_frames",
    "channel_planes",
    "plane_blocks",
    "planes_to_luma",
    "FRAME_BLOCK",
]

#: ITU-R BT.601 luma weights used for RGB -> greyscale.
_LUMA_WEIGHTS = np.array([0.299, 0.587, 0.114])

#: Frames per block in the batched kernels.  Batched passes iterate the
#: clip in blocks of this many frames: large enough to amortise dispatch
#: overhead, small enough that a block's float temporaries stay resident
#: in cache instead of streaming clip-sized arrays through main memory
#: (measured fastest on memory-constrained hosts).
FRAME_BLOCK = 2


def ensure_rgb(image: np.ndarray) -> np.ndarray:
    """Validate that *image* is an ``(H, W, 3)`` array and return it.

    Raises:
        ValueError: if the array does not look like an RGB image.
    """
    arr = np.asarray(image)
    if arr.ndim != 3 or arr.shape[2] != 3:
        raise ValueError(f"expected an (H, W, 3) RGB image, got shape {arr.shape}")
    return arr


def ensure_frames(frames) -> np.ndarray:
    """Coerce a clip / frame sequence / array to an ``(N, H, W, 3)`` array.

    Accepts a :class:`~repro.video.frames.VideoClip` (uses its cached
    stacked array), an already-stacked 4-D array, or any sequence of
    ``(H, W, 3)`` frames.

    Raises:
        ValueError: if the input does not describe a batch of RGB frames.
    """
    as_array = getattr(frames, "as_array", None)
    if callable(as_array):
        return as_array()
    arr = np.asarray(frames) if isinstance(frames, np.ndarray) else None
    if arr is None:
        arr = np.stack([np.asarray(f) for f in frames]) if len(frames) else np.empty((0, 1, 1, 3))
    if arr.ndim == 3 and arr.shape[-1] == 3:
        arr = arr[np.newaxis]
    if arr.ndim != 4 or arr.shape[-1] != 3:
        raise ValueError(f"expected (N, H, W, 3) RGB frames, got shape {arr.shape}")
    return arr


def rgb_to_grey(image: np.ndarray) -> np.ndarray:
    """Convert an RGB image to a ``uint8`` greyscale image.

    Args:
        image: ``(H, W, 3)`` array, any numeric dtype in the 0..255 range.

    Returns:
        ``(H, W)`` ``uint8`` array of luma values.
    """
    rgb = ensure_rgb(image).astype(np.float64)
    grey = rgb @ _LUMA_WEIGHTS
    return np.clip(np.rint(grey), 0, 255).astype(np.uint8)


def _rounded_luma(rgb: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Luma of float64 ``(..., H, W, 3)`` pixels, rounded and clipped, in float64.

    Always one matmul over the frame's own ``(H, W, 3)`` layout, as
    :func:`rgb_to_grey` does: an elementwise ``r*w0 + g*w1 + b*w2``
    rounds 1340 of the 16.7M colours differently, and a matmul over the
    pixels flattened into one row changes the float results of
    one-pixel-wide frames.
    """
    luma = np.matmul(rgb, _LUMA_WEIGHTS, out=out)
    np.rint(luma, out=luma)
    return np.clip(luma, 0, 255, out=luma)


def rgb_to_grey_frames(frames) -> np.ndarray:
    """Batched :func:`rgb_to_grey`: ``(N, H, W, 3)`` -> ``(N, H, W)`` uint8.

    One luma matmul over the whole clip; per-pixel arithmetic is
    identical to the single-frame function, so ``rgb_to_grey_frames(c)[i]``
    equals ``rgb_to_grey(c[i])`` exactly.
    """
    rgb = ensure_frames(frames)
    out = np.empty(rgb.shape[:3], dtype=np.uint8)
    for s in range(0, rgb.shape[0], FRAME_BLOCK):
        out[s : s + FRAME_BLOCK] = _rounded_luma(rgb[s : s + FRAME_BLOCK].astype(np.float64))
    return out


def channel_planes(frames) -> np.ndarray:
    """One contiguous ``(3, N, H, W)`` int16 copy of ``N`` RGB frames.

    The block helpers behind the batched kernels and the shot feature
    pass all read these planes: each channel of each frame is one
    contiguous ``H*W`` row, and int16 holds the skin rule's channel
    differences without overflow.  The frame shape is kept because luma
    must go through the per-frame matmul layout (see :func:`_rounded_luma`).
    *frames* is a non-empty sequence of equally shaped uint8 RGB frames,
    or an ``(N, H, W, 3)`` uint8 array.

    Raises:
        ValueError: if a frame is not an ``(H, W, 3)`` uint8 image.
    """
    first = ensure_rgb(frames[0])
    planes = np.empty((3, len(frames), *first.shape[:2]), dtype=np.int16)
    for j in range(len(frames)):
        frame = ensure_rgb(frames[j])
        if frame.dtype != np.uint8:
            raise ValueError(f"expected uint8 RGB frames, got {frame.dtype}")
        planes[:, j] = np.moveaxis(frame, -1, 0)
    return planes


def plane_blocks(frames):
    """Yield ``(start, planes)`` for each :data:`FRAME_BLOCK`-frame block.

    *frames* must already be an ``(N, H, W, 3)`` array (see
    :func:`ensure_frames`); *planes* is :func:`channel_planes` of the
    block that starts at frame *start*.
    """
    for s in range(0, frames.shape[0], FRAME_BLOCK):
        yield s, channel_planes(frames[s : s + FRAME_BLOCK])


def planes_to_luma(planes: np.ndarray) -> np.ndarray:
    """Rounded luma of ``(3, N, H, W)`` channel planes as ``(N, H, W)`` float64.

    Frame *j* holds exactly the values of ``rgb_to_grey(frame_j)``: the
    planes are put back in pixel order and go through the single-frame
    matmul of :func:`rgb_to_grey`, batched over the frames.
    """
    rgb = np.empty((*planes.shape[1:], 3), dtype=np.float64)
    for c in range(3):
        rgb[..., c] = planes[c]
    return _rounded_luma(rgb)


def _hsv_from_rgb_array(rgb: np.ndarray) -> np.ndarray:
    """Hexcone HSV of a float RGB array in [0, 1]; shape-preserving."""
    r, g, b = rgb[..., 0], rgb[..., 1], rgb[..., 2]
    maxc = rgb.max(axis=-1)
    minc = rgb.min(axis=-1)
    delta = maxc - minc

    hue = np.zeros_like(maxc)
    nonzero = delta > 0
    # Piecewise hue computation; np.where keeps it vectorised.
    rmax = nonzero & (maxc == r)
    gmax = nonzero & (maxc == g) & ~rmax
    bmax = nonzero & ~rmax & ~gmax
    with np.errstate(divide="ignore", invalid="ignore"):
        hue[rmax] = ((g - b)[rmax] / delta[rmax]) % 6.0
        hue[gmax] = (b - r)[gmax] / delta[gmax] + 2.0
        hue[bmax] = (r - g)[bmax] / delta[bmax] + 4.0
    hue *= 60.0

    saturation = np.zeros_like(maxc)
    vpos = maxc > 0
    saturation[vpos] = delta[vpos] / maxc[vpos]

    return np.stack([hue, saturation, maxc], axis=-1)


def rgb_to_hsv(image: np.ndarray) -> np.ndarray:
    """Convert ``uint8`` RGB to float HSV.

    Returns:
        ``(H, W, 3)`` float64 array with hue in ``[0, 360)`` degrees and
        saturation / value in ``[0, 1]``.
    """
    return _hsv_from_rgb_array(ensure_rgb(image).astype(np.float64) / 255.0)


def rgb_to_hsv_frames(frames) -> np.ndarray:
    """Batched :func:`rgb_to_hsv`: ``(N, H, W, 3)`` -> ``(N, H, W, 3)`` float64.

    The hexcone arithmetic is elementwise, so the batched result matches
    the per-frame conversion bit for bit.
    """
    rgb = ensure_frames(frames)
    out = np.empty(rgb.shape, dtype=np.float64)
    for s in range(0, rgb.shape[0], FRAME_BLOCK):
        out[s : s + FRAME_BLOCK] = _hsv_from_rgb_array(
            rgb[s : s + FRAME_BLOCK].astype(np.float64) / 255.0
        )
    return out


def hsv_to_rgb(hsv: np.ndarray) -> np.ndarray:
    """Convert float HSV (hue degrees, sat/val in 0..1) to ``uint8`` RGB."""
    arr = np.asarray(hsv, dtype=np.float64)
    if arr.ndim != 3 or arr.shape[2] != 3:
        raise ValueError(f"expected an (H, W, 3) HSV image, got shape {arr.shape}")
    h = (arr[..., 0] % 360.0) / 60.0
    s = np.clip(arr[..., 1], 0.0, 1.0)
    v = np.clip(arr[..., 2], 0.0, 1.0)

    i = np.floor(h).astype(int) % 6
    f = h - np.floor(h)
    p = v * (1.0 - s)
    q = v * (1.0 - s * f)
    t = v * (1.0 - s * (1.0 - f))

    # For each sextant pick the (r, g, b) triple.
    choices = [
        (v, t, p),
        (q, v, p),
        (p, v, t),
        (p, q, v),
        (t, p, v),
        (v, p, q),
    ]
    r = np.choose(i, [c[0] for c in choices])
    g = np.choose(i, [c[1] for c in choices])
    b = np.choose(i, [c[2] for c in choices])
    rgb = np.stack([r, g, b], axis=-1)
    return np.clip(np.rint(rgb * 255.0), 0, 255).astype(np.uint8)
