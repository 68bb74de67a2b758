"""Binary morphology: erosion, dilation, opening, closing.

The player segmentation mask is noisy (court texture, line markings); the
tracker cleans it with an opening before extracting regions, mirroring the
post-processing any 2002-era segmentation pipeline applied.

A square element is separable: eroding (dilating) by a ``size`` x
``size`` square is a running AND (OR) of ``size`` neighbours along the
rows, then along the columns.  Every operator works on the last two
axes, so a whole ``(N, H, W)`` block of masks goes through in one pass
with no coupling between masks.  Windows are aligned as scipy's
``ndimage`` aligns a square element with ``origin=0`` and pixels outside
the array count as false (``border_value=0``), so the results equal
``ndimage.binary_erosion`` and friends bit for bit.
"""

from __future__ import annotations

import numpy as np

__all__ = ["erode", "dilate", "opening", "closing", "opening_stack", "square_element"]


def _check_size(size: int) -> None:
    if size < 1:
        raise ValueError(f"structuring element size must be >= 1, got {size}")


def square_element(size: int) -> np.ndarray:
    """A ``size`` x ``size`` all-ones structuring element."""
    _check_size(size)
    return np.ones((size, size), dtype=bool)


def _check_mask(mask: np.ndarray) -> np.ndarray:
    arr = np.asarray(mask, dtype=bool)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D mask, got shape {arr.shape}")
    return arr


def _run(arr: np.ndarray, size: int, lead: int, axis: int, erode: bool) -> np.ndarray:
    """AND (*erode*) or OR of ``arr[j - lead], ..., arr[j - lead + size - 1]``
    into ``out[j]`` along *axis*, with false beyond both ends."""
    combine = np.logical_and if erode else np.logical_or
    n = arr.shape[axis]
    out = arr.copy()
    dst = np.moveaxis(out, axis, 0)
    src = np.moveaxis(arr, axis, 0)
    for shift in range(1, size - lead):
        if shift < n:
            combine(dst[: n - shift], src[shift:], out=dst[: n - shift])
    for shift in range(1, lead + 1):
        if shift < n:
            combine(dst[shift:], src[: n - shift], out=dst[shift:])
    if erode:
        # A window reaching past either end holds an outside (false) pixel.
        dst[:lead] = False
        dst[max(n - (size - 1 - lead), 0) :] = False
    return out


def _erode(arr: np.ndarray, size: int) -> np.ndarray:
    _check_size(size)
    lead = size // 2
    rows = _run(arr, size, lead, -1, erode=True)
    return _run(rows, size, lead, -2, erode=True)


def _dilate(arr: np.ndarray, size: int) -> np.ndarray:
    # Dilation reflects the element, so an even window leans the other way.
    _check_size(size)
    lead = size - 1 - size // 2
    rows = _run(arr, size, lead, -1, erode=False)
    return _run(rows, size, lead, -2, erode=False)


def erode(mask: np.ndarray, size: int = 3) -> np.ndarray:
    """Binary erosion with a square element of side *size*."""
    return _erode(_check_mask(mask), size)


def dilate(mask: np.ndarray, size: int = 3) -> np.ndarray:
    """Binary dilation with a square element of side *size*."""
    return _dilate(_check_mask(mask), size)


def opening(mask: np.ndarray, size: int = 3) -> np.ndarray:
    """Erosion followed by dilation — removes specks smaller than the element."""
    return _dilate(_erode(_check_mask(mask), size), size)


def opening_stack(masks: np.ndarray, size: int = 3) -> np.ndarray:
    """:func:`opening` of every mask in an ``(N, H, W)`` stack at once."""
    arr = np.asarray(masks, dtype=bool)
    if arr.ndim != 3:
        raise ValueError(f"expected an (N, H, W) mask stack, got shape {arr.shape}")
    return _dilate(_erode(arr, size), size)


def closing(mask: np.ndarray, size: int = 3) -> np.ndarray:
    """Dilation followed by erosion — fills holes smaller than the element.

    The mask is padded before the operation so closing stays *extensive*
    (``mask ⊆ closing(mask)``) at the frame borders, which a closing
    that treats the outside as false does not guarantee.
    """
    checked = _check_mask(mask)
    _check_size(size)
    padded = np.pad(checked, size, mode="constant", constant_values=False)
    closed = _erode(_dilate(padded, size), size)
    return closed[size:-size, size:-size]
