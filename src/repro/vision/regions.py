"""Connected-component labelling for binary masks.

The player segmentation step produces a binary "not court" mask; the
tracker then needs the connected regions of that mask to find the player
blob.  Labelling uses scipy's optimised implementation with pure-NumPy
helpers around it: areas and centroids come from ``np.bincount`` over the
label image.  Coordinate sums are sums of integers, exact in float64, so
every centroid equals ``ndimage.center_of_mass`` bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

__all__ = ["Region", "label_regions", "region_slices", "largest_region", "regions_in"]

#: Neighbourhoods of 4- and 8-connectivity, by ``connectivity``.
_STRUCTURES = {c: ndimage.generate_binary_structure(2, c) for c in (1, 2)}


@dataclass(frozen=True)
class Region:
    """A connected region of a binary mask.

    Attributes:
        label: label id in the label image (>= 1).
        area: number of pixels.
        bbox: ``(row_min, col_min, row_max, col_max)`` — half-open rows/cols.
        centroid: ``(row, col)`` mean pixel position.
    """

    label: int
    area: int
    bbox: tuple[int, int, int, int]
    centroid: tuple[float, float]

    @property
    def height(self) -> int:
        return self.bbox[2] - self.bbox[0]

    @property
    def width(self) -> int:
        return self.bbox[3] - self.bbox[1]

    def shifted(self, rows: int, cols: int) -> "Region":
        """The region moved by ``(rows, cols)`` — from crop to frame coordinates."""
        r0, c0, r1, c1 = self.bbox
        return Region(
            label=self.label,
            area=self.area,
            bbox=(r0 + rows, c0 + cols, r1 + rows, c1 + cols),
            centroid=(self.centroid[0] + rows, self.centroid[1] + cols),
        )


def label_regions(mask: np.ndarray, connectivity: int = 2) -> tuple[np.ndarray, int]:
    """Label connected components of a boolean mask.

    Args:
        mask: ``(H, W)`` boolean array.
        connectivity: 1 for 4-connectivity, 2 for 8-connectivity.

    Returns:
        ``(labels, count)`` — an int label image (0 = background) and the
        number of regions found.
    """
    arr = np.asarray(mask, dtype=bool)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D mask, got shape {arr.shape}")
    if connectivity not in (1, 2):
        raise ValueError("connectivity must be 1 or 2")
    labels, count = ndimage.label(arr, structure=_STRUCTURES[connectivity])
    return labels, int(count)


def region_slices(labels: np.ndarray, count: int) -> list[tuple[slice, slice]]:
    """Bounding slices for each labelled region, in label order."""
    found = ndimage.find_objects(labels, max_label=count)
    return [s for s in found if s is not None]


def regions_in(mask: np.ndarray, connectivity: int = 2, min_area: int = 1) -> list[Region]:
    """All connected regions of *mask* with at least *min_area* pixels."""
    labels, count = label_regions(mask, connectivity=connectivity)
    if count == 0:
        return []
    h, w = labels.shape
    flat = labels.ravel()
    areas = np.bincount(flat, minlength=count + 1)
    rows = np.repeat(np.arange(h, dtype=np.float64), w)
    cols = np.tile(np.arange(w, dtype=np.float64), h)
    row_sums = np.bincount(flat, weights=rows, minlength=count + 1)
    col_sums = np.bincount(flat, weights=cols, minlength=count + 1)
    slices = ndimage.find_objects(labels, max_label=count)
    regions: list[Region] = []
    for label in range(1, count + 1):
        area = int(areas[label])
        if area < min_area or slices[label - 1] is None:
            continue
        rs, cs = slices[label - 1]
        regions.append(
            Region(
                label=label,
                area=area,
                bbox=(rs.start, cs.start, rs.stop, cs.stop),
                centroid=(
                    float(row_sums[label] / areas[label]),
                    float(col_sums[label] / areas[label]),
                ),
            )
        )
    return regions


def largest_region(mask: np.ndarray, connectivity: int = 2) -> Region | None:
    """The largest connected region of *mask*, or ``None`` if mask is empty."""
    regions = regions_in(mask, connectivity=connectivity)
    if not regions:
        return None
    return max(regions, key=lambda r: r.area)
