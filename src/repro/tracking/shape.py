"""Per-frame player observations: shape features + dominant colour.

"Besides the player's position, we extract the dominant color, and
standard shape features such as the mass center, the area, the bounding
box, the orientation, and the eccentricity."
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.vision.moments import ShapeFeatures, shape_features_from_points
from repro.vision.regions import Region

__all__ = ["PlayerObservation", "observe_player"]


@dataclass(frozen=True)
class PlayerObservation:
    """Everything extracted about the player in one frame.

    Attributes:
        position: blob centroid ``(row, col)`` — the tracked position.
        shape: central-moment shape features of the blob.
        dominant_color: mean RGB of the blob pixels (the player's kit
            colour; the paper stores it as a per-player feature).
    """

    position: tuple[float, float]
    shape: ShapeFeatures
    dominant_color: tuple[float, float, float]


def observe_player(
    frame: np.ndarray, mask: np.ndarray, region: Region
) -> PlayerObservation:
    """Build a :class:`PlayerObservation` for a segmented player *region*.

    Args:
        frame: the RGB frame.
        mask: the cleaned not-court mask the region was found in.
        region: the player blob (frame coordinates).
    """
    r0, c0, r1, c1 = region.bbox
    # nonzero over the bbox crop, shifted back to frame coordinates, lists
    # the same points in the same row-major order as over the full mask.
    rows, cols = np.nonzero(mask[r0:r1, c0:c1])
    if rows.size == 0:
        raise ValueError("player region produced an empty mask")
    rows += r0
    cols += c0
    shape = shape_features_from_points(rows, cols)
    color = frame[rows, cols].mean(axis=0)
    return PlayerObservation(
        position=shape.centroid,
        shape=shape,
        dominant_color=(float(color[0]), float(color[1]), float(color[2])),
    )
