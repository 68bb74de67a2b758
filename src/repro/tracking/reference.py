"""The per-frame player tracker, kept as the oracle of the whole-shot one.

:class:`~repro.tracking.tracker.PlayerTracker` computes the court
distance, the not-court mask and its opening once per block of frames,
only around the court, and labels only the search window.  This module
keeps the straightforward loop it replaced: every frame pays for a
full-frame float distance, a scipy ``binary_opening``, a full-frame
bounds copy, scipy ``label``/``sum_labels``/``center_of_mass`` and a
full-frame observation mask, and a lost track segments the frame again.

:func:`reference_track` is the yardstick the differential tests and the
E4 speed gate hold the fast tracker to (``==`` on the whole ``Track``).
Nothing on the ingest path calls it.
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage

from repro.tracking.court_model import CourtColorModel
from repro.tracking.segmentation import SearchWindow
from repro.tracking.shape import PlayerObservation
from repro.tracking.tracker import PlayerTracker, Track, TrackPoint
from repro.vision.moments import shape_features
from repro.vision.morphology import square_element
from repro.vision.regions import Region

__all__ = ["reference_distance", "reference_track"]

_EIGHT_CONNECTED = np.ones((3, 3), dtype=bool)


def reference_distance(model: CourtColorModel, frame: np.ndarray) -> np.ndarray:
    """:meth:`CourtColorModel.distance` by per-pixel float arithmetic."""
    rgb = np.asarray(frame).astype(np.float64)
    s0 = (rgb[..., 0] - model.mean[0]) / model.std[0]
    s1 = (rgb[..., 1] - model.mean[1]) / model.std[1]
    s2 = (rgb[..., 2] - model.mean[2]) / model.std[2]
    return np.sqrt(s0 * s0 + s1 * s1 + s2 * s2)


def _not_court(frame, model, k: float) -> np.ndarray:
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    return ~(reference_distance(model, frame) <= k)


def _opening(mask: np.ndarray, size: int) -> np.ndarray:
    return ndimage.binary_opening(mask, structure=square_element(size))


def _regions(mask: np.ndarray, min_area: int) -> list[Region]:
    labels, count = ndimage.label(mask, structure=_EIGHT_CONNECTED)
    if count == 0:
        return []
    index = range(1, count + 1)
    areas = ndimage.sum_labels(np.ones_like(labels), labels, index=index)
    centroids = ndimage.center_of_mass(mask, labels, index=index)
    slices = ndimage.find_objects(labels, max_label=count)
    regions = []
    for idx in range(count):
        area = int(areas[idx])
        if area < min_area or slices[idx] is None:
            continue
        rs, cs = slices[idx]
        regions.append(
            Region(
                label=idx + 1,
                area=area,
                bbox=(rs.start, cs.start, rs.stop, cs.stop),
                centroid=(float(centroids[idx][0]), float(centroids[idx][1])),
            )
        )
    return regions


def _restrict(mask: np.ndarray, bounds: tuple[int, int, int, int]) -> np.ndarray:
    r0, c0, r1, c1 = bounds
    restricted = np.zeros_like(mask)
    restricted[r0:r1, c0:c1] = mask[r0:r1, c0:c1]
    return restricted


def _court_bounds(frame, model, k: float, inset: int = 2):
    court = ~_not_court(frame, model, k)
    # The padded closing of repro.vision.morphology.closing, by scipy.
    padded = np.pad(court, 5, mode="constant", constant_values=False)
    court = ndimage.binary_closing(padded, structure=square_element(5))[5:-5, 5:-5]
    regions = _regions(court, min_area=64)
    if not regions:
        return None
    r0, c0, r1, c1 = max(regions, key=lambda r: r.area).bbox
    r0, c0, r1, c1 = r0 + inset, c0 + inset, r1 - inset, c1 - inset
    if r0 >= r1 or c0 >= c1:
        return None
    return r0, c0, r1, c1


def _cleaned(frame, model, tracker: PlayerTracker) -> np.ndarray:
    return _opening(_not_court(frame, model, tracker.court_k), tracker.open_size)


def _acquire(frame, model, bounds, tracker: PlayerTracker) -> Region | None:
    r0, c0, r1, c1 = bounds
    h, w = frame.shape[:2]
    if not (0 <= r0 < r1 <= h and 0 <= c0 < c1 <= w):
        raise ValueError(f"invalid bounds {bounds} for frame {h}x{w}")
    regions = _regions(_restrict(_cleaned(frame, model, tracker), bounds), tracker.min_area)
    if not regions:
        return None
    return max(regions, key=lambda r: r.area)


def _search(frame, model, bounds, prediction, tracker: PlayerTracker):
    mask = _restrict(_cleaned(frame, model, tracker), bounds)
    window = SearchWindow(prediction, tracker.search_half_size, frame.shape[:2])
    if window.empty:
        return None, mask
    regions = _regions(window.crop(mask), tracker.min_area)
    if not regions:
        return None, mask

    def distance(region: Region) -> float:
        centre = window.to_frame(region).centroid
        return float(np.hypot(centre[0] - prediction[0], centre[1] - prediction[1]))

    return window.to_frame(min(regions, key=distance)), mask


def _observe(frame, mask, region: Region) -> PlayerObservation:
    r0, c0, r1, c1 = region.bbox
    local_mask = np.zeros_like(mask)
    local_mask[r0:r1, c0:c1] = mask[r0:r1, c0:c1]
    shape = shape_features(local_mask)
    if shape is None:
        raise ValueError("player region produced an empty mask")
    pixels = frame[local_mask]
    color = pixels.mean(axis=0) if len(pixels) else np.zeros(3)
    return PlayerObservation(
        position=shape.centroid,
        shape=shape,
        dominant_color=(float(color[0]), float(color[1]), float(color[2])),
    )


def reference_track(tracker: PlayerTracker, frames: list[np.ndarray]) -> Track:
    """What ``tracker.track(frames)`` returns, computed frame by frame."""
    if not frames:
        raise ValueError("cannot track an empty shot")
    model = CourtColorModel.estimate(frames[0])
    misses = [TrackPoint(frame=i, found=False) for i in range(len(frames))]
    if float(model.std.max()) > tracker.max_color_std:
        return Track(points=misses)
    bounds = _court_bounds(frames[0], model, tracker.court_k)
    if bounds is None:
        return Track(points=misses)
    half = tracker.search_half(bounds)
    predictor = tracker.predictor_factory()
    track = Track()
    for index, frame in enumerate(frames):
        prediction = predictor.predict()
        region = mask = None
        if prediction is not None:
            region, mask = _search(frame, model, bounds, prediction, tracker)
        if region is None:
            region = _acquire(frame, model, half, tracker)
            mask = _restrict(_cleaned(frame, model, tracker), half)
        if region is None:
            track.points.append(TrackPoint(frame=index, found=False))
            continue
        observation = _observe(frame, mask, region)
        predictor.update(observation.position)
        track.points.append(TrackPoint(frame=index, found=True, observation=observation))
    return track
