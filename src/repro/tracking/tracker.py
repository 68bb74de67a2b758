"""The predict-and-search player tracker.

For a shot classified as tennis, the tracker:

1. estimates court colour statistics from the first frame,
2. finds the player by initial segmentation of the near court half,
3. for each following frame predicts the player position and searches a
   window around the prediction for the most similar not-court region,
4. re-acquires by full near-half segmentation when the track is lost.

The per-pixel work does not depend on the track, so it runs once per
block of frames: court distance, not-court mask and opening for
``_BLOCK`` frames at a time, and only over the court plus the margin
the opening reaches across.  Only the predict -> search loop is
sequential; it labels just the search window (or the search half on
re-acquisition) of masks already computed.  The result equals the
frame-by-frame loop kept in :mod:`repro.tracking.reference` exactly.

The output :class:`Track` carries a :class:`TrackPoint` per frame with
the blob position and the full shape observation (or a miss marker).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.tracking.court_model import CourtColorModel
from repro.tracking.predictor import KalmanPredictor
from repro.tracking.segmentation import SearchWindow, court_bounds
from repro.tracking.shape import PlayerObservation, observe_player
from repro.vision.morphology import opening_stack
from repro.vision.regions import Region, regions_in

__all__ = ["PlayerTracker", "Track", "TrackPoint"]

#: Frames whose masks are computed together: enough to amortise the
#: per-call overhead, few enough to keep the float distance block small.
_BLOCK = 16


@dataclass(frozen=True)
class TrackPoint:
    """Tracker output for one frame.

    Attributes:
        frame: frame index within the shot.
        found: whether the player was located this frame.
        observation: the player observation (``None`` when not found).
    """

    frame: int
    found: bool
    observation: PlayerObservation | None = None

    @property
    def position(self) -> tuple[float, float] | None:
        return self.observation.position if self.observation else None


@dataclass
class Track:
    """A complete track through one shot.

    ``court`` and ``bounds`` are the court colour model and court
    bounding box the tracker estimated from the first frame, handed back
    so callers need not estimate them again.  ``bounds`` is ``None``
    when no court was found or, with a too-spread colour model, none was
    looked for.  Neither takes part in equality.
    """

    points: list[TrackPoint] = field(default_factory=list)
    court: CourtColorModel | None = field(default=None, compare=False, repr=False)
    bounds: tuple[int, int, int, int] | None = field(default=None, compare=False)

    def __len__(self) -> int:
        return len(self.points)

    @property
    def positions(self) -> list[tuple[float, float] | None]:
        """Per-frame positions (None where the player was lost)."""
        return [p.position for p in self.points]

    @property
    def found_fraction(self) -> float:
        """Fraction of frames where the player was located."""
        if not self.points:
            return 0.0
        return sum(p.found for p in self.points) / len(self.points)

    def mean_error(self, truth: list[tuple[float, float]]) -> float:
        """Mean Euclidean error against a ground-truth trajectory.

        Frames where the player was not found are excluded from the mean;
        combine with ``found_fraction`` for the full picture.
        """
        if len(truth) != len(self.points):
            raise ValueError(
                f"truth has {len(truth)} frames, track has {len(self.points)}"
            )
        errors = [
            float(np.hypot(p.position[0] - t[0], p.position[1] - t[1]))
            for p, t in zip(self.points, truth)
            if p.position is not None
        ]
        return float(np.mean(errors)) if errors else float("inf")


class PlayerTracker:
    """Track the near player through a tennis shot.

    Args:
        search_half_size: half-size (pixels) of the window searched around
            the predicted position.
        predictor_factory: zero-argument callable building a fresh
            predictor per shot (defaults to a Kalman filter).
        court_k: court-colour threshold in scaled stds.
        min_area: smallest blob accepted as the player.
        open_size: morphological opening element size.
    """

    def __init__(
        self,
        search_half_size: int = 14,
        predictor_factory=KalmanPredictor,
        court_k: float = 4.0,
        min_area: int = 12,
        open_size: int = 3,
        max_color_std: float = 15.0,
        half: str = "near",
    ):
        if search_half_size < 2:
            raise ValueError(f"search_half_size must be >= 2, got {search_half_size}")
        if max_color_std <= 0:
            raise ValueError(f"max_color_std must be positive, got {max_color_std}")
        if half not in ("near", "far"):
            raise ValueError(f"half must be 'near' or 'far', got {half!r}")
        self.search_half_size = search_half_size
        self.predictor_factory = predictor_factory
        self.court_k = court_k
        self.min_area = min_area
        self.open_size = open_size
        self.max_color_std = max_color_std
        self.half = half

    def search_half(self, bounds: tuple[int, int, int, int]) -> tuple[int, int, int, int]:
        """The half of the court bounding box the player is searched in:
        the lower (near) or upper (far) one."""
        r0, c0, r1, c1 = bounds
        middle = (r0 + r1) // 2
        return (r0, c0, middle, c1) if self.half == "far" else (middle, c0, r1, c1)

    def _court_masks(self, frames, model, bounds) -> np.ndarray:
        """Cleaned not-court masks of *frames*, zero outside *bounds*.

        Pixels outside the bounds are zeroed anyway, so the distance and
        opening run only on the bounds grown by the ``open_size - 1``
        pixels an opening reaches across.  Where that margin is clipped
        at the frame edge, the crop edge is the frame edge, which the
        opening treats as false just as it does for a whole frame.
        """
        h, w = frames[0].shape[:2]
        r0, c0, r1, c1 = bounds
        reach = self.open_size - 1
        top, left = max(r0 - reach, 0), max(c0 - reach, 0)
        bottom, right = min(r1 + reach, h), min(c1 + reach, w)
        crops = np.stack([frame[top:bottom, left:right] for frame in frames])
        cleaned = opening_stack(~(model.distance(crops) <= self.court_k), self.open_size)
        masks = np.zeros((len(frames), h, w), dtype=bool)
        masks[:, r0:r1, c0:c1] = cleaned[:, r0 - top : r1 - top, c0 - left : c1 - left]
        return masks

    def _acquire(self, mask: np.ndarray, half: tuple[int, int, int, int]) -> Region | None:
        """Largest blob in the search half (initial detection / re-acquisition).

        Only the half is labelled; everything outside it is zero in a
        half-restricted mask, so blobs, their order and their areas are
        those of labelling the whole frame.
        """
        r0, c0, r1, c1 = half
        regions = regions_in(mask[r0:r1, c0:c1], min_area=self.min_area)
        if not regions:
            return None
        # Shifting may round the centroid differently from labelling the
        # whole frame; only the area and bbox are used downstream.
        return max(regions, key=lambda r: r.area).shifted(r0, c0)

    def _search(self, mask: np.ndarray, prediction: tuple[float, float]) -> Region | None:
        """The blob in the window around *prediction* nearest to it."""
        window = SearchWindow(prediction, self.search_half_size, mask.shape)
        if window.empty:
            return None
        regions = regions_in(window.crop(mask), min_area=self.min_area)
        if not regions:
            return None

        def distance(region: Region) -> float:
            centre = window.to_frame(region).centroid
            return float(
                np.hypot(centre[0] - prediction[0], centre[1] - prediction[1])
            )

        return window.to_frame(min(regions, key=distance))

    def track(self, frames: list[np.ndarray]) -> Track:
        """Track the player through the frames of one tennis shot."""
        if not frames:
            raise ValueError("cannot track an empty shot")
        model = CourtColorModel.estimate(frames[0])
        misses = [TrackPoint(frame=i, found=False) for i in range(len(frames))]
        if float(model.std.max()) > self.max_color_std:
            # No coherent field colour (not actually a court shot): the
            # "court" model would cover arbitrary pixels, so every frame
            # is a miss rather than a fabricated track.
            return Track(points=misses, court=model)
        bounds = court_bounds(frames[0], model, k=self.court_k)
        if bounds is None:
            # No court surface: every frame is a miss (not a tennis shot).
            return Track(points=misses, court=model)
        half = self.search_half(bounds)
        h, w = frames[0].shape[:2]
        r0, c0, r1, c1 = half
        if not (0 <= r0 < r1 <= h and 0 <= c0 < c1 <= w):
            # The first frame always acquires, over this half.
            raise ValueError(f"invalid bounds {half} for frame {h}x{w}")
        predictor = self.predictor_factory()
        track = Track(court=model, bounds=bounds)

        for start in range(0, len(frames), _BLOCK):
            block = frames[start : start + _BLOCK]
            masks = self._court_masks(block, model, bounds)
            for offset, (frame, mask) in enumerate(zip(block, masks)):
                index = start + offset
                prediction = predictor.predict()
                region = None if prediction is None else self._search(mask, prediction)
                if region is None:
                    region = self._acquire(mask, half)
                if region is None:
                    track.points.append(TrackPoint(frame=index, found=False))
                    continue
                # The region lies inside the half (or the bounds) it was
                # found in, so its bbox crop of the bounds-restricted
                # mask is the crop of the mask it was found in.
                observation = observe_player(frame, mask, region)
                predictor.update(observation.position)
                track.points.append(
                    TrackPoint(frame=index, found=True, observation=observation)
                )
        return track
