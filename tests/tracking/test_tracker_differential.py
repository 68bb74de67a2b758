"""Differential suite: whole-shot tracker vs the per-frame reference.

For generated tennis shots, :meth:`PlayerTracker.track` must return a
``Track`` equal (``==``, so bit for bit on every float) to
:func:`repro.tracking.reference.reference_track`, or raise the same
error.  The shots reach the tracker's edges: every predictor, search
windows of 2-16, openings of 1-5, near and far halves, players that
jump out of the search window or vanish and must be re-acquired, court
bounds and blobs touching the frame edge, shots longer than one mask
block, and the two degenerate exits (colour spread above
``max_color_std``, no court region).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tracking.court_model import CourtColorModel
from repro.tracking.predictor import (
    ConstantVelocityPredictor,
    KalmanPredictor,
    StaticPredictor,
)
from repro.tracking.reference import reference_distance, reference_track
from repro.tracking.tracker import PlayerTracker

COURT = np.array([40, 130, 80])
SURROUND = np.array([70, 70, 110])
LINE = np.array([235, 235, 235])
SHIRT = np.array([200, 40, 40])


def outcome(run):
    """The track, or the type and message of the error it raised."""
    try:
        return run()
    except ValueError as exc:
        return ("ValueError", str(exc))


def render_shot(params: dict) -> list[np.ndarray]:
    """Frames of a synthetic court shot described by *params*."""
    rng = np.random.default_rng(params["seed"])
    h, w = params["height"], params["width"]
    r0, c0, r1, c1 = params["court"]
    background = np.empty((h, w, 3))
    background[:] = SURROUND
    background[r0:r1, c0:c1] = COURT + np.array(params["court_shift"])
    if params["lines"]:
        background[(r0 + r1) // 2, c0:c1] = LINE
        background[r0:r1, c0] = LINE
        background[r0:r1, min(c1, w) - 1] = LINE
    ph, pw = params["player_size"]
    row, col = params["start"]
    d_row, d_col = params["velocity"]
    frames = []
    for index in range(params["n_frames"]):
        if index in params["jumps"]:
            row, col = int(rng.integers(0, h)), int(rng.integers(0, w))
        frame = background.copy()
        if index not in params["gone"]:
            top = int(np.clip(row, 0, h - 1))
            left = int(np.clip(col, 0, w - 1))
            frame[top : top + ph, left : left + pw] = SHIRT
        for dr, dc, size in params["distractors"]:
            frame[dr : dr + size, dc : dc + size] = SHIRT[::-1]
        frame += rng.normal(0.0, params["noise"], size=frame.shape)
        frames.append(np.clip(frame, 0, 255).astype(np.uint8))
        row, col = row + d_row, col + d_col
    return frames


@st.composite
def shots(draw, heights=(16, 48), widths=(16, 56)):
    h = draw(st.integers(*heights))
    w = draw(st.integers(*widths))
    # Court edges anywhere from the frame border (0 / h / w) inwards.
    court = (
        draw(st.integers(0, h // 4)),
        draw(st.integers(0, w // 4)),
        draw(st.integers(3 * h // 4, h)),
        draw(st.integers(3 * w // 4, w)),
    )
    n_frames = draw(st.integers(1, 24))
    frame_ids = st.integers(0, n_frames - 1)
    return {
        "seed": draw(st.integers(0, 2**16)),
        "height": h,
        "width": w,
        "court": court,
        "court_shift": draw(st.tuples(*[st.integers(-20, 20)] * 3)),
        "lines": draw(st.booleans()),
        "noise": draw(st.sampled_from([0.0, 3.0, 6.0, 12.0])),
        "player_size": (draw(st.integers(1, 9)), draw(st.integers(1, 7))),
        # Start anywhere, edges included: the blob is clipped to the frame.
        "start": (draw(st.integers(0, h - 1)), draw(st.integers(0, w - 1))),
        "velocity": (draw(st.integers(-4, 4)), draw(st.integers(-4, 4))),
        "jumps": draw(st.sets(frame_ids, max_size=3)),
        "gone": draw(st.sets(frame_ids, max_size=3)),
        "distractors": draw(
            st.lists(
                st.tuples(st.integers(0, h - 1), st.integers(0, w - 1), st.integers(1, 6)),
                max_size=2,
            )
        ),
        "n_frames": n_frames,
    }


trackers = st.builds(
    PlayerTracker,
    search_half_size=st.integers(2, 16),
    predictor_factory=st.sampled_from(
        [StaticPredictor, ConstantVelocityPredictor, KalmanPredictor]
    ),
    min_area=st.integers(1, 24),
    open_size=st.integers(1, 5),
    half=st.sampled_from(["near", "far"]),
)


def assert_same(tracker: PlayerTracker, frames: list[np.ndarray]):
    got = outcome(lambda: tracker.track(frames))
    want = outcome(lambda: reference_track(tracker, frames))
    assert got == want
    return got


class TestTrackerDifferential:
    @settings(max_examples=150, deadline=None)
    @given(params=shots(), tracker=trackers)
    def test_tracks_equal_reference(self, params, tracker):
        assert_same(tracker, render_shot(params))

    @settings(max_examples=30, deadline=None)
    @given(params=shots(), tracker=trackers, max_std=st.sampled_from([1.0, 3.0, 5.0, 8.0]))
    def test_colour_spread_exit(self, params, tracker, max_std):
        """A colour spread above ``max_color_std``: every frame a miss."""
        tracker.max_color_std = max_std
        assert_same(tracker, render_shot(params))

    @settings(max_examples=30, deadline=None)
    @given(
        params=shots(heights=(4, 7), widths=(4, 9)),
        tracker=trackers,
    )
    def test_no_court_exit(self, params, tracker):
        """Too few court pixels for a court region: every frame a miss."""
        assert_same(tracker, render_shot(params))


def jumping_shot() -> dict:
    return {
        "seed": 3,
        "height": 48,
        "width": 56,
        "court": (0, 4, 48, 52),
        "court_shift": (0, 0, 0),
        "lines": True,
        "noise": 3.0,
        "player_size": (6, 4),
        "start": (34, 10),
        "velocity": (0, 1),
        "jumps": set(),
        "gone": {7},
        "distractors": [],
        "n_frames": 20,
    }


class TestExplicitEdges:
    def test_reacquires_after_a_jump(self, monkeypatch):
        params = jumping_shot()
        frames = render_shot(params)
        # Teleport the player far outside any search window at frame 12.
        for frame, clean in zip(frames[12:], render_shot({**params, "start": (0, 0)})[12:]):
            frame[:] = clean
            frame[34:40, 44:48] = SHIRT
        acquisitions = []
        acquire = PlayerTracker._acquire
        monkeypatch.setattr(
            PlayerTracker,
            "_acquire",
            lambda self, *args: acquisitions.append(1) or acquire(self, *args),
        )
        tracker = PlayerTracker(search_half_size=4)
        track = assert_same(tracker, frames)
        # Frame 0, the vanished frame 7 and the one after, the jump at 12.
        assert len(acquisitions) >= 4
        assert track.points[12].found
        assert track.points[12].position[1] > 40

    def test_court_touching_every_edge(self):
        params = {**jumping_shot(), "court": (0, 0, 48, 56), "start": (44, 52)}
        assert_same(PlayerTracker(), render_shot(params))

    def test_far_half_too_thin_raises_like_reference(self):
        # A court 5 rows high: the bounds are 1 row high after the
        # inset, so the far half is empty and acquisition rejects it.
        frame = np.empty((8, 48, 3), dtype=np.uint8)
        frame[:] = SURROUND
        frame[3:] = COURT
        tracker = PlayerTracker(half="far")
        got = assert_same(tracker, [frame, frame])
        assert got[0] == "ValueError"
        assert PlayerTracker().track([frame, frame]).found_fraction == 0.0

    def test_noise_frames_take_the_colour_exit(self, random_frame):
        frames = [random_frame(seed, 96, 128) for seed in range(4)]
        track = assert_same(PlayerTracker(), frames)
        assert track.found_fraction == 0.0
        assert track.bounds is None and track.court is not None

    def test_invalid_open_size_raises_like_reference(self):
        frames = render_shot(jumping_shot())[:3]
        tracker = PlayerTracker(open_size=0)
        with pytest.raises(ValueError):
            tracker.track(frames)
        assert_same(tracker, frames)

    def test_hands_back_court_model_and_bounds(self, tennis_clips):
        clip, _ = tennis_clips["rally"]
        track = assert_same(PlayerTracker(), list(clip))
        assert track.bounds is not None
        assert track.court is not None


class TestCourtDistance:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        mean=st.tuples(*[st.floats(0, 255)] * 3),
        std=st.tuples(*[st.floats(4, 80)] * 3),
        stacked=st.booleans(),
    )
    def test_table_lookup_equals_arithmetic(self, seed, mean, std, stacked):
        model = CourtColorModel(mean=np.array(mean), std=np.array(std))
        shape = (3, 9, 11, 3) if stacked else (9, 11, 3)
        pixels = np.random.default_rng(seed).integers(0, 256, size=shape).astype(np.uint8)
        got = model.distance(pixels)
        assert np.array_equal(got, reference_distance(model, pixels))
        # Other dtypes keep the arithmetic path.
        assert np.array_equal(model.distance(pixels.astype(np.float32)), got)
