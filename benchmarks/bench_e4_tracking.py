"""E4 — player segmentation and tracking.

Regenerates the tracking tables:

- mean position error and found fraction per motion script;
- error vs search-window size per predictor (static / constant-velocity
  / Kalman) — the predict-and-search trade-off the paper's tennis
  detector embodies;
- E4a ablation: court-statistics segmentation vs a global threshold.

Expected shape: with a generous window every predictor works; as the
window shrinks, better prediction keeps the player in view longer.

The speed gate times the whole-shot tracker against the per-frame
reference it replaced (:mod:`repro.tracking.reference`) on the same
shots; CI demands a >= 2x median speedup and zero tracks that differ.
"""

import numpy as np

from benchmarks.conftest import print_table
from repro.tracking.court_model import CourtColorModel
from repro.tracking.predictor import (
    ConstantVelocityPredictor,
    KalmanPredictor,
    StaticPredictor,
)
from repro.tracking.reference import reference_track
from repro.tracking.tracker import PlayerTracker

PREDICTORS = {
    "static": StaticPredictor,
    "const-velocity": ConstantVelocityPredictor,
    "kalman": KalmanPredictor,
}


def test_e4_per_script_tracking(benchmark, bench_tennis_clips):
    def sweep():
        out = []
        for script, (clip, truth) in bench_tennis_clips.items():
            track = PlayerTracker().track(list(clip))
            error = track.mean_error(list(truth.shots[0].trajectory))
            out.append([script, f"{track.found_fraction:.2f}", f"{error:.2f}"])
        return out

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_table(
        "E4: tracking per motion script (window=14, kalman)",
        ["script", "found", "mean err (px)"],
        rows,
    )
    for row in rows:
        assert float(row[1]) > 0.9
        assert float(row[2]) < 6.0


def test_e4_window_predictor_sweep(benchmark, bench_tennis_clips):
    clip, truth = bench_tennis_clips["rally"]
    trajectory = list(truth.shots[0].trajectory)

    def sweep():
        out = {}
        for window in (4, 8, 14):
            for name, factory in PREDICTORS.items():
                tracker = PlayerTracker(search_half_size=window, predictor_factory=factory)
                track = tracker.track(list(clip))
                out[(window, name)] = (track.found_fraction, track.mean_error(trajectory))
        return out

    errors = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rows = [
        [window, name, f"{found:.2f}", f"{error:.2f}"]
        for (window, name), (found, error) in errors.items()
    ]
    print_table(
        "E4: search window x predictor (rally clip)",
        ["window", "predictor", "found", "mean err (px)"],
        rows,
    )
    # Generous window: all predictors land close to the truth.
    assert errors[(14, "kalman")][1] < 6.0
    # The kalman tracker is never substantially worse than static.
    for window in (4, 8, 14):
        assert errors[(window, "kalman")][1] <= errors[(window, "static")][1] + 2.0


def test_e4a_segmentation_ablation(benchmark, bench_tennis_clips):
    """Court-statistics segmentation vs a naive global threshold."""
    clip, truth = bench_tennis_clips["rally"]
    frame = clip[0]
    model = benchmark.pedantic(CourtColorModel.estimate, args=(frame,), rounds=1, iterations=1)

    from repro.tracking.segmentation import court_bounds, restrict_to_bounds
    from repro.vision.morphology import opening
    from repro.vision.regions import regions_in

    bounds = court_bounds(frame, model)
    r0, c0, r1, c1 = bounds
    near_half = ((r0 + r1) // 2, c0, r1, c1)

    # Court-statistics mask: pixels far from the estimated court colour.
    stat_mask = ~model.is_court(frame)

    # Naive global threshold: dark pixels (a 2002-era fallback).
    grey = frame.mean(axis=-1)
    naive_mask = grey < grey.mean() * 0.6

    true_pos = truth.shots[0].trajectory[0]
    rows = []
    for name, mask in (("court statistics", stat_mask), ("global threshold", naive_mask)):
        cleaned = restrict_to_bounds(opening(mask, size=3), near_half)
        regions = regions_in(cleaned, min_area=12)
        near = [
            r
            for r in regions
            if np.hypot(r.centroid[0] - true_pos[0], r.centroid[1] - true_pos[1]) < 10
        ]
        rows.append([name, len(regions), "yes" if near else "no"])
    print_table(
        "E4a: initial segmentation method (first rally frame)",
        ["method", "candidate regions", "player found near truth"],
        rows,
    )
    assert rows[0][2] == "yes"


def test_e4b_camera_pan_ablation(benchmark):
    """Tracking under camera pan: the court model is estimated once per
    shot, so a fast pan slowly invalidates it — error grows with pan."""
    import numpy as np
    from repro.video.shots import CourtShotSpec

    rng = np.random.default_rng(99)

    def sweep():
        out = []
        for pan in (0.0, 0.2, 0.5):
            shot = CourtShotSpec(n_frames=50, script="rally", pan_speed=pan).render(
                96, 128, rng, 6.0
            )
            track = PlayerTracker().track(shot.frames)
            errors = [
                np.hypot(p[0] - t[0], p[1] - t[1])
                for p, t in zip(track.positions, shot.trajectory)
                if p is not None
            ]
            out.append([pan, f"{track.found_fraction:.2f}", f"{np.mean(errors):.2f}"])
        return out

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_table(
        "E4b: tracking under camera pan (rally, window=14)",
        ["pan px/frame", "found", "mean err (px)"],
        rows,
    )
    assert float(rows[0][2]) <= float(rows[-1][2]) + 0.5


def test_e4_tracking_speed(benchmark, bench_tennis_clips):
    """Timed kernel: tracking a 60-frame court shot."""
    clip, _truth = bench_tennis_clips["rally"]
    frames = list(clip)
    track = benchmark(PlayerTracker().track, frames)
    assert track.found_fraction > 0.9


#: Trackers of the speed gate: the default near-player tracker, the
#: far-player one, and a narrow window that loses and re-acquires.
GATE_TRACKERS = (
    PlayerTracker(),
    PlayerTracker(half="far", min_area=8),
    PlayerTracker(search_half_size=3, predictor_factory=StaticPredictor),
)


def _gate_shots(bench_tennis_clips):
    return [list(clip) for clip, _truth in bench_tennis_clips.values()]


def test_e4_reference_tracker(benchmark, bench_tennis_clips):
    """Gate baseline: the per-frame reference tracker on every E4 shot."""
    shots = _gate_shots(bench_tennis_clips)

    def run():
        return [reference_track(t, frames) for t in GATE_TRACKERS for frames in shots]

    benchmark.pedantic(run, rounds=3, iterations=1)


def test_e4_batched_tracker(benchmark, bench_tennis_clips):
    """Gate candidate: the whole-shot tracker on the same shots.

    ``mismatches`` counts the (tracker, shot) pairs whose ``Track``
    differs from :func:`reference_track` in any point or float.
    """
    shots = _gate_shots(bench_tennis_clips)

    def run():
        return [t.track(frames) for t in GATE_TRACKERS for frames in shots]

    tracks = benchmark.pedantic(run, rounds=3, iterations=1)
    want = [reference_track(t, frames) for t in GATE_TRACKERS for frames in shots]
    mismatches = sum(got != ref for got, ref in zip(tracks, want))
    benchmark.extra_info["mismatches"] = mismatches
    benchmark.extra_info["tracks"] = len(tracks)
    assert mismatches == 0
