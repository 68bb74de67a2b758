"""Differential suite: the channel-plane shot pass against per-frame oracles.

:meth:`ShotFeatureExtractor.extract` and
:meth:`ShotVectorizer.vector_from_frames` compute every feature from one
channel-plane copy of the sampled frames.  Hypothesis generates shots —
sizes from 1x1 up, arbitrary float court colours, tolerances of zero and
pixels exactly on the tolerance, flat black/white/skin/court frames — and
both must equal :meth:`ShotFeatureExtractor.extract_reference` and
:func:`repro.ir.ann_reference.reference_shot_vector` bit for bit.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir.ann import ShotVectorizer
from repro.ir.ann_reference import reference_shot_vector
from repro.shots.classify import ShotFeatureExtractor

SKIN = (200, 120, 90)
#: Offset from an integral court colour lying exactly 5.0 away.
EDGE_OFFSET = np.array([3, 4, 0])

FRAME_KINDS = ("noise", "palette", "black", "white", "skin", "court")

court_colors = st.one_of(
    st.tuples(*[st.floats(0.0, 255.0, allow_nan=False)] * 3),
    st.tuples(*[st.integers(0, 251)] * 3).map(lambda c: tuple(float(v) for v in c)),
)
#: "edge" is the exact distance of the palette's edge pixel from the court colour.
tolerances = st.one_of(st.sampled_from([0.0, 5.0, 40.0, "edge"]), st.floats(0.0, 120.0))


def edge_pixel(court):
    """A pixel 5.0 from the rounded court colour (on the tolerance at 5.0)."""
    return np.minimum(np.clip(np.rint(court), 0, 255) + EDGE_OFFSET, 255).astype(np.uint8)


def render_shot(seed, n_frames, height, width, kinds, court):
    """Frames of one shot; palette frames mix court, on-tolerance, skin and noise pixels."""
    rng = np.random.default_rng(seed)
    court_px = np.clip(np.rint(court), 0, 255).astype(np.uint8)
    palette = np.array(
        [court_px, edge_pixel(court), SKIN, (0, 0, 0), (255, 255, 255)], dtype=np.uint8
    )
    frames = []
    for j in range(n_frames):
        kind = kinds[j % len(kinds)]
        frame = rng.integers(0, 256, size=(height, width, 3), dtype=np.uint8)
        if kind == "palette":
            picks = rng.integers(0, len(palette) + 1, size=(height, width))
            inside = picks < len(palette)
            frame[inside] = palette[picks[inside]]
        elif kind != "noise":
            flat = {"black": (0, 0, 0), "white": (255, 255, 255), "skin": SKIN}
            frame[:] = court_px if kind == "court" else flat[kind]
        frames.append(frame)
    return frames


shots = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 2**32 - 1),
        "n_frames": st.integers(1, 9),
        "height": st.integers(1, 40),
        "width": st.integers(1, 40),
        "kinds": st.lists(st.sampled_from(FRAME_KINDS), min_size=1, max_size=4),
        "court": court_colors,
    }
)


@given(shot=shots, samples=st.integers(1, 5), tolerance=tolerances)
@settings(max_examples=150, deadline=None)
def test_extract_equals_reference(shot, samples, tolerance):
    frames = render_shot(**shot)
    court = np.array(shot["court"])
    if tolerance == "edge":
        # Exactly on the tolerance only when the channel squares add up
        # in the reference's order.
        tolerance = float(np.sqrt(((edge_pixel(court) - court) ** 2).sum()))
    extractor = ShotFeatureExtractor(court_color=court, court_tolerance=tolerance, samples=samples)
    assert extractor.extract(frames) == extractor.extract_reference(frames)


@given(
    shot=shots,
    samples=st.integers(1, 5),
    bins=st.one_of(st.sampled_from([3, 5]), st.integers(2, 16)),
)
@settings(max_examples=100, deadline=None)
def test_vector_equals_reference(shot, samples, bins):
    frames = render_shot(**shot)
    vectorizer = ShotVectorizer(samples=samples, bins=bins)
    got = vectorizer.vector_from_frames(frames)
    assert np.array_equal(got, reference_shot_vector(vectorizer, frames))


def test_pixels_on_the_tolerance_count_as_court():
    court = np.array([40.0, 130.0, 80.0])
    frame = np.zeros((4, 4, 3), dtype=np.uint8)
    frame[:2] = (court + EDGE_OFFSET).astype(np.uint8)
    frame[2:] = (court + EDGE_OFFSET + (0, 0, 1)).astype(np.uint8)
    for tolerance, coverage in ((5.0, 0.5), (0.0, 0.0)):
        extractor = ShotFeatureExtractor(court_color=court, court_tolerance=tolerance)
        assert extractor.extract([frame]).court_coverage == coverage
        assert extractor.extract([frame]) == extractor.extract_reference([frame])


def test_pixels_on_a_float_tolerance_count_as_court(make_rng):
    # With a float court colour the channel squares are inexact, so a
    # pixel lies exactly on its own reference distance only if they are
    # added in the reference's order; some 6% of pairs flip otherwise.
    rng = make_rng(5)
    for _ in range(200):
        court = rng.uniform(0.0, 255.0, size=3)
        pixel = rng.integers(0, 256, size=3).astype(np.uint8)
        tolerance = float(np.sqrt(((pixel - court) ** 2).sum()))
        frame = np.broadcast_to(pixel, (1, 2, 3)).copy()
        extractor = ShotFeatureExtractor(court_color=court, court_tolerance=tolerance)
        assert extractor.extract([frame]).court_coverage == 1.0
