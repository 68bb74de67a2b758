"""Differential suite: separable square morphology vs scipy.ndimage.

The running row-then-column AND/OR of :mod:`repro.vision.morphology`
must equal scipy's binary operators with a square element bit for bit,
for every element size 1-7 (even sizes included: their windows are
off-centre, and differently so for erosion and dilation), at mask
densities from sparse to full, and with all-true borders, where scipy
treats the outside as false.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from repro.vision.morphology import closing, dilate, erode, opening, opening_stack


@st.composite
def masks(draw):
    h, w = draw(st.integers(1, 24)), draw(st.integers(1, 24))
    density = draw(st.sampled_from([0.1, 0.3, 0.6, 0.9, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    mask = rng.random((h, w)) < density
    if draw(st.booleans()):
        mask[[0, -1], :] = True
        mask[:, [0, -1]] = True
    return mask


sizes = st.integers(1, 7)


def square(size: int) -> np.ndarray:
    return np.ones((size, size), dtype=bool)


@settings(max_examples=200, deadline=None)
@given(mask=masks(), size=sizes)
def test_erode_dilate_opening_equal_scipy(mask, size):
    assert np.array_equal(erode(mask, size), ndimage.binary_erosion(mask, square(size)))
    assert np.array_equal(dilate(mask, size), ndimage.binary_dilation(mask, square(size)))
    assert np.array_equal(opening(mask, size), ndimage.binary_opening(mask, square(size)))


@settings(max_examples=200, deadline=None)
@given(mask=masks(), size=sizes)
def test_closing_equals_padded_scipy_closing(mask, size):
    padded = np.pad(mask, size)
    want = ndimage.binary_closing(padded, square(size))[size:-size, size:-size]
    assert np.array_equal(closing(mask, size), want)


@settings(max_examples=100, deadline=None)
@given(first=masks(), seed=st.integers(0, 2**16), size=sizes)
def test_opening_stack_equals_per_mask_scipy(first, seed, size):
    rng = np.random.default_rng(seed)
    stack = np.stack([first, ~first, rng.random(first.shape) < 0.5])
    got = opening_stack(stack, size)
    for mask, opened in zip(stack, got):
        assert np.array_equal(opened, ndimage.binary_opening(mask, square(size)))
