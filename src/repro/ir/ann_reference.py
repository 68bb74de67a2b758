"""Exact brute-force scorer — the ANN index's differential oracle.

Same role :mod:`repro.ir.reference` plays for the packed text engine:
an obviously-correct per-vector loop kept as the *semantic anchor* of
the IVF index in :mod:`repro.ir.ann`.  The contract, pinned by the
hypothesis suite in ``tests/ir/test_ann_differential.py`` and measured
by the E19 benchmark gate:

- when ``nprobe`` covers every cell, :meth:`AnnIndex.search` returns
  ids *and* distances byte-identical to :func:`brute_force_search`;
- at partial ``nprobe`` the IVF answer may miss neighbours but never
  invents them: every returned distance equals the oracle's distance
  for that id, and recall@10 stays above the CI gate.

:func:`reference_shot_vector` plays the same role for the vectorizer:
the channel-plane shot pass must equal it bit for bit (pinned by
``tests/shots/test_shot_features_differential.py`` and the E19
vectorizer gate).

Nothing here is on a production path — keep it boring.
"""

from __future__ import annotations

import numpy as np

from repro.vision.histogram import color_histogram

__all__ = ["brute_force_search", "recall_at_k", "reference_shot_vector", "replicate_vectors"]


def brute_force_search(
    vectors: np.ndarray, query: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Exact top-*k* nearest rows of *vectors* by squared L2 distance.

    One Python loop iteration per stored vector; ties broken by
    ascending id via ``np.lexsort`` — the same rule the IVF index uses,
    so full-coverage searches compare equal array-for-array.

    Returns:
        ``(ids, distances)`` — int64 ids and float64 squared distances,
        sorted by (distance, id), at most *k* entries.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    vectors = np.asarray(vectors, dtype=np.float64)
    query = np.asarray(query, dtype=np.float64)
    n = int(vectors.shape[0]) if vectors.ndim == 2 else 0
    if n == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    distances = np.empty(n, dtype=np.float64)
    for i in range(n):
        diff = vectors[i] - query
        distances[i] = (diff * diff).sum()
    ids = np.arange(n, dtype=np.int64)
    order = np.lexsort((ids, distances))[:k]
    return ids[order], distances[order]


def reference_shot_vector(vectorizer, frames) -> np.ndarray:
    """:meth:`ShotVectorizer.vector_from_frames` by the per-frame path.

    Features from :meth:`ShotFeatureExtractor.extract_reference`, one
    :func:`~repro.vision.histogram.color_histogram` per sampled frame,
    and the vectorizer's own block layout: the oracle the channel-plane
    shot pass must match bit for bit.
    """
    extractor = vectorizer.extractor
    features = extractor.extract_reference(frames)
    picks = [frames[i] for i in extractor.sample_indices(len(frames))]
    hist = np.mean([color_histogram(f, bins=vectorizer.bins) for f in picks], axis=0)
    return vectorizer._assemble(hist, features)


def recall_at_k(got_ids, want_ids, k: int) -> float:
    """Fraction of the oracle's top-*k* ids present in the ANN top-*k*."""
    want = list(want_ids)[:k]
    if not want:
        return 1.0
    got = set(list(got_ids)[:k])
    return len(got & set(want)) / len(want)


def replicate_vectors(
    vectors: np.ndarray, copies: int, rng: np.random.Generator, jitter: float = 0.01
) -> np.ndarray:
    """Scale a vector corpus by *copies* jittered replicas of each row.

    The seed corpora are too small for the IVF pruning win to show
    above per-query overhead, so the E19 gate measures on a replicated
    corpus.  Each replica is Gaussian-perturbed (sigma *jitter*) and
    re-normalized so replicas are near — but not exact — duplicates,
    which keeps recall measurements free of tie ambiguity.
    """
    if copies < 1:
        raise ValueError(f"copies must be >= 1, got {copies}")
    vectors = np.asarray(vectors, dtype=np.float64)
    blocks = [vectors]
    for _ in range(copies - 1):
        noisy = vectors + rng.normal(0.0, jitter, size=vectors.shape)
        norms = np.sqrt((noisy * noisy).sum(axis=1, keepdims=True))
        norms[norms == 0.0] = 1.0
        blocks.append(noisy / norms)
    return np.ascontiguousarray(np.concatenate(blocks, axis=0))
