"""E19 — approximate nearest-neighbour shot retrieval.

Query-by-example over shot feature vectors: the IVF index
(:class:`repro.ir.ann.AnnIndex`) against the brute-force oracle
(:func:`repro.ir.ann_reference.brute_force_search`) on a replicated
corpus, the same scaling trick E6 uses for text.  The gate demands

- a >= 5x median speedup of the probed search over the full scan,
- recall@10 >= 0.9 at the serving ``nprobe``, and
- ``fused_mismatches == 0``: with every cell probed the index must
  reproduce the oracle — and therefore the fused ranking — byte for
  byte.  Approximation is allowed only where it is asked for.

The vectorizer gate times the query side of query-by-example: shot
vectors of degraded example clips through the channel-plane shot pass
against the per-frame oracle
(:func:`repro.ir.ann_reference.reference_shot_vector`).  CI demands a
>= 3x median speedup and ``mismatches == 0``.
"""

import numpy as np
import pytest

from benchmarks.conftest import print_table
from repro.ir.ann import AnnIndex, ShotVectorizer
from repro.ir.ann_reference import (
    brute_force_search,
    recall_at_k,
    reference_shot_vector,
    replicate_vectors,
)
from repro.video.frames import VideoClip

#: Corpus replication factor; >= 25x is where the vectorized cell scan
#: separates from the oracle's per-row loop (same rationale as E6).
REPLICATION = 25
N_CELLS = 16
#: The serving operating point: probe 4 of 16 cells.
NPROBE = 4
#: Fusion weights used for the byte-identity check.
WEIGHTS = (0.5, 0.5)
#: Example clips for the vectorizer gate.
EXAMPLES = 16


def degraded_example(clip, start, stop, rng):
    """A query-by-example clip cut from a shot: 60-90% of it, +-8 noise."""
    keep = max(2, int((stop - start) * float(rng.uniform(0.6, 0.9))))
    offset = start + int(rng.integers(0, stop - start - keep + 1))
    block = np.stack([clip[i] for i in range(offset, offset + keep)]).astype(np.int16)
    block += rng.integers(-8, 9, size=block.shape, dtype=np.int16)
    return VideoClip(list(np.clip(block, 0, 255).astype(np.uint8)), fps=clip.fps)


@pytest.fixture(scope="module")
def ann_corpus(bench_dataset):
    """Replicated shot-vector corpus, built index and degraded queries."""
    vectorizer = ShotVectorizer()
    rng = np.random.default_rng(3)
    base, examples = [], []
    for plan in bench_dataset.video_plans[:4]:
        clip, truth = plan.materialise()
        for shot in truth.shots:
            stop = min(shot.stop, len(clip))
            if stop > shot.start:
                base.append(vectorizer.vectorize_clip(clip, shot.start, stop))
                if len(examples) < EXAMPLES:
                    examples.append(degraded_example(clip, shot.start, stop, rng))
    base = np.array(base)
    scaled = replicate_vectors(base, REPLICATION, np.random.default_rng(0))
    return {
        "vectors": scaled,
        "index": AnnIndex.build(scaled, n_cells=N_CELLS, rng=np.random.default_rng(1)),
        # Jittered copies of indexed shots: stand-ins for degraded clips.
        "queries": replicate_vectors(base[:8], 1, np.random.default_rng(7)),
        "examples": examples,
    }


def fused_ranking(ids, distances, weights=WEIGHTS):
    """Late fusion against a deterministic synthetic text score.

    Mirrors the engine's arithmetic (text weight times a per-video score
    plus ann weight times ``1 / (1 + distance)``) so byte-identity of the
    fused ranking, not just the raw neighbour list, is what is compared.
    """
    text_scores = (ids * 31 % 97) / 97.0
    fused = weights[0] * text_scores + weights[1] / (1.0 + distances)
    order = np.lexsort((ids, -fused))
    return ids[order].tolist(), fused[order].tolist()


def test_e19_brute_force(benchmark, ann_corpus):
    """Gate baseline: the oracle's full scan over every query."""
    vectors = ann_corpus["vectors"]
    queries = ann_corpus["queries"]

    def run():
        for q in queries:
            brute_force_search(vectors, q, 10)

    benchmark.pedantic(run, rounds=5, iterations=1)


def test_e19_ann_search(benchmark, ann_corpus):
    """Gate candidate: probed IVF search, plus the quality accounting."""
    vectors = ann_corpus["vectors"]
    index = ann_corpus["index"]
    queries = ann_corpus["queries"]

    def run():
        for q in queries:
            index.search(q, k=10, nprobe=NPROBE)

    benchmark.pedantic(run, rounds=5, iterations=1)

    # Recall sweep: quality as a function of cells probed.
    rows = []
    serving_recall = None
    for nprobe in (1, 2, NPROBE, 8, N_CELLS):
        recalls = []
        for q in queries:
            got_ids, _ = index.search(q, k=10, nprobe=nprobe)
            want_ids, _ = brute_force_search(vectors, q, 10)
            recalls.append(recall_at_k(got_ids, want_ids, 10))
        mean_recall = float(np.mean(recalls))
        rows.append([nprobe, f"{nprobe / N_CELLS:.2f}", f"{mean_recall:.3f}"])
        if nprobe == NPROBE:
            serving_recall = mean_recall
    print_table(
        "E19: IVF recall@10 vs cells probed",
        ["nprobe", "cell fraction", "recall@10"],
        rows,
    )

    # Full coverage must reproduce the oracle — and the fused ranking
    # built from it — byte for byte.
    fused_mismatches = 0
    for q in queries:
        got_ids, got_distances = index.search(q, k=10, nprobe=index.n_cells)
        want_ids, want_distances = brute_force_search(vectors, q, 10)
        if not (
            np.array_equal(got_ids, want_ids)
            and np.array_equal(got_distances, want_distances)
            and fused_ranking(got_ids, got_distances)
            == fused_ranking(want_ids, want_distances)
        ):
            fused_mismatches += 1

    benchmark.extra_info["recall_at_10"] = serving_recall
    benchmark.extra_info["fused_mismatches"] = fused_mismatches
    benchmark.extra_info["replication"] = REPLICATION
    benchmark.extra_info["vectors"] = len(vectors)
    assert serving_recall >= 0.9
    assert fused_mismatches == 0


def test_e19_reference_vectorize(benchmark, ann_corpus):
    """Gate baseline: per-frame shot vectors of the example clips."""
    vectorizer = ShotVectorizer()
    examples = ann_corpus["examples"]
    benchmark.pedantic(
        lambda: [reference_shot_vector(vectorizer, clip) for clip in examples],
        rounds=5,
        iterations=1,
    )


def test_e19_vectorize(benchmark, ann_corpus):
    """Gate candidate: ``vectorize_clip`` through the channel-plane shot pass.

    Every vector must equal the per-frame oracle's bit for bit.
    """
    vectorizer = ShotVectorizer()
    examples = ann_corpus["examples"]
    vectors = benchmark.pedantic(
        lambda: [vectorizer.vectorize_clip(clip) for clip in examples],
        rounds=5,
        iterations=1,
    )
    mismatches = sum(
        not np.array_equal(vector, reference_shot_vector(vectorizer, clip))
        for vector, clip in zip(vectors, examples)
    )
    benchmark.extra_info["mismatches"] = mismatches
    benchmark.extra_info["examples"] = len(examples)
    assert mismatches == 0


def test_e19_index_build_speed(benchmark, ann_corpus):
    """Timed kernel: k-means plus packed cell-list construction."""
    vectors = ann_corpus["vectors"]
    index = benchmark.pedantic(
        lambda: AnnIndex.build(vectors, n_cells=N_CELLS, rng=np.random.default_rng(1)),
        rounds=1,
        iterations=1,
    )
    assert index.n_vectors == len(vectors)
