"""What the benchmark measures: workloads, metrics and the layer map.

This module is the single source of ``BENCHMARK.json`` (written by
``python3 perfbench/run.py --write-manifest``).  ``BENCHMARK.json``
holds exactly the keys its format allows, so the map from each layer
metric to the end-to-end metric and workload it should move lives here
(``LAYER_MAP``) and is printed in every traced report.

The end-to-end metrics are the same five on every workload, so every
run reports every one of them; what the latency and throughput are *of*
depends on the workload (``UNITS_OF_WORK``).
"""

from __future__ import annotations

import re

__all__ = [
    "COMMAND",
    "RUN_SECONDS",
    "WORKLOADS",
    "EXTRA_WORKLOADS",
    "TRACED_PHASES",
    "END_TO_END",
    "PER_LAYER",
    "LAYER_MAP",
    "UNITS_OF_WORK",
    "NAME_PATTERN",
    "manifest",
]

COMMAND = ["python3", "perfbench/run.py"]
RUN_SECONDS = 15

#: name -> why the workload exists (one line each).  These are the
#: workloads in BENCHMARK.json.
WORKLOADS = {
    "ingest-batch": (
        "pre-rendered videos indexed and committed one by one (snapshot + journal); "
        "tracker and kernel changes show here, serving changes do not"
    ),
    "query-local": (
        "two closed-loop clients on a concept/event/text/sequence mix with ~5% "
        "query-by-example and ~42% cache hits; engine, IR and ANN stages do the work"
    ),
}

#: Workloads run by hand, and as a shorter phase of a traced run of the
#: workload named in ``TRACED_PHASES``.  Their open-loop latencies swung
#: with the host's steal time by more than any bound the manifest allows
#: (freshness median 25-49 ms, sharded p99 2.5-4.9 ms over ten runs), so
#: they are not end-to-end workloads of BENCHMARK.json.
EXTRA_WORKLOADS = {
    "ingest-stream": (
        "two open-loop chunk streams with paced reads; per-chunk whole-model snapshots "
        "and cache invalidation make storage and streaming dominate and reads meet writes"
    ),
    "query-sharded": (
        "the non-QBE mix open-loop through a 2-shard scatter-gather coordinator; "
        "measures the fan-out, IPC and merge layer the local service skips"
    ),
}

#: workload -> (phase workload, layer-metric prefixes the phase reports).
#: A traced run of the workload also runs the phase for a third of the
#: time, so every layer is measured on a workload of the manifest.
TRACED_PHASES = {
    "ingest-batch": ("ingest-stream", ("streaming.", "storage.", "service.")),
    "query-local": ("query-sharded", ("sharding.",)),
}

#: What one unit of work is, per workload: throughput counts these per
#: second and the latencies are per unit.
UNITS_OF_WORK = {
    "ingest-batch": "throughput = frames/s made queryable; latency = per-video index+commit",
    "ingest-stream": "throughput = frames/s committed; latency = chunk freshness "
    "(scheduled arrival -> commit)",
    "query-local": "throughput = completed requests/s (QBE included); latency = search "
    "requests (QBE reported per layer)",
    "query-sharded": "throughput = completed queries/s; latency = from each request's due time",
}

#: (name, unit, better, bound, what)
END_TO_END = [
    ("throughput_per_s", "1/s", "higher", 0.25, "units of work completed per second"),
    ("latency_p50_ms", "ms", "lower", 0.25, "median latency of a unit of work"),
    (
        "latency_tail_ms",
        "ms",
        "lower",
        0.25,
        "highest of p99/p95/p90/p75 with >= 10 samples beyond, median over blocks",
    ),
    ("peak_rss_mb", "MB", "lower", 0.1, "peak RSS of the process plus its largest child"),
    ("setup_s", "s", "lower", 0.25, "import + median of repeated dataset/render/index setups"),
]

_BATCH = "throughput_per_s@ingest-batch"
_STREAM_P50 = "latency_p50_ms@ingest-stream"
_STREAM_TAIL = "latency_tail_ms@ingest-stream"
_LOCAL_P50 = "latency_p50_ms@query-local"
_LOCAL_TAIL = "latency_tail_ms@query-local"
_LOCAL_QPS = "throughput_per_s@query-local"
_SHARDED_TAIL = "latency_tail_ms@query-sharded"

#: (name, unit, better, moves, what).  Time metrics are self times
#: (span minus child spans) from traced requests only.
PER_LAYER = [
    # repro.grammar: detector DAG, one span per detector run.
    ("grammar.segment_ms", "ms", "lower", _BATCH, "segment detector self ms per traced video"),
    ("grammar.tennis_ms", "ms", "lower", _BATCH, "tennis detector self ms per traced video"),
    ("grammar.shape_ms", "ms", "lower", _BATCH, "shape detector self ms per traced video"),
    ("grammar.rules_ms", "ms", "lower", _BATCH, "rules detector self ms per traced video"),
    ("grammar.retries", "count", "lower", "failed@ingest-batch", "DetectorOutcome retries"),
    ("grammar.failed", "count", "lower", "failed@ingest-batch", "DetectorOutcome not ok"),
    # repro.tracking
    (
        "tracking.court_distance_ms",
        "ms",
        "lower",
        _BATCH + "," + _STREAM_TAIL,
        "CourtColorModel.distance self ms per traced video or chunk",
    ),
    (
        "tracking.track_ms",
        "ms",
        "lower",
        _BATCH + "," + _STREAM_TAIL,
        "PlayerTracker.track self ms per traced video or chunk",
    ),
    # repro.streaming
    (
        "streaming.queue_wait_p50_ms",
        "ms",
        "lower",
        _STREAM_P50,
        "chunk arrived_at -> StreamSession.push_chunk start, median",
    ),
    (
        "streaming.queue_wait_p95_ms",
        "ms",
        "lower",
        _STREAM_TAIL,
        "chunk arrived_at -> StreamSession.push_chunk start, p95",
    ),
    ("streaming.push_chunk_p50_ms", "ms", "lower", _STREAM_P50, "push_chunk wall ms, median"),
    ("streaming.push_chunk_p95_ms", "ms", "lower", _STREAM_TAIL, "push_chunk wall ms, p95"),
    (
        "streaming.segment_ms",
        "ms",
        "lower",
        _STREAM_P50,
        "StreamingSegmenter.push self ms per traced chunk",
    ),
    ("streaming.chunks", "count", "higher", _STREAM_P50, "chunks committed"),
    ("streaming.sheds", "count", "lower", "failed@ingest-stream", "chunks shed (lag_sheds)"),
    (
        "streaming.backlog_max",
        "count",
        "lower",
        _STREAM_TAIL,
        "largest per-stream queue depth seen at an offer",
    ),
    # repro.storage / persistence
    (
        "storage.snapshot_ms",
        "ms",
        "lower",
        _STREAM_TAIL + "," + _BATCH,
        "save_model ms per traced call",
    ),
    (
        "storage.snapshot_total_ms",
        "ms",
        "lower",
        _STREAM_TAIL + "," + _BATCH,
        "save_model ms per traced unit of work",
    ),
    (
        "storage.snapshot_share",
        "ratio",
        "lower",
        _STREAM_TAIL,
        "save_model time / push_chunk (stream) or per-video commit (batch) time",
    ),
    ("storage.journal_ms", "ms", "lower", _STREAM_TAIL, "IndexingJournal.append ms per call"),
    ("storage.bytes_written", "B", "lower", _STREAM_TAIL, "snapshot + journal bytes written"),
    (
        "storage.bytes_per_frame",
        "B/frame",
        "lower",
        _STREAM_TAIL,
        "bytes written / frames ingested (write amplification)",
    ),
    # repro.library.service
    ("service.hit_rate", "ratio", "higher", _LOCAL_P50, "LibrarySearchService.stats().hit_rate"),
    (
        "service.wait_ms",
        "ms",
        "lower",
        "latency_tail_ms@ingest-stream",
        "service.search minus engine.search on misses, mean (lock/admission wait)",
    ),
    ("service.shed", "count", "lower", "failed@ingest-stream", "requests shed by the service"),
    # repro.library.engine (QueryTrace stages, per miss)
    ("engine.concept_filter_ms", "ms", "lower", _LOCAL_P50, "concept_filter stage per miss"),
    ("engine.text_topn_ms", "ms", "lower", _LOCAL_TAIL, "text_topn stage self ms per miss"),
    ("engine.scene_scan_ms", "ms", "lower", _LOCAL_P50, "scene_scan self ms per miss"),
    ("engine.sequence_match_ms", "ms", "lower", _LOCAL_TAIL, "sequence_match stage per miss"),
    ("engine.rank_merge_ms", "ms", "lower", _LOCAL_P50, "rank_merge stage per miss"),
    ("engine.search_like_ms", "ms", "lower", _LOCAL_QPS, "DigitalLibraryEngine.search_like"),
    # query by example, end to end (QBE is ~5% of the query-local mix)
    ("qbe.p50_ms", "ms", "lower", _LOCAL_QPS, "query-by-example latency, median"),
    ("qbe.tail_ms", "ms", "lower", _LOCAL_QPS, "query-by-example latency, tail"),
    (
        "qbe.recall_at_10",
        "ratio",
        "higher",
        _LOCAL_QPS,
        "recall@10 at the serving nprobe against brute_force_search",
    ),
    # repro.ir
    ("ir.topn_ms", "ms", "lower", _LOCAL_TAIL, "text ranking (rank_full_scan) ms per call"),
    ("ir.postings_per_miss", "count", "lower", _LOCAL_TAIL, "postings scored per miss"),
    ("ir.vectorize_ms", "ms", "lower", _LOCAL_QPS, "ShotVectorizer.vectorize_clip per QBE"),
    ("ir.ann_search_ms", "ms", "lower", _LOCAL_QPS, "AnnIndex.search ms per call"),
    (
        "ir.ann_candidates_per_query",
        "count",
        "lower",
        _LOCAL_QPS,
        "vectors in the probed IVF cells per search",
    ),
    # repro.library.sharding
    (
        "sharding.coordinator_ms",
        "ms",
        "lower",
        _SHARDED_TAIL,
        "ShardedSearchService.search ms on misses, mean",
    ),
    ("sharding.merge_ms", "ms", "lower", _SHARDED_TAIL, "merge_scene_results ms per call"),
    ("sharding.hit_rate", "ratio", "higher", _SHARDED_TAIL, "coordinator cache hit share"),
    ("sharding.hedges_per_query", "ratio", "lower", _SHARDED_TAIL, "hedge re-issues per query"),
    ("sharding.failovers", "count", "lower", _SHARDED_TAIL, "replica failovers"),
    ("sharding.partial_share", "ratio", "lower", "failed@query-sharded", "partial answers"),
    # the traced run itself
    (
        "trace.overhead_share",
        "ratio",
        "lower",
        "all",
        "median latency of traced units / untraced units - 1",
    ),
]

LAYER_MAP = {name: moves for name, _unit, _better, moves, _what in PER_LAYER}

#: Metric names: what the manifest format accepts, and no more.
NAME_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def manifest() -> dict:
    """The ``BENCHMARK.json`` document."""
    return {
        "command": list(COMMAND),
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound, _what in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better, _moves, _what in PER_LAYER
        ],
    }
