"""Span wrappers around the program's layers, and what they add up to.

Every wrapper is installed on a public function, method or registry
hook and undone when the workload ends; nothing under ``src/`` changes.
"""

from __future__ import annotations

import os
from collections import defaultdict

import numpy as np

from perfbench.spans import Patches, Tracer, self_time_by_name, spanned

__all__ = [
    "DETECTORS",
    "SpanTable",
    "instrument_detectors",
    "instrument_ingest",
    "instrument_reads",
    "overhead_share",
    "read_layers",
]

DETECTORS = ("segment", "tennis", "shape", "rules")


def instrument_detectors(tracer: Tracer, fde) -> None:
    """One span per detector run, through the registry's own hook."""
    for name in DETECTORS:
        fde.registry.wrap(name, spanned(tracer, f"grammar.{name}"))


def instrument_ingest(tracer: Tracer, patches: Patches) -> None:
    """Tracking kernels, snapshots (with bytes written) and the journal."""
    import repro.library.indexing as indexing
    import repro.streaming.session as session
    from repro.storage.journal import IndexingJournal
    from repro.tracking.court_model import CourtColorModel
    from repro.tracking.tracker import PlayerTracker

    patches.spanned(tracer, CourtColorModel, "distance", "tracking.court_distance")
    patches.spanned(tracer, PlayerTracker, "track", "tracking.track")
    patches.spanned(tracer, IndexingJournal, "append", "storage.journal")

    def snapshot(original):
        def wrapper(model, path, *args, **kwargs):
            with tracer.span("storage.snapshot"):
                result = original(model, path, *args, **kwargs)
            tracer.count("storage.snapshot_bytes", os.path.getsize(path))
            return result

        return wrapper

    # save_model is imported by name into both callers.
    for module in (indexing, session):
        patches.replace(module, "save_model", snapshot)


class SpanTable:
    """Per-name self times and wall durations of a tracer's spans."""

    def __init__(self, tracer: Tracer):
        self.self_s = self_time_by_name(tracer.spans)
        self.walls: dict[str, list[float]] = defaultdict(list)
        for span in tracer.spans:
            self.walls[span.name].append(span.duration)

    def per_unit_ms(self, name: str, units: int) -> float:
        """Self ms of *name* per traced unit of work."""
        return self.self_s.get(name, 0.0) * 1e3 / units if units else 0.0

    def per_call_ms(self, name: str) -> float:
        walls = self.walls.get(name)
        return float(np.mean(walls)) * 1e3 if walls else 0.0

    def total_ms(self, name: str) -> float:
        return sum(self.walls.get(name, ())) * 1e3


def overhead_share(latencies, traced) -> float:
    """Median latency of traced units over untraced ones, minus one."""
    on = [x for x, t in zip(latencies, traced) if t]
    off = [x for x, t in zip(latencies, traced) if not t]
    if not on or not off:
        return 0.0
    return float(np.median(on) / np.median(off)) - 1.0


def instrument_reads(tracer, patches: Patches) -> None:
    """Spans around the single-node serving path."""
    import repro.library.engine as engine_module
    from repro.library import DigitalLibraryEngine, LibrarySearchService

    patches.spanned(tracer, LibrarySearchService, "search", "service.search")
    patches.spanned(tracer, DigitalLibraryEngine, "search", "engine.search")
    patches.spanned(tracer, engine_module, "rank_full_scan", "ir.topn")


#: QueryTrace stage -> per-layer metric.
_STAGES = {
    "concept_filter": "engine.concept_filter_ms",
    "text_topn": "engine.text_topn_ms",
    "scene_scan": "engine.scene_scan_ms",
    "sequence_match": "engine.sequence_match_ms",
    "rank_merge": "engine.rank_merge_ms",
}


def read_layers(tracer, table: SpanTable, stats, served: list) -> dict:
    """Service, engine and IR metrics of single-node reads."""
    spans = {span.span_id: span for span in tracer.spans}
    waits = [
        spans[span.parent].duration - span.duration
        for span in tracer.spans
        if span.name == "engine.search" and span.parent in spans
        and spans[span.parent].name == "service.search"
    ]
    misses = [answer for answer in served if not answer.cache_hit and answer.trace]
    layers = {
        "service.hit_rate": stats.hit_rate,
        "service.wait_ms": float(np.mean(waits)) * 1e3 if waits else 0.0,
        "service.shed": stats.shed_total,
        "ir.topn_ms": table.per_call_ms("ir.topn"),
        "ir.postings_per_miss": (
            float(np.mean([a.trace.postings_processed for a in misses])) if misses else 0.0
        ),
    }
    for stage, name in _STAGES.items():
        seconds = [a.trace.stage_seconds.get(stage, 0.0) for a in misses]
        if stage == "scene_scan":  # self time: sequence_match nests inside
            seconds = [
                s - a.trace.stage_seconds.get("sequence_match", 0.0)
                for s, a in zip(seconds, misses)
            ]
        layers[name] = float(np.mean(seconds)) * 1e3 if seconds else 0.0
    return layers
