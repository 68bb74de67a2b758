"""Ingest workloads: footage -> queryable, in batch and as streams."""

from __future__ import annotations

import itertools
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from perfbench.common import (
    Context,
    HostMonitor,
    OpenLoop,
    freeze_inputs,
    percentile,
    repeat_setup,
)
from perfbench.inputs import DATASET_ARGS, PrerenderedPlan, QueryMix, ingest_plans
from perfbench.layers import (
    DETECTORS,
    SpanTable,
    instrument_detectors,
    instrument_ingest,
    instrument_reads,
    overhead_share,
    read_layers,
)
from perfbench.spans import Patches
from repro.dataset import build_australian_open
from repro.dataset.annotations import VideoPlan
from repro.library import DigitalLibraryEngine, LibrarySearchService
from repro.library.indexing import LibraryIndexer
from repro.storage.journal import IndexingJournal
from repro.storage.persist import verify_snapshot
from repro.streaming.chunker import FrameChunk
from repro.streaming.ingest import StreamConfig
from repro.streaming.session import StreamSession

__all__ = ["run_batch", "run_stream"]

#: Videos per batch round: one snapshot + journal commit each.
BATCH_VIDEOS = 5
#: Videos indexed before the streams start (what readers see at first).
STREAM_INITIAL = 2
#: Frames per chunk.  Every chunk commit snapshots the whole model, so
#: with 12-frame chunks the two streams held the write lock for most of
#: the run's second half and the freshness median swung with host speed.
CHUNK_FRAMES = 24
#: Frames/s offered per stream: the two streams together offer about
#: half of what the parent commits at most on a 2-core box (~400
#: frames/s with both streams saturated).
STREAM_RATE = 100.0
#: Mean frames of an ingest video (``ingest_plans`` keeps them alike).
VIDEO_FRAMES = 215
#: Open-loop reads/s alongside the streams.
READ_RATE = 50.0


def video_shots(indexer, name: str) -> list[tuple[int, int, str]]:
    """(start, stop, category) of every shot of video *name*."""
    video_id = indexer.indexed[name].video_id
    return [(s.start, s.stop, s.category) for s in indexer.model.shots_of(video_id)]


def batch_reference(seed: int, plans: list[VideoPlan]) -> dict[str, list]:
    """Shots of each plan indexed in batch by a fresh indexer."""
    dataset = build_australian_open(seed=seed, **DATASET_ARGS)
    dataset.video_plans = list(plans)
    indexer = LibraryIndexer(dataset)
    out = {}
    for plan in plans:
        indexer.index_plan(plan)
        out[plan.name] = video_shots(indexer, plan.name)
    return out


class TimedJournal(IndexingJournal):
    """The program's journal, noting when each video commit landed."""

    def __init__(self, path):
        super().__init__(path)
        self.commits: list[float] = []

    def commit(self, video: str, degraded: bool = False) -> None:
        super().commit(video, degraded=degraded)
        self.commits.append(time.monotonic())


# ---------------------------------------------------------------------------
# ingest-batch


def run_batch(ctx: Context) -> dict:
    """Index pre-rendered videos with snapshot + journal, round after round.

    Each round is a fresh library indexing the same clips, so the clips
    are rendered once (in set-up) and every round's meta-index must
    come out the same.
    """

    dataset = build_australian_open(seed=ctx.seed, **DATASET_ARGS)
    chosen = ingest_plans(dataset.video_plans, np.random.default_rng([ctx.seed, 1]), BATCH_VIDEOS)
    plans, setup_times = repeat_setup(
        lambda: [PrerenderedPlan.of(plan) for plan in chosen], ctx.setups
    )
    frames_per_round = sum(len(plan.rendered[0]) for plan in plans)
    tracer = ctx.tracer
    patches = Patches()
    traced_flags: list[bool] = []
    if tracer is not None:
        instrument_ingest(tracer, patches)
        counter = itertools.count()

        def begin(original):
            def wrapper(self, plan):
                traced = next(counter) % 2 == 0
                traced_flags.append(traced)
                tracer.begin_request(len(traced_flags), traced)
                return original(self, plan)

            return wrapper

        patches.replace(LibraryIndexer, "index_plan", begin)

    freeze_inputs()
    checks = {"snapshots_verify": True, "rounds_identical": True}
    round_seconds: list[float] = []
    round_ends: list[float] = []
    latencies: list[float] = []
    commit_times: list[float] = []
    health = []
    first_shots = None
    journal_bytes = 0
    deadline = time.perf_counter() + ctx.seconds
    monitor = HostMonitor()
    try:
        with monitor:
            while not round_seconds or time.perf_counter() < deadline:
                dataset = build_australian_open(seed=ctx.seed, **DATASET_ARGS)
                dataset.video_plans = list(plans)
                indexer = LibraryIndexer(dataset)
                if tracer is not None:
                    instrument_detectors(tracer, indexer.fde)
                path = ctx.workdir / f"batch{len(round_seconds)}" / "meta.json"
                path.parent.mkdir(parents=True)
                journal = TimedJournal(path.with_name("meta.json.journal"))
                started = time.monotonic()
                indexer.index_checkpointed(path, journal=journal, workers=1)
                round_ends.append(time.monotonic())
                round_seconds.append(round_ends[-1] - started)
                latencies.extend(np.diff([started, *journal.commits]).tolist())
                commit_times.extend(journal.commits)
                health.extend(indexer.health_reports())
                journal_bytes += journal.path.stat().st_size
                checks["snapshots_verify"] &= verify_snapshot(path).ok
                shots = {plan.name: video_shots(indexer, plan.name) for plan in plans}
                if first_shots is None:
                    first_shots = shots
                checks["rounds_identical"] &= shots == first_shots
    finally:
        patches.close()

    # The hand-off control: one video rendered the ordinary way.
    control = chosen[0]
    checks["prerender_matches_materialise"] = (
        batch_reference(ctx.seed, [control])[control.name] == first_shots[control.name]
    )

    videos = len(latencies)
    frames = frames_per_round * len(round_seconds)
    latency = monitor.quiet_summary(commit_times, latencies)
    round_median = statistics.median(monitor.quiet(round_ends, round_seconds))
    result = {
        "setup_times": setup_times,
        "host": monitor.summary(),
        "e2e": {
            "throughput_per_s": frames_per_round / round_median,
            "latency_p50_ms": latency["p50_ms"],
            "latency_tail_ms": latency["tail_ms"],
        },
        "latency": latency,
        "named": {"ingest_fps": (frames_per_round / round_median, "frames/s")},
        "attempted": videos,
        "failed": sum(1 for report in health if report.degraded),
        "checks": checks,
        "properties": {
            "videos_per_round": len(plans),
            "rounds": len(round_seconds),
            "videos": videos,
            "frames": frames,
            "frames_per_video": frames_per_round / len(plans),
            "snapshots_per_round": len(plans),
            "snapshot_bytes_end": path.stat().st_size,
            "round_seconds": round_seconds,
        },
    }
    if tracer is not None:
        table = SpanTable(tracer)
        units = sum(traced_flags)
        layers = {f"grammar.{name}_ms": table.per_unit_ms(f"grammar.{name}", units)
                  for name in DETECTORS}
        outcomes = [o for report in health for o in report.outcomes.values()]
        layers["grammar.retries"] = sum(o.retries for o in outcomes)
        layers["grammar.failed"] = sum(1 for o in outcomes if o.status.value != "ok")
        layers["tracking.court_distance_ms"] = table.per_unit_ms("tracking.court_distance", units)
        layers["tracking.track_ms"] = table.per_unit_ms("tracking.track", units)
        traced_latency = sum(x for x, t in zip(latencies, traced_flags) if t)
        snapshot_bytes = tracer.counters["storage.snapshot_bytes"]
        layers.update(
            {
                "storage.snapshot_ms": table.per_call_ms("storage.snapshot"),
                "storage.snapshot_total_ms": table.total_ms("storage.snapshot") / units,
                "storage.snapshot_share": table.total_ms("storage.snapshot")
                / (traced_latency * 1e3),
                "storage.journal_ms": table.per_call_ms("storage.journal"),
                "storage.bytes_written": snapshot_bytes + journal_bytes,
                "storage.bytes_per_frame": (snapshot_bytes + journal_bytes) / frames,
                "trace.overhead_share": overhead_share(latencies, traced_flags),
            }
        )
        result["layers"] = layers
    return result


# ---------------------------------------------------------------------------
# ingest-stream


class _Applied(NamedTuple):
    """One chunk through ``StreamSession.push_chunk``."""

    arrived: float
    started: float
    finished: float
    commit: object
    traced: bool
    frames: int


@dataclass
class _StreamSetup:
    dataset: object
    service: LibrarySearchService
    plans: list[PrerenderedPlan]


def run_stream(ctx: Context) -> dict:
    """Two open-loop chunk streams plus open-loop reads, one service."""

    per_stream = max(1, round(ctx.seconds * STREAM_RATE / VIDEO_FRAMES))
    chosen = ingest_plans(
        build_australian_open(seed=ctx.seed, **DATASET_ARGS).video_plans,
        np.random.default_rng([ctx.seed, 2]),
        STREAM_INITIAL + 2 * per_stream,
    )

    def setup():
        dataset = build_australian_open(seed=ctx.seed, **DATASET_ARGS)
        plans = [PrerenderedPlan.of(plan) for plan in chosen]
        dataset.video_plans = plans
        service = LibrarySearchService(DigitalLibraryEngine(dataset), cache_size=256)
        for plan in plans[:STREAM_INITIAL]:
            service.index_plan(plan)
        return _StreamSetup(dataset, service, plans[STREAM_INITIAL:])

    state, setup_times = repeat_setup(setup, ctx.setups)
    service = state.service
    duration = sum(len(p.rendered[0]) for p in state.plans) / (2 * STREAM_RATE)
    mix = QueryMix(state.dataset, np.random.default_rng([ctx.seed, 5]))
    queries = [mix.next_query() for _ in range(int(duration * READ_RATE))]
    path = ctx.workdir / "stream" / "meta.json"
    path.parent.mkdir(parents=True)
    journal = IndexingJournal(path.with_name("meta.json.journal"))
    ingestor = service.ingestor(
        path=path, journal=journal, config=StreamConfig(queue_chunks=8, stall_deadline=60.0)
    )

    # The chunk schedule: stream s carries plans[s::2] back to back,
    # one chunk every period, the two streams half a period apart.
    period = CHUNK_FRAMES / STREAM_RATE
    items = []
    for s in (0, 1):
        j = 0
        for plan in state.plans[s::2]:
            clip = plan.rendered[0]
            for start in range(0, len(clip), CHUNK_FRAMES):
                stop = min(start + CHUNK_FRAMES, len(clip))
                items.append((s * period / 2 + j * period, plan, start, stop, stop == len(clip)))
                j += 1
    items.sort(key=lambda item: item[0])

    tracer = ctx.tracer
    patches = Patches()
    commits: list[_Applied] = []
    counter = itertools.count()

    def probe(original):
        def wrapper(self, chunk):
            started = time.monotonic()
            traced = False
            if tracer is not None:
                # Alternate within each stream, so both halves see both streams.
                traced = chunk.seq % 2 == 0
                tracer.begin_request(-1 - next(counter), traced)
            with tracer.span("streaming.push_chunk") if tracer is not None else nullcontext():
                commit = original(self, chunk)
            commits.append(
                _Applied(chunk.arrived_at, started, time.monotonic(), commit, traced, len(chunk))
            )
            return commit

        return wrapper

    patches.replace(StreamSession, "push_chunk", probe)
    if tracer is not None:
        instrument_ingest(tracer, patches)
        instrument_reads(tracer, patches)
        from repro.streaming.segmenter import StreamingSegmenter

        patches.spanned(tracer, StreamingSegmenter, "push", "streaming.segment")

    backlog_max = 0
    offered_ok = True
    read_failures = 0
    served = []

    freeze_inputs()
    t0 = time.monotonic() + 0.05

    def offer(i: int) -> None:
        nonlocal backlog_max, offered_ok
        _due, plan, start, stop, final = items[i]
        if start == 0:
            ingestor.open_stream(plan)
        clip = plan.rendered[0]
        chunk = FrameChunk(
            stream=plan.name,
            seq=start // CHUNK_FRAMES,
            start=start,
            frames=tuple(clip[k] for k in range(start, stop)),
            fps=clip.fps,
            final=final,
            arrived_at=t0 + items[i][0],
        )
        offered_ok &= ingestor.offer(chunk)
        backlog_max = max(backlog_max, ingestor.backlog(plan.name))

    read_counter = itertools.count()

    def read(i: int) -> None:
        nonlocal read_failures
        if tracer is not None:
            tracer.begin_request(i, next(read_counter) % 2 == 0)
        answer = service.search(queries[i])
        served.append(answer)
        read_failures += answer.rejected

    chunk_loop = OpenLoop("chunks", [t0 + item[0] for item in items], offer)
    read_loop = OpenLoop(
        "reads", [t0 + k / READ_RATE for k in range(len(queries))], read
    )
    monitor = HostMonitor()
    try:
        with monitor:
            chunk_loop.start()
            read_loop.start()
            chunk_loop.join(duration + 60)
            read_loop.join(duration + 60)
            drained = ingestor.drain(timeout=60.0)
    finally:
        patches.close()

    health = ingestor.health()
    sheds = sum(row.lag_sheds for row in health.values())
    committed = [c for c in commits if c.commit is not None]
    frames = sum(c.frames for c in commits)
    last_commit = max(c.finished for c in commits)
    fresh = monitor.quiet_summary(
        [c.finished for c in committed], [c.commit.freshness_seconds for c in committed]
    )
    reads = monitor.quiet_summary(read_loop.done, read_loop.latencies())

    reference = batch_reference(ctx.seed, state.plans)
    indexer = service.engine.indexer
    checks = {
        "streams_done": drained and all(row.state == "done" for row in health.values()),
        "all_chunks_offered": offered_ok,
        "streamed_equals_batch": all(
            video_shots(indexer, name) == shots for name, shots in reference.items()
        ),
        "snapshot_verifies": verify_snapshot(path).ok,
    }
    chunk_health = chunk_loop.health()
    read_health = read_loop.health()
    stats = service.stats()
    result = {
        "setup_times": setup_times,
        "e2e": {
            "throughput_per_s": frames / (last_commit - t0),
            "latency_p50_ms": fresh["p50_ms"],
            "latency_tail_ms": fresh["tail_ms"],
        },
        "host": monitor.summary(),
        "latency": fresh,
        "reads": reads,
        "named": {
            "freshness_p50_ms": (fresh["p50_ms"], "ms"),
            f"freshness_p{fresh['tail_p']:.0f}_ms": (fresh["tail_ms"], "ms"),
            "query_p50_ms": (reads["p50_ms"], "ms"),
            f"query_p{reads['tail_p']:.0f}_ms": (reads["tail_ms"], "ms"),
        },
        "attempted": len(items) + len(queries),
        "failed": sheds + read_failures,
        "checks": checks,
        "generators": {"chunks": chunk_health, "reads": read_health},
        "valid": chunk_health["valid"] and read_health["valid"],
        "properties": {
            "streams": 2,
            "videos": len(state.plans),
            "initial_videos": STREAM_INITIAL,
            "frames": frames,
            "chunks": len(items),
            "chunk_frames": CHUNK_FRAMES,
            "arrival_fps_per_stream": STREAM_RATE,
            "read_rate_per_s": READ_RATE,
            "reads": len(queries),
            "read_hit_share": stats.hit_rate,
            "snapshot_bytes_end": path.stat().st_size,
            "duration_s": items[-1][0],
        },
    }
    if tracer is not None:
        table = SpanTable(tracer)
        traced_chunks = [c for c in commits if c.traced]
        units = len(traced_chunks)
        queue_wait = [c.started - c.arrived for c in commits]
        push = [c.finished - c.started for c in commits]
        push_traced_ms = sum(c.finished - c.started for c in traced_chunks) * 1e3
        snapshot_bytes = tracer.counters["storage.snapshot_bytes"]
        written = snapshot_bytes + journal.path.stat().st_size
        layers = {
            "tracking.court_distance_ms": table.per_unit_ms("tracking.court_distance", units),
            "tracking.track_ms": table.per_unit_ms("tracking.track", units),
            "streaming.queue_wait_p50_ms": percentile(queue_wait, 50) * 1e3,
            "streaming.queue_wait_p95_ms": percentile(queue_wait, 95) * 1e3,
            "streaming.push_chunk_p50_ms": percentile(push, 50) * 1e3,
            "streaming.push_chunk_p95_ms": percentile(push, 95) * 1e3,
            "streaming.segment_ms": table.per_unit_ms("streaming.segment", units),
            "streaming.chunks": len(commits),
            "streaming.sheds": sheds,
            "streaming.backlog_max": backlog_max,
            "storage.snapshot_ms": table.per_call_ms("storage.snapshot"),
            "storage.snapshot_total_ms": table.total_ms("storage.snapshot") / units,
            "storage.snapshot_share": table.total_ms("storage.snapshot") / push_traced_ms,
            "storage.journal_ms": table.per_call_ms("storage.journal"),
            "storage.bytes_written": written,
            "storage.bytes_per_frame": written / frames,
            "trace.overhead_share": overhead_share(
                [c.finished - c.arrived for c in commits], [c.traced for c in commits]
            ),
        }
        layers.update(read_layers(tracer, table, service.stats(), served))
        result["layers"] = layers
    return result
