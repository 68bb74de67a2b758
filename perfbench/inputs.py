"""Workload inputs, generated from the workload seed.

The program only ever sees what is built here: video plans (with their
clips rendered ahead of time), query lists and example clips.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.dataset.annotations import VideoPlan
from repro.library.query import LibraryQuery
from repro.library.service import canonical_query_key
from repro.video.frames import VideoClip
from repro.video.generator import BroadcastGenerator
from repro.video.shots import CourtShotSpec

__all__ = [
    "DATASET_ARGS",
    "REPEAT_SHARE",
    "PrerenderedPlan",
    "ingest_plans",
    "QueryMix",
    "qbe_examples",
    "EVENTS",
]

#: Dataset options of every workload's library.
DATASET_ARGS = {"video_shots": 4}
EVENTS = ("rally", "net_play", "service", "baseline_play")
_SEQUENCES = (("service", "rally"), ("rally", "net_play"), ("service", "baseline_play"))
_TEXT_WORDS = (
    "net", "serve", "volley", "rally", "baseline", "crowd", "champion", "heat",
    "return", "approach", "footwork", "patience", "battle", "tempo", "press",
    "dream", "melbourne", "aggressive", "final", "semifinal", "set", "percentage",
)


@dataclass
class PrerenderedPlan(VideoPlan):
    """A video plan whose clip was rendered during set-up.

    ``materialise`` hands the program the pre-rendered clip, so the
    timed region indexes frames instead of drawing them.
    """

    rendered: tuple | None = field(default=None, repr=False, compare=False)

    @classmethod
    def of(cls, plan: VideoPlan) -> PrerenderedPlan:
        """A copy of *plan* with its clip rendered now."""
        copy = cls(
            name=plan.name,
            match_title=plan.match_title,
            n_shots=plan.n_shots,
            seed=plan.seed,
            config=plan.config,
        )
        copy.rendered = VideoPlan.materialise(copy)
        return copy

    def materialise(self):
        if self.rendered is None:
            return VideoPlan.materialise(self)
        clip, truth = self.rendered
        # A fresh clip object per call, as rendering gives: the frames
        # are shared, per-clip caches (the stacked array) are not.
        return VideoClip(list(clip), fps=clip.fps, name=clip.name), truth


#: Shape of every ingest video: shots, court shots, frames per court
#: shot and frames in all (before transitions).
INGEST_SHOTS = 4
INGEST_COURT_SHOTS = 2
INGEST_COURT_FRAMES = (48, 52)
INGEST_FRAMES = (200, 220)


def ingest_plans(base: list[VideoPlan], rng: np.random.Generator, count: int) -> list[VideoPlan]:
    """*count* plans re-seeded from *rng* (render with ``PrerenderedPlan.of``).

    The seed varies pixels, scripts, cameras and shot lengths; every
    video keeps the same number of court shots, of about the same
    length, and about the same total length, so the work per run (court
    shots are what the tracker spends its time on) does not swing with
    the seed.
    """
    court_lo, court_hi = INGEST_COURT_FRAMES
    plans = []
    for index in rng.permutation(len(base))[:count]:
        plan = base[int(index)]
        while True:
            seed = int(rng.integers(1, 2**31))
            specs = BroadcastGenerator(plan.config, seed=seed).sample_specs(INGEST_SHOTS)
            court = [spec.n_frames for spec in specs if isinstance(spec, CourtShotSpec)]
            length = sum(spec.n_frames for spec in specs)
            if (
                len(court) == INGEST_COURT_SHOTS
                and all(court_lo <= n <= court_hi for n in court)
                and INGEST_FRAMES[0] <= length <= INGEST_FRAMES[1]
            ):
                break
        plans.append(replace(plan, n_shots=INGEST_SHOTS, seed=seed))
    return plans


#: Share of requests that repeat a recent key.  A little under one half,
#: so that the median request is a miss and not on the edge between the
#: hit and miss latency modes.
REPEAT_SHARE = 0.42
#: Distinct keys a repeat is drawn from: far fewer than the caches hold.
REPEAT_WINDOW = 64


class QueryMix:
    """A seeded request stream with a set share of repeated keys.

    A request repeats one of the last ``REPEAT_WINDOW`` distinct keys
    with probability ``REPEAT_SHARE`` (a cache hit) and is otherwise a
    key never issued before.  The hit share then stays near
    ``REPEAT_SHARE`` however fast the program runs; a Zipf draw over a
    fixed pool gave ~95% hits and hid the miss path.
    """

    def __init__(self, dataset, rng: np.random.Generator, *, qbe_share: float = 0.0):
        self.rng = rng
        self.qbe_share = qbe_share
        players = dataset.players
        self._countries = sorted({p.country for p in players})
        self._names = sorted(p.name for p in players)
        self._seen: set[str] = set()
        self._recent: list[LibraryQuery] = []

    def _pick(self, options):
        return options[int(self.rng.integers(0, len(options)))]

    def _concept(self) -> dict:
        rng = self.rng
        choice = int(rng.integers(0, 6))
        if choice == 0:
            return {"gender": self._pick(("female", "male"))}
        if choice == 1:
            return {"handedness": self._pick(("left", "right"))}
        if choice == 2:
            return {"past_winner": bool(rng.integers(0, 2))}
        if choice == 3:
            return {"country": self._pick(self._countries)}
        if choice == 4:
            gender = self._pick(("female", "male"))
            return {"gender": gender, "past_winner": bool(rng.integers(0, 2))}
        return {"name": self._pick(self._names)}

    def _text(self) -> str:
        n = int(self.rng.integers(1, 4))
        return " ".join(_TEXT_WORDS[int(i)] for i in self.rng.permutation(len(_TEXT_WORDS))[:n])

    def _fresh_query(self) -> LibraryQuery:
        rng = self.rng
        kind = float(rng.random())
        top_n = int(rng.integers(1, 201))
        if kind < 0.30:
            return LibraryQuery(player=self._concept(), event=self._pick(EVENTS), top_n=top_n)
        if kind < 0.45:
            return LibraryQuery(event=self._pick(EVENTS), top_n=top_n)
        if kind < 0.65:
            player = self._concept() if rng.random() < 0.5 else {}
            return LibraryQuery(player=player, text=self._text(), top_n=top_n)
        if kind < 0.80:
            return LibraryQuery(
                sequence=self._pick(_SEQUENCES), within=int(rng.integers(50, 501)), top_n=top_n
            )
        if kind < 0.90:
            return LibraryQuery(top_n=top_n)
        return LibraryQuery(player=self._concept(), top_n=top_n)

    def next_query(self) -> LibraryQuery:
        if self._recent and self.rng.random() < REPEAT_SHARE:
            return self._recent[int(self.rng.integers(0, len(self._recent)))]
        while True:
            query = self._fresh_query()
            key = canonical_query_key(query)
            if key not in self._seen:
                break
        self._seen.add(key)
        self._recent.append(query)
        if len(self._recent) > REPEAT_WINDOW:
            self._recent.pop(0)
        return query

    def requests(self, n: int, n_examples: int = 0) -> list[tuple[str, object]]:
        """*n* requests: ``("search", query)`` or ``("qbe", example index)``."""
        out: list[tuple[str, object]] = []
        for _ in range(n):
            if n_examples and self.rng.random() < self.qbe_share:
                out.append(("qbe", int(self.rng.integers(0, n_examples))))
            else:
                out.append(("search", self.next_query()))
        return out


def qbe_examples(engine, rng: np.random.Generator, count: int) -> list[VideoClip]:
    """Degraded example clips cut from indexed shots: noise + truncation."""
    rows = engine.ann_meta
    clips = []
    cache: dict[str, object] = {}
    for index in rng.choice(len(rows), size=count, replace=len(rows) < count):
        row = rows[int(index)]
        name = row["video_name"]
        if name not in cache:
            cache[name] = engine.indexer.indexed[name].plan.materialise()[0]
        clip = cache[name]
        start, stop = int(row["start"]), int(row["stop"])
        keep = max(2, int((stop - start) * float(rng.uniform(0.6, 0.9))))
        offset = start + int(rng.integers(0, stop - start - keep + 1))
        block = np.stack([clip[i] for i in range(offset, offset + keep)]).astype(np.int16)
        block += rng.integers(-8, 9, size=block.shape, dtype=np.int16)
        frames = list(np.clip(block, 0, 255).astype(np.uint8))
        clips.append(VideoClip(frames, fps=clip.fps, name=f"example_{len(clips)}"))
    return clips
