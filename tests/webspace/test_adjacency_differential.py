"""Differential tests of the webspace's maintained navigation structures.

The instance keeps an inverse adjacency and a version current on every
write, and :class:`PathView` indexes its rows by root.  Two suites check
them against oracles that do not use those structures:

- **Graph level.** Random ``create``/``link`` histories (duplicate
  links, to-one violations, sources that gain targets out of order).
  After every step, ``sources_of`` must equal a scan of the test's own
  record of the links, order included; every fresh view's rows and
  ``leaves_for`` must equal navigation over that record; and a view is
  ``stale`` exactly when the graph changed since its last refresh.
- **Library level.** Video commits, a stream's first chunk and a
  snapshot restore, interleaved with queries.  After every step
  ``search`` equals ``search_relational`` over a rebuilt relational
  snapshot, and cached answers equal ``bypass_cache=True`` answers.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.dataset import build_australian_open
from repro.library import DigitalLibraryEngine, LibraryQuery, LibrarySearchService
from repro.streaming.chunker import iter_chunks
from repro.streaming.session import StreamSession
from repro.webspace.instances import WebspaceInstance
from repro.webspace.schema import SchemaViolation, WebspaceSchema
from repro.webspace.views import PathView

# -- graph level ---------------------------------------------------------------

CLASSES = ("A", "B", "C")
#: association -> (source class, target class, to_many)
ASSOCIATIONS = {
    "ab": ("A", "B", True),
    "bc": ("B", "C", True),
    "best": ("A", "B", False),
    "ca": ("C", "A", True),
}
VIEW_PATHS = (
    ("A", ("ab",)),
    ("A", ("ab", "bc")),
    ("A", ("best", "bc")),
    ("C", ("ca", "ab", "bc")),
)

step = st.one_of(
    st.tuples(st.just("create"), st.sampled_from(CLASSES)),
    st.tuples(
        st.just("link"),
        st.sampled_from(sorted(ASSOCIATIONS)),
        st.integers(0, 4),
        st.integers(0, 4),
    ),
    st.tuples(st.just("refresh"), st.integers(0, len(VIEW_PATHS) - 1)),
)


def _schema() -> WebspaceSchema:
    schema = WebspaceSchema("graph")
    for name in CLASSES:
        schema.add_class(name, name="str")
    for name, (source, target, to_many) in ASSOCIATIONS.items():
        schema.add_association(name, source, target, to_many=to_many)
    return schema


class _Oracle:
    """The links as the test recorded them: source -> targets, with
    sources in the order of their first link (a scan's order)."""

    def __init__(self) -> None:
        self.objects: dict[str, list[int]] = {name: [] for name in CLASSES}
        self.links: dict[str, dict[int, list[int]]] = {name: {} for name in ASSOCIATIONS}

    def scan_sources(self, association: str, target: int) -> list[int]:
        return [s for s, targets in self.links[association].items() if target in targets]

    def rows(self, root_class: str, path) -> list[tuple[int, ...]]:
        rows = [(oid,) for oid in self.objects[root_class]]
        for name in path:
            rows = [row + (t,) for row in rows for t in self.links[name].get(row[-1], [])]
        return rows


def _oids(objects) -> list[int]:
    return [obj.oid for obj in objects]


def _check(instance: WebspaceInstance, oracle: _Oracle, views, dirty) -> None:
    for name, (source, target, _to_many) in ASSOCIATIONS.items():
        for oid in oracle.objects[source]:
            want = oracle.links[name].get(oid, [])
            assert _oids(instance.follow(name, instance.object(oid))) == want
        for oid in oracle.objects[target]:
            got = _oids(instance.sources_of(name, instance.object(oid)))
            assert got == oracle.scan_sources(name, oid), (name, oid)
    for view, (root_class, path), is_dirty in zip(views, VIEW_PATHS, dirty):
        assert view.stale == is_dirty
        if is_dirty:
            continue
        want = oracle.rows(root_class, path)
        assert [tuple(_oids(row)) for row in view.rows()] == want
        for root in oracle.objects[root_class]:
            leaves = list(dict.fromkeys(row[-1] for row in want if row[0] == root))
            assert _oids(view.leaves_for(instance.object(root))) == leaves


@settings(max_examples=300, deadline=None)
@given(st.lists(step, max_size=40))
@example(  # a source gains its link to a target after a later source did
    [
        ("create", "A"), ("create", "A"), ("create", "B"), ("create", "B"),
        ("link", "ab", 1, 0), ("link", "ab", 0, 1), ("link", "ab", 1, 1),
        ("link", "ab", 1, 1),
    ]
)
def test_navigation_matches_the_link_record(history):
    instance = WebspaceInstance(_schema())
    oracle = _Oracle()
    views = [PathView(instance, root, list(path)) for root, path in VIEW_PATHS]
    dirty = [False] * len(views)
    _check(instance, oracle, views, dirty)
    for op in history:
        changed = False
        if op[0] == "create":
            obj = instance.create(op[1], name=f"{op[1]}{len(oracle.objects[op[1]])}")
            oracle.objects[op[1]].append(obj.oid)
            changed = True
        elif op[0] == "link":
            name, i, j = op[1:]
            source_class, target_class, to_many = ASSOCIATIONS[name]
            sources, targets = oracle.objects[source_class], oracle.objects[target_class]
            if not sources or not targets:
                continue
            source, target = sources[i % len(sources)], targets[j % len(targets)]
            linked = oracle.links[name].get(source)
            version = instance.version
            if linked and not to_many:
                try:
                    instance.link(name, instance.object(source), instance.object(target))
                except SchemaViolation:
                    pass
                else:
                    raise AssertionError("a second to-one link was accepted")
                assert instance.version == version
            else:
                instance.link(name, instance.object(source), instance.object(target))
                record = oracle.links[name].setdefault(source, [])
                if target not in record:
                    record.append(target)
                    changed = True
                assert instance.version > version if changed else instance.version == version
        else:
            views[op[1]].refresh()
            dirty[op[1]] = False
        if changed:
            dirty = [True] * len(views)
        _check(instance, oracle, views, dirty)


# -- library level -------------------------------------------------------------

EVENTS = ("rally", "net_play", "service", "baseline_play")

queries = st.builds(
    LibraryQuery,
    player=st.dictionaries(
        st.sampled_from(("gender", "handedness", "past_winner")),
        st.sampled_from(("male", "female", "left", "right", True, False)),
        max_size=2,
    ),
    event=st.one_of(st.none(), st.sampled_from(EVENTS)),
    text=st.one_of(st.none(), st.sampled_from(("approach the net", "straight sets"))),
    top_n=st.sampled_from((1, 5, 50)),
)

library_step = st.one_of(
    st.just(("index",)),
    st.just(("stream",)),
    st.just(("restore",)),
    st.tuples(st.just("query"), st.lists(queries, min_size=1, max_size=3)),
)


class _Library:
    """One dataset, engine and service; ``restore`` swaps in a new pair."""

    SEED = 5

    def __init__(self) -> None:
        self.dataset = build_australian_open(seed=self.SEED, video_shots=2)
        self.engine = DigitalLibraryEngine(self.dataset)
        self.service = LibrarySearchService(self.engine, cache_size=64)

    def _next_plan(self):
        return next(
            plan
            for plan in self.dataset.video_plans
            if plan.name not in self.engine.indexer.indexed
        )

    def apply(self, op) -> None:
        if op[0] == "index":
            self.service.index_plan(self._next_plan())
        elif op[0] == "stream":
            plan = self._next_plan()
            clip, _truth = plan.materialise()
            session = StreamSession(
                self.engine.indexer, plan, commit_lock=self.service.write
            )
            session.push_chunk(next(iter_chunks(clip, 32, stream=session.name, fps=clip.fps)))
        elif op[0] == "restore":
            model = self.engine.indexer.model
            self.dataset = build_australian_open(seed=self.SEED, video_shots=2)
            self.engine = DigitalLibraryEngine(self.dataset)
            self.engine.indexer.restore(model)
            self.service = LibrarySearchService(self.engine, cache_size=64)

    def check(self, probe: list[LibraryQuery]) -> None:
        engine = self.engine
        instance = self.dataset.instance
        players = instance.objects("Player")
        walked: dict[str, set[str]] = {}
        for player in players:
            for match in instance.follow("played", player):
                for video in instance.follow("recorded_in", match):
                    walked.setdefault(video.get("name"), set()).add(player.get("name"))
        got = engine.videos_of_players(players)
        assert got == walked and list(got) == list(walked)
        engine.build_relational()
        for query in probe:
            assert engine.search(query) == engine.search_relational(query), query
            self.service.search(query)
            cached = self.service.search(query)
            assert cached.cache_hit
            assert cached.results == self.service.search(query, bypass_cache=True).results


PROBE = [
    LibraryQuery(),
    LibraryQuery(player={"gender": "female"}, event="rally"),
    LibraryQuery(player={"past_winner": True}, text="approach the net"),
]


@settings(max_examples=6, deadline=None)
@given(st.lists(library_step, min_size=1, max_size=5))
@example([("stream",), ("index",), ("restore",), ("index",)])
def test_search_matches_relational_across_writes(history):
    library = _Library()
    library.check(PROBE)
    for op in history:
        library.apply(op)
        library.check(op[1] if op[0] == "query" else PROBE)
