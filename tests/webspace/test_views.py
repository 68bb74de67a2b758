"""Materialised view tests."""

import pytest

from repro.dataset import build_australian_open
from repro.webspace.views import PathView
from repro.webspace.schema import SchemaViolation


class TestPathView:
    def test_rows_match_manual_navigation(self, dataset):
        view = PathView(dataset.instance, "Player", ["won"])
        manual = 0
        for player in dataset.instance.objects("Player"):
            manual += len(dataset.instance.follow("won", player))
        assert len(view.rows()) == manual
        assert view.leaf_class == "Match"

    def test_select_by_root(self, dataset):
        champion = next(p for p in dataset.players if p.titles > 0)
        view = PathView(dataset.instance, "Player", ["won"])
        rows = view.select(name=champion.name)
        assert rows
        assert all(r[0].get("name") == champion.name for r in rows)

    def test_leaves_for(self, dataset):
        champion = next(p for p in dataset.players if p.titles > 0)
        root = dataset.player_objects[champion.name]
        view = PathView(dataset.instance, "Player", ["won"])
        leaves = view.leaves_for(root)
        assert len(leaves) >= champion.titles

    def test_invalid_path(self, dataset):
        with pytest.raises(SchemaViolation):
            PathView(dataset.instance, "Player", ["recorded_in"])

    def test_staleness(self, dataset):
        view = PathView(dataset.instance, "Player", ["won"])
        assert not view.stale

    def test_link_between_existing_objects_makes_view_stale(self):
        # A private dataset: the session fixture is shared and must not
        # gain links.
        dataset = build_australian_open(seed=7, video_shots=2)
        instance = dataset.instance
        champion = next(p for p in dataset.players if p.titles > 0)
        root = dataset.player_objects[champion.name]
        view = PathView(instance, "Player", ["won"])
        won = {m.oid for m in instance.follow("won", root)}
        lost = next(m for m in instance.objects("Match") if m.oid not in won)

        instance.link("won", root, lost)  # no object is created

        assert view.stale
        view.refresh()
        assert not view.stale
        assert [m.oid for m in view.leaves_for(root)] == [
            m.oid for m in instance.follow("won", root)
        ]
