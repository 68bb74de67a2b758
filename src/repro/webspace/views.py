"""Materialised association-path views.

The webspace engine materialises frequently-navigated association paths
(e.g. Player -> Match -> Video) into flat binding tables, so conceptual
queries over long paths do not re-walk the object graph.  Views are
rebuilt explicitly; a view is stale exactly when the instance's
``version`` has moved since its last refresh.  A refresh builds the
rows and the per-root index aside and publishes them with one
assignment, so a concurrent reader sees either the old view or the new
one, never half of one.
"""

from __future__ import annotations

from repro.webspace.instances import WebspaceInstance, WebspaceObject
from repro.webspace.schema import SchemaViolation

__all__ = ["PathView"]


class PathView:
    """A materialised view over an association path.

    Args:
        instance: the webspace instance.
        root_class: the path's first class.
        path: ordered association names to follow from the root.
    """

    def __init__(self, instance: WebspaceInstance, root_class: str, path: list[str]):
        self.instance = instance
        self.root_class = root_class
        self.path = list(path)
        self._validate()
        # (instance version, rows, root oid -> distinct leaves)
        self._built: tuple[int, list, dict] = (-1, [], {})
        self.refresh()

    def _validate(self) -> None:
        schema = self.instance.schema
        current = self.root_class
        schema.cls(current)
        for name in self.path:
            assoc = schema.association(name)
            if assoc.source != current:
                raise SchemaViolation(
                    f"path step {name!r} does not start at {current!r}"
                )
            current = assoc.target
        self.leaf_class = current

    def refresh(self) -> None:
        """Rebuild the view from the current instance contents."""
        version = self.instance.version
        rows: list[tuple[WebspaceObject, ...]] = [
            (obj,) for obj in self.instance.objects(self.root_class)
        ]
        for name in self.path:
            rows = [
                row + (target,)
                for row in rows
                for target in self.instance.follow(name, row[-1])
            ]
        leaves: dict[int, dict[int, WebspaceObject]] = {}
        for row in rows:
            leaves.setdefault(row[0].oid, {}).setdefault(row[-1].oid, row[-1])
        self._built = (
            version, rows, {oid: list(seen.values()) for oid, seen in leaves.items()}
        )

    @property
    def stale(self) -> bool:
        """True when the instance changed since the last refresh."""
        return self.instance.version != self._built[0]

    def rows(self) -> list[tuple[WebspaceObject, ...]]:
        """The binding tuples (root, ..., leaf)."""
        return list(self._built[1])

    def select(self, **root_equals) -> list[tuple[WebspaceObject, ...]]:
        """Rows whose root object matches the attribute equalities."""
        out = []
        for row in self._built[1]:
            root = row[0]
            if all(root.get(k) == v for k, v in root_equals.items()):
                out.append(row)
        return out

    def leaves_for(self, root: WebspaceObject) -> list[WebspaceObject]:
        """Distinct leaf objects reachable from *root* along the path."""
        return list(self._built[2].get(root.oid, ()))
