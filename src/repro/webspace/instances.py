"""The webspace object graph: typed objects + association links.

Navigation in both directions is a lookup: ``link`` keeps the forward
adjacency and an inverse adjacency current, and bumps the instance's
monotone :attr:`WebspaceInstance.version`, which materialised views
(:class:`~repro.webspace.views.PathView`) compare to tell when they
are stale.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field

from repro.webspace.schema import SchemaViolation, WebspaceSchema

__all__ = ["WebspaceObject", "WebspaceInstance"]


@dataclass(frozen=True)
class WebspaceObject:
    """One instance of a schema class.

    Attributes:
        oid: instance-wide object id.
        class_name: the schema class.
        attributes: attribute name -> value, validated against the schema.
    """

    oid: int
    class_name: str
    attributes: dict[str, object] = field(default_factory=dict)

    def get(self, name: str):
        if name not in self.attributes:
            raise KeyError(f"object {self.oid} ({self.class_name}) has no {name!r}")
        return self.attributes[name]


class WebspaceInstance:
    """Objects and links conforming to a :class:`WebspaceSchema`.

    Attributes:
        version: bumped by every ``create`` and by every ``link`` that
            adds a link; unchanged by a duplicate link.
    """

    def __init__(self, schema: WebspaceSchema):
        self.schema = schema
        self._objects: dict[int, WebspaceObject] = {}
        self._by_class: dict[str, list[int]] = {}
        # association name -> source oid -> [target oids]; a source's
        # position in the inner dict is the rank of its first link.
        self._links: dict[str, dict[int, list[int]]] = {}
        # association name -> source oid -> that rank
        self._ranks: dict[str, dict[int, int]] = {}
        # association name -> target oid -> [source oids], by rank
        self._inverse: dict[str, dict[int, list[int]]] = {}
        self._next_oid = 1
        self.version = 0

    # -- population --------------------------------------------------------#

    def create(self, class_name: str, **attributes) -> WebspaceObject:
        """Create a validated object of *class_name*."""
        cls = self.schema.cls(class_name)
        unknown = set(attributes) - set(cls.attribute_names)
        if unknown:
            raise SchemaViolation(
                f"class {class_name!r} has no attributes {sorted(unknown)}"
            )
        missing = set(cls.attribute_names) - set(attributes)
        if missing:
            raise SchemaViolation(
                f"object of {class_name!r} missing attributes {sorted(missing)}"
            )
        for name, value in attributes.items():
            cls.attribute(name).check(value)
        obj = WebspaceObject(
            oid=self._next_oid, class_name=class_name, attributes=dict(attributes)
        )
        self._next_oid += 1
        self._objects[obj.oid] = obj
        self._by_class.setdefault(class_name, []).append(obj.oid)
        self.version += 1
        return obj

    def link(self, association: str, source: WebspaceObject, target: WebspaceObject) -> None:
        """Connect two objects along a declared association."""
        assoc = self.schema.association(association)
        if source.class_name != assoc.source:
            raise SchemaViolation(
                f"association {association!r} starts at {assoc.source!r}, "
                f"not {source.class_name!r}"
            )
        if target.class_name != assoc.target:
            raise SchemaViolation(
                f"association {association!r} ends at {assoc.target!r}, "
                f"not {target.class_name!r}"
            )
        by_source = self._links.setdefault(association, {})
        targets = by_source.get(source.oid)
        if targets is None:
            targets = by_source[source.oid] = []
            ranks = self._ranks.setdefault(association, {})
            ranks[source.oid] = len(ranks)
        elif not assoc.to_many:
            raise SchemaViolation(
                f"association {association!r} is to-one and {source.oid} is already linked"
            )
        if target.oid in targets:
            return
        targets.append(target.oid)
        ranks = self._ranks[association]
        sources = self._inverse.setdefault(association, {}).setdefault(target.oid, [])
        if sources and ranks[sources[-1]] > ranks[source.oid]:
            # The source was first linked before a source already
            # listed: keep the list in first-link order.
            insort(sources, source.oid, key=ranks.__getitem__)
        else:
            sources.append(source.oid)
        self.version += 1

    # -- navigation ----------------------------------------------------------#

    def object(self, oid: int) -> WebspaceObject:
        return self._objects[oid]

    def objects(self, class_name: str) -> list[WebspaceObject]:
        """All objects of one class, in creation order."""
        self.schema.cls(class_name)  # validates the name
        return [self._objects[oid] for oid in self._by_class.get(class_name, [])]

    def follow(self, association: str, source: WebspaceObject) -> list[WebspaceObject]:
        """Objects linked from *source* along *association*."""
        self.schema.association(association)
        oids = self._links.get(association, {}).get(source.oid, [])
        return [self._objects[oid] for oid in oids]

    def sources_of(self, association: str, target: WebspaceObject) -> list[WebspaceObject]:
        """Inverse navigation: objects linking *to* target.

        Sources come in the order of their first link along the
        association, whichever target that link went to.
        """
        self.schema.association(association)
        oids = self._inverse.get(association, {}).get(target.oid, [])
        return [self._objects[oid] for oid in oids]

    def counts(self) -> dict[str, int]:
        return {name: len(oids) for name, oids in sorted(self._by_class.items())}
