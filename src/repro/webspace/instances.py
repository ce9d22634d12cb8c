"""The webspace object graph: typed objects + association links."""

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
    """Objects and links conforming to a :class:`WebspaceSchema`."""

    def __init__(self, schema: WebspaceSchema):
        self.schema = schema
        self._objects: dict[int, WebspaceObject] = {}
        self._by_class: dict[str, list[int]] = {}
        # association name -> source oid -> [target oids]
        self._links: dict[str, dict[int, list[int]]] = {}
        # The two access paths, maintained by create() and link() — the only
        # mutators, and nothing is ever deleted, so they never go stale.
        # (class, attribute) -> value -> [oids], creation order
        self._by_value: dict[tuple[str, str], dict[object, list[int]]] = {}
        # association name -> source oid -> order of its first link
        self._link_rank: dict[str, dict[int, int]] = {}
        # association name -> target oid -> [source oids], by link rank
        self._sources: dict[str, dict[int, list[int]]] = {}
        #: association name -> links made along it; a reader's derived
        #: path over one association is current while its count holds.
        self.link_counts: dict[str, int] = {}
        self._next_oid = 1

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
        for name, value in attributes.items():
            self._by_value.setdefault((class_name, name), {}).setdefault(value, []).append(obj.oid)
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
        targets = self._links.setdefault(association, {}).setdefault(source.oid, [])
        if not assoc.to_many and targets:
            raise SchemaViolation(
                f"association {association!r} is to-one and {source.oid} is already linked"
            )
        if target.oid in targets:
            return
        targets.append(target.oid)
        ranks = self._link_rank.setdefault(association, {})
        ranks.setdefault(source.oid, len(ranks))
        sources = self._sources.setdefault(association, {}).setdefault(target.oid, [])
        insort(sources, source.oid, key=ranks.__getitem__)
        # Counted last: a reader that sees the new count sees the link.
        self.link_counts[association] = self.link_counts.get(association, 0) + 1

    # -- navigation ----------------------------------------------------------#

    def object(self, oid: int) -> WebspaceObject:
        return self._objects[oid]

    def objects(self, class_name: str) -> list[WebspaceObject]:
        """All objects of one class, in creation order."""
        self.schema.cls(class_name)  # validates the name
        return [self._objects[oid] for oid in self._by_class.get(class_name, [])]

    def objects_where(self, class_name: str, equals: dict[str, object]) -> list[WebspaceObject]:
        """Objects of one class whose attributes ``==`` *equals*, in creation order.

        A lookup in the value index: the rarest constraint seeds the
        candidates and the others filter them, so the cost follows the
        smallest matching set, not the class.
        """
        cls = self.schema.cls(class_name)
        for name in equals:
            cls.attribute(name)  # validates the name
        if not equals:
            return self.objects(class_name)
        try:
            hits = [
                self._by_value.get((class_name, name), {}).get(value, ())
                for name, value in equals.items()
            ]
        except TypeError:  # an unhashable value equals no attribute value
            return []
        return [
            obj
            for obj in map(self._objects.__getitem__, min(hits, key=len))
            if all(obj.attributes[name] == value for name, value in equals.items())
        ]

    def follow(self, association: str, source: WebspaceObject) -> list[WebspaceObject]:
        """Objects linked from *source* along *association*."""
        self.schema.association(association)
        oids = self._links.get(association, {}).get(source.oid, [])
        return [self._objects[oid] for oid in oids]

    def sources_of(self, association: str, target: WebspaceObject) -> list[WebspaceObject]:
        """Inverse navigation: objects linking *to* target.

        A lookup in the reverse-link index; sources come in the order
        each first linked along *association* (to any target).
        """
        self.schema.association(association)
        oids = self._sources.get(association, {}).get(target.oid, [])
        return [self._objects[oid] for oid in oids]

    def counts(self) -> dict[str, int]:
        return {name: len(oids) for name, oids in sorted(self._by_class.items())}
