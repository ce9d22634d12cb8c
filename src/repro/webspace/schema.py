"""Webspace schema: classes, attributes, associations.

The schema plays the role of the conceptual model the webspace method
recovers for a site: what concepts exist, what they record, and how they
connect.  Instances are validated against it, so the "hidden semantical
structure" of the site is explicit and queryable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["AttributeDef", "AssociationDef", "ClassDef", "WebspaceSchema", "SchemaViolation"]

_ATTRIBUTE_TYPES = ("str", "int", "float", "bool")


class SchemaViolation(ValueError):
    """Raised when instances or queries do not fit the schema."""


@dataclass(frozen=True)
class AttributeDef:
    """One attribute of a concept class."""

    name: str
    type_name: str

    def __post_init__(self) -> None:
        if self.type_name not in _ATTRIBUTE_TYPES:
            raise SchemaViolation(
                f"attribute {self.name!r}: unknown type {self.type_name!r}"
            )

    def check(self, value) -> None:
        expected = {"str": str, "int": int, "float": (int, float), "bool": bool}[
            self.type_name
        ]
        if self.type_name in ("int", "bool") and isinstance(value, bool) != (
            self.type_name == "bool"
        ):
            raise SchemaViolation(
                f"attribute {self.name!r} expects {self.type_name}, got {value!r}"
            )
        if not isinstance(value, expected):
            raise SchemaViolation(
                f"attribute {self.name!r} expects {self.type_name}, got {value!r}"
            )


@dataclass(frozen=True)
class AssociationDef:
    """A named, directed association between two classes.

    Attributes:
        name: association name (navigation key).
        source: source class name.
        target: target class name.
        to_many: True for one-to-many (default), False for one-to-one.
    """

    name: str
    source: str
    target: str
    to_many: bool = True


@dataclass
class ClassDef:
    """A concept class: named attributes in declaration order."""

    name: str
    attributes: list[AttributeDef] = field(default_factory=list)

    def attribute(self, name: str) -> AttributeDef:
        for attr in self.attributes:
            if attr.name == name:
                return attr
        raise SchemaViolation(f"class {self.name!r} has no attribute {name!r}")

    @property
    def attribute_names(self) -> list[str]:
        return [a.name for a in self.attributes]


class WebspaceSchema:
    """The schema of one webspace (one modelled site)."""

    def __init__(self, name: str):
        self.name = name
        self._classes: dict[str, ClassDef] = {}
        self._associations: dict[str, AssociationDef] = {}

    # -- construction ----------------------------------------------------- #

    def add_class(self, class_name: str, **attributes: str) -> ClassDef:
        """Declare a class with ``attribute=type`` keyword pairs.

        The class name is positional so an attribute may itself be
        called ``name`` (players have one).
        """
        if class_name in self._classes:
            raise SchemaViolation(f"class {class_name!r} already declared")
        cls = ClassDef(
            name=class_name,
            attributes=[AttributeDef(a, t) for a, t in attributes.items()],
        )
        self._classes[class_name] = cls
        return cls

    def add_association(
        self, name: str, source: str, target: str, to_many: bool = True
    ) -> AssociationDef:
        """Declare a directed association; both classes must exist."""
        if name in self._associations:
            raise SchemaViolation(f"association {name!r} already declared")
        for cls in (source, target):
            if cls not in self._classes:
                raise SchemaViolation(f"association {name!r}: unknown class {cls!r}")
        assoc = AssociationDef(name=name, source=source, target=target, to_many=to_many)
        self._associations[name] = assoc
        return assoc

    # -- lookup ------------------------------------------------------------#

    def cls(self, name: str) -> ClassDef:
        if name not in self._classes:
            raise SchemaViolation(f"unknown class {name!r}")
        return self._classes[name]

    def association(self, name: str) -> AssociationDef:
        if name not in self._associations:
            raise SchemaViolation(f"unknown association {name!r}")
        return self._associations[name]

    @property
    def class_names(self) -> list[str]:
        return sorted(self._classes)

    @property
    def association_names(self) -> list[str]:
        return sorted(self._associations)
