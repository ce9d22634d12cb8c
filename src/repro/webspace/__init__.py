"""The webspace method: conceptual modelling of a limited-domain site.

Contribution (3) of the paper: "for a more limited domain, like an
Intranet, conceptual modeling can offer additional and more powerful
query facilities" — the webspace method of van Zwol & Apers (CIKM 2000).

A *webspace schema* describes the concepts of the site (players,
matches, videos...), their attributes and associations.  Instances form
an object graph; HTML pages are a *lossy rendering* of that graph ("some
semantic concepts ... are lost due to the translation of the source data
into HTML"), which is why keyword search underperforms conceptual
queries — the effect the E7 benchmark measures.

- :mod:`repro.webspace.schema` — classes, attributes, associations,
- :mod:`repro.webspace.instances` — the webspace object graph,
- :mod:`repro.webspace.query` — conceptual query evaluation,
- :mod:`repro.webspace.html` — the lossy HTML rendering.
"""

from repro.webspace.schema import (
    WebspaceSchema,
    ClassDef,
    AttributeDef,
    AssociationDef,
    SchemaViolation,
)
from repro.webspace.instances import WebspaceObject, WebspaceInstance
from repro.webspace.query import ConceptQuery, Condition
from repro.webspace.html import render_page, page_text

__all__ = [
    "WebspaceSchema",
    "ClassDef",
    "AttributeDef",
    "AssociationDef",
    "SchemaViolation",
    "WebspaceObject",
    "WebspaceInstance",
    "ConceptQuery",
    "Condition",
    "render_page",
    "page_text",
]
