"""DAG export: regenerating Figure 1.

The paper's only figure shows the tennis FDE's detector dependencies.
:func:`figure_one` rebuilds that graph from the tennis feature grammar
and renders it as Graphviz DOT text — the machine-checkable equivalent
of the figure (the E1 benchmark asserts its nodes, edges and execution
order).  The rendering reads the FDE's edge table and its grammar's
declarations, so no graph library is involved.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.grammar.fde import FeatureDetectorEngine

__all__ = ["to_dot", "figure_one"]

_SHAPES = {"axiom": "plaintext", "white": "ellipse"}


def to_dot(fde: FeatureDetectorEngine, title: str = "fde") -> str:
    """Render an FDE's detector dependency DAG as Graphviz DOT text.

    White-box detectors are drawn as ellipses, black-box as boxes, the
    axiom as a plain node; guarded edges are labelled with the guard.
    Nodes and edges are sorted by name.
    """
    grammar = fde.grammar
    kinds = {grammar.axiom: "axiom", **{d.name: d.kind for d in grammar.detectors}}
    lines = [f"digraph {title} {{", "  rankdir=TB;"]
    for node in sorted(kinds):
        lines.append(f'  "{node}" [shape={_SHAPES.get(kinds[node], "box")}];')
    for (source, target), token in sorted(fde.edges.items()):
        guard = grammar.detector(target).guard
        label = token if guard is None else f"{token} [{guard[0]}={guard[1]}]"
        lines.append(f'  "{source}" -> "{target}" [label="{label}"];')
    lines.append("}")
    return "\n".join(lines)


def figure_one() -> str:
    """The DOT rendering of the paper's Figure 1 (tennis FDE)."""
    from repro.grammar.tennis import build_tennis_fde

    return to_dot(build_tennis_fde(), title="tennis_fde")
