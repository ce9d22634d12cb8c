"""DAG export: regenerating Figure 1.

The paper's only figure shows the tennis FDE's detector dependencies.
:func:`figure_one` rebuilds that graph from the tennis feature grammar
and renders it as Graphviz DOT text — the machine-checkable equivalent
of the figure (the E1 benchmark asserts its nodes, edges and execution
order).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["to_dot", "figure_one"]


def to_dot(graph: nx.DiGraph, title: str = "fde") -> str:
    """Render a detector dependency DAG as Graphviz DOT text.

    White-box detectors are drawn as ellipses, black-box as boxes, the
    axiom as a plain node; guarded edges are labelled with the guard.
    """
    lines = [f"digraph {title} {{", "  rankdir=TB;"]
    for node in sorted(graph.nodes):
        kind = graph.nodes[node].get("kind", "black")
        if kind == "axiom":
            shape = "plaintext"
        elif kind == "white":
            shape = "ellipse"
        else:
            shape = "box"
        lines.append(f'  "{node}" [shape={shape}];')
    for source, target in sorted(graph.edges):
        token = graph.edges[source, target].get("token", "")
        guard = graph.nodes[target].get("guard")
        label = token
        if guard is not None:
            label = f"{token} [{guard[0]}={guard[1]}]"
        lines.append(f'  "{source}" -> "{target}" [label="{label}"];')
    lines.append("}")
    return "\n".join(lines)


def figure_one() -> str:
    """The DOT rendering of the paper's Figure 1 (tennis FDE)."""
    from repro.grammar.tennis import build_tennis_fde

    fde = build_tennis_fde()
    return to_dot(fde.dependency_graph(), title="tennis_fde")
