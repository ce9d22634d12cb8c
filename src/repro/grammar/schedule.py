"""The Feature Detector Engine's execution order.

The FDE walks the detector dependency DAG (Figure 1 of the paper) in one
deterministic topological order.  Meta-index identifiers are handed out
by per-layer sequential counters, so the *order* of model mutations
decides the bytes of every snapshot: the order must not depend on set
iteration, insertion order or anything but the grammar itself.
"""

from __future__ import annotations

import networkx as nx

__all__ = ["execution_order"]


def execution_order(graph: nx.DiGraph, axiom: str) -> tuple[str, ...]:
    """Order the detectors of a dependency DAG for execution.

    Detectors sort by their longest-path depth from the axiom, then by
    name.  Every detector's producers have a strictly smaller depth, so
    the order is topological.

    Args:
        graph: the dependency DAG (axiom plus detectors).
        axiom: the axiom node, excluded from the order.

    Returns:
        The detector names in execution order.
    """
    depth: dict[str, int] = {}
    for node in nx.topological_sort(graph):
        preds = graph.predecessors(node)
        depth[node] = max((depth[p] for p in preds), default=-1) + 1
    del depth[axiom]
    return tuple(sorted(depth, key=lambda node: (depth[node], node)))
