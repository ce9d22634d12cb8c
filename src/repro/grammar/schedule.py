"""The Feature Detector Engine's execution order.

The FDE walks the detector dependency DAG (Figure 1 of the paper) in one
deterministic topological order.  Meta-index identifiers are handed out
by per-layer sequential counters, so the *order* of model mutations
decides the bytes of every snapshot: the order must not depend on set
iteration, insertion order or anything but the grammar itself.
"""

from __future__ import annotations

from collections.abc import Iterable

__all__ = ["execution_order"]


def execution_order(
    nodes: Iterable[str], edges: Iterable[tuple[str, str]], axiom: str
) -> tuple[str, ...]:
    """Order the detectors of a dependency DAG for execution.

    Detectors sort by their longest-path depth from the axiom, then by
    name.  Every detector's producers have a strictly smaller depth, so
    the order is topological.

    Args:
        nodes: the DAG's nodes (axiom plus detectors).
        edges: ``(producer, consumer)`` pairs of an acyclic graph.
        axiom: the axiom node, excluded from the order.

    Returns:
        The detector names in execution order.
    """
    producers: dict[str, list[str]] = {node: [] for node in nodes}
    for source, target in edges:
        producers[target].append(source)
    depth: dict[str, int] = {}

    def depth_of(node: str) -> int:
        if node not in depth:
            depth[node] = max((depth_of(p) for p in producers[node]), default=-1) + 1
        return depth[node]

    detectors = [node for node in producers if node != axiom]
    return tuple(sorted(detectors, key=lambda node: (depth_of(node), node)))
