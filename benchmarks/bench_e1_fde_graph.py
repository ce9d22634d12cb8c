"""E1 — Figure 1: the tennis FDE detector dependency graph.

Regenerates the paper's only figure from the tennis feature grammar and
asserts its structure: nodes, edges (with guard), white/black kinds and
the execution order.  The timed kernel is FDE construction + schedule
derivation, the operation Acoi performs when a grammar is (re)loaded.
"""

import networkx as nx

from benchmarks.conftest import print_table
from repro.grammar.dot import to_dot
from repro.grammar.tennis import build_tennis_fde

#: The dependency structure of Figure 1: detector -> its input producers.
FIGURE_ONE_EDGES = {
    ("video", "segment"),
    ("segment", "tennis"),
    ("tennis", "shape"),
    ("tennis", "rules"),
    ("shape", "rules"),
}


def test_e1_figure_one_structure(benchmark):
    fde = benchmark(lambda: build_tennis_fde())
    graph = fde.dependency_graph()

    assert set(graph.edges) == FIGURE_ONE_EDGES
    assert nx.is_directed_acyclic_graph(graph)
    assert graph.nodes["rules"]["kind"] == "white"
    assert graph.nodes["segment"]["kind"] == "black"
    assert graph.nodes["tennis"]["guard"] == ("category", "tennis")

    order = fde.execution_order()
    assert order == ["segment", "tennis", "shape", "rules"]

    rows = [
        [name, graph.nodes[name]["kind"], str(graph.nodes[name]["guard"] or "-"),
         ", ".join(sorted(p for p, c in graph.edges if c == name)) or "(axiom)"]
        for name in ["segment", "tennis", "shape", "rules"]
    ]
    print_table(
        "E1 / Figure 1: tennis FDE detector dependencies",
        ["detector", "kind", "guard", "depends on"],
        rows,
    )
    print("\nDOT rendering of Figure 1:\n" + to_dot(fde, title="tennis_fde"))


def test_e1_schedule_derivation_speed(benchmark):
    """Deriving the execution schedule from the grammar is instantaneous."""
    fde = build_tennis_fde()
    order = benchmark(fde.execution_order)
    assert order[0] == "segment"
