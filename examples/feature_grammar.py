"""Feature grammars and the FDE: authoring, Figure 1, incremental updates.

Shows the Acoi workflow the paper demos:

1. author a feature grammar (detector dependencies as grammar rules),
2. let the FDE derive the execution schedule and index videos,
3. dump the dependency DAG (the paper's Figure 1) as Graphviz DOT,
4. change one detector and revalidate *incrementally* — only the
   changed detector and its dependants re-run.

Usage::

    python examples/feature_grammar.py
"""

from repro.grammar.dot import to_dot
from repro.grammar.tennis import TENNIS_FEATURE_GRAMMAR, build_tennis_fde
from repro.video.generator import BroadcastGenerator


def main() -> None:
    print("the tennis feature grammar:")
    print(TENNIS_FEATURE_GRAMMAR)

    fde = build_tennis_fde()
    print("derived execution order:", " -> ".join(fde.execution_order()))

    print("\nFigure 1 (detector dependencies) as DOT:")
    print(to_dot(fde, title="tennis_fde"))

    # Index three videos.
    generator = BroadcastGenerator(seed=55)
    for i in range(3):
        clip, _truth = generator.generate(6, name=f"match_{i}")
        context = fde.index_video(clip)
        print(f"indexed {clip.name}: invocations {context.invocations}")

    print("\nmeta-index:", fde.model.counts())

    # Scenario 1: the event rules are retuned (leaf detector changes).
    print("\n-- retuning the event rules (leaf detector) --")
    fde.registry.bump_version("rules")
    report = fde.revalidate_all()
    print(f"executed {dict(report.executed)}, reused {dict(report.reused)}")

    # Scenario 2: the segment detector changes (root): everything re-runs.
    print("\n-- replacing the segment detector (root) --")
    fde.registry.bump_version("segment")
    report = fde.revalidate_all()
    print(f"executed {dict(report.executed)}, reused {dict(report.reused)}")

    print("\nmeta-index after revalidation:", fde.model.counts())


if __name__ == "__main__":
    main()
