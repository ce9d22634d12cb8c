"""Property tests for the webspace instance's two access paths.

For random sequences of ``create`` / ``link`` — duplicate links, links
the schema rejects, sources linking to several targets in interleaved
order — the reverse-link index and the value index must answer exactly
what the brute-force definitions over ``objects`` / ``follow`` answer.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.webspace.instances import WebspaceInstance
from repro.webspace.schema import SchemaViolation, WebspaceSchema

ASSOCIATIONS = ("played", "best_match")  # to-many, to-one


def make_instance() -> WebspaceInstance:
    schema = WebspaceSchema("site")
    schema.add_class("Player", name="str", hand="str", titles="int", seeded="bool")
    schema.add_class("Match", title="str", sets="int")
    schema.add_association("played", "Player", "Match")
    schema.add_association("best_match", "Player", "Match", to_many=False)
    return WebspaceInstance(schema)


players = st.fixed_dictionaries(
    {
        "name": st.sampled_from(["A", "B", "C"]),
        "hand": st.sampled_from(["left", "right"]),
        "titles": st.integers(0, 2),
        "seeded": st.booleans(),
    }
)
# An operation is a create or a link from the i-th player to the j-th match
# made so far (two of each exist from the start); small indices make
# duplicates, second to-one targets and interleaved sources common, and a
# flipped link runs match -> player.
links = st.tuples(
    st.just("link"),
    st.sampled_from(ASSOCIATIONS),
    st.integers(0, 3),
    st.integers(0, 3),
    st.sampled_from([False, False, False, True]),
)
operations = st.lists(
    st.one_of(
        st.tuples(st.just("player"), players),
        st.tuples(st.just("match"), st.integers(3, 5)),
        links,
    ),
    min_size=12,
    max_size=60,
)


def reverse_index(instance: WebspaceInstance) -> dict:
    return {
        (association, target.oid): [s.oid for s in instance.sources_of(association, target)]
        for association in ASSOCIATIONS
        for target in instance.objects("Match")
    }


def apply(instance: WebspaceInstance, ops) -> dict[str, list[int]]:
    """Run *ops*; returns association -> source oids in first-link order.

    Checks on the way that a rejected or duplicate link leaves the
    reverse index as it was.
    """
    made = {"Player": [], "Match": []}
    first_linked: dict[str, list[int]] = {a: [] for a in ASSOCIATIONS}
    start = [("player", {"name": n, "hand": "left", "titles": 0, "seeded": False}) for n in "AB"]
    for op in start + [("match", 3), ("match", 5)] + ops:
        if op[0] == "player":
            made["Player"].append(instance.create("Player", **op[1]))
        elif op[0] == "match":
            title = f"m{len(made['Match'])}"
            made["Match"].append(instance.create("Match", title=title, sets=op[1]))
        else:
            _, association, i, j, flipped = op
            source = made["Player"][i % len(made["Player"])]
            target = made["Match"][j % len(made["Match"])]
            duplicate = not flipped and target in instance.follow(association, source)
            if flipped:
                source, target = target, source
            before = reverse_index(instance)
            try:
                instance.link(association, source, target)
            except SchemaViolation:
                assert reverse_index(instance) == before
                continue
            if duplicate:
                assert reverse_index(instance) == before
            if source.oid not in first_linked[association]:
                first_linked[association].append(source.oid)
    return first_linked


class TestReverseLinkIndex:
    @settings(max_examples=150, deadline=None)
    @given(ops=operations)
    def test_sources_of_equals_brute_force(self, ops):
        instance = make_instance()
        first_linked = apply(instance, ops)
        for association in ASSOCIATIONS:
            sources = [instance.object(oid) for oid in first_linked[association]]
            for target in instance.objects("Match"):
                expected = [s for s in sources if target in instance.follow(association, s)]
                assert instance.sources_of(association, target) == expected

    def test_order_is_first_link_along_the_association_not_to_the_target(self):
        instance = make_instance()
        a = instance.create("Player", name="A", hand="left", titles=0, seeded=False)
        b = instance.create("Player", name="B", hand="left", titles=0, seeded=False)
        m1 = instance.create("Match", title="m1", sets=3)
        m2 = instance.create("Match", title="m2", sets=3)
        instance.link("played", b, m2)
        instance.link("played", a, m1)
        instance.link("played", b, m1)  # b reaches m1 last but linked first
        assert instance.sources_of("played", m1) == [b, a]
        assert instance.sources_of("played", m2) == [b]

    def test_unknown_association(self):
        instance = make_instance()
        m = instance.create("Match", title="m", sets=3)
        with pytest.raises(SchemaViolation):
            instance.sources_of("umpired", m)


probes = st.dictionaries(
    st.sampled_from(["name", "hand", "titles", "seeded"]),
    st.one_of(
        st.sampled_from(["A", "B", "left", "right", "1", 1.0]),
        st.integers(0, 2),
        st.booleans(),
        st.just(["left"]),
    ),
    max_size=3,
)


class TestValueIndex:
    @settings(max_examples=150, deadline=None)
    @given(ops=operations, equals=probes)
    def test_objects_where_equals_filtering_objects(self, ops, equals):
        instance = make_instance()
        apply(instance, ops)
        expected = [
            obj
            for obj in instance.objects("Player")
            if all(obj.get(name) == value for name, value in equals.items())
        ]
        assert instance.objects_where("Player", equals) == expected

    def test_no_constraint_is_every_object_in_creation_order(self):
        instance = make_instance()
        made = [instance.create("Match", title=t, sets=3) for t in "xyz"]
        assert instance.objects_where("Match", {}) == made

    def test_unknown_class(self):
        with pytest.raises(SchemaViolation):
            make_instance().objects_where("Umpire", {})

    def test_unknown_attribute(self):
        instance = make_instance()
        instance.create("Match", title="m", sets=3)
        with pytest.raises(SchemaViolation):
            instance.objects_where("Match", {"title": "m", "year": 2001})
