"""Webspace schema tests."""

import pytest

from repro.webspace.schema import AttributeDef, SchemaViolation, WebspaceSchema


@pytest.fixture
def schema():
    s = WebspaceSchema("site")
    s.add_class("Player", name="str", seed="int", titles="int")
    s.add_class("Match", title="str", year="int")
    s.add_association("played", "Player", "Match")
    return s


class TestClasses:
    def test_lookup(self, schema):
        assert schema.cls("Player").attribute_names == ["name", "seed", "titles"]

    def test_duplicate_class(self, schema):
        with pytest.raises(SchemaViolation):
            schema.add_class("Player", x="int")

    def test_unknown_class(self, schema):
        with pytest.raises(SchemaViolation):
            schema.cls("Umpire")

    def test_unknown_attribute(self, schema):
        with pytest.raises(SchemaViolation):
            schema.cls("Player").attribute("height")

    def test_bad_attribute_type(self):
        with pytest.raises(SchemaViolation):
            AttributeDef("x", "decimal")


class TestAttributeChecks:
    def test_type_checks(self):
        attr = AttributeDef("seed", "int")
        attr.check(5)
        with pytest.raises(SchemaViolation):
            attr.check("five")
        with pytest.raises(SchemaViolation):
            attr.check(True)  # bool is not int here

    def test_bool_check(self):
        attr = AttributeDef("flag", "bool")
        attr.check(True)
        with pytest.raises(SchemaViolation):
            attr.check(1)

    def test_float_accepts_int(self):
        AttributeDef("x", "float").check(3)


class TestAssociations:
    def test_lookup(self, schema):
        assoc = schema.association("played")
        assert assoc.source == "Player"
        assert assoc.target == "Match"

    def test_duplicate(self, schema):
        with pytest.raises(SchemaViolation):
            schema.add_association("played", "Player", "Match")

    def test_unknown_endpoint(self, schema):
        with pytest.raises(SchemaViolation):
            schema.add_association("coached", "Coach", "Player")
