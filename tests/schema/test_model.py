"""Tests for the structural schema model and its analyses."""

import pytest

from repro.errors import SchemaError
from repro.schema import (
    CHOICE,
    MANY,
    SEQUENCE,
    ElementDecl,
    Particle,
    StructuralSchema,
)
from repro.schema.model import all_group, choice, leaf, many, optional, seq
from repro.xmlmodel import parse_document


def dept_schema():
    """The paper's dept/emp structure."""
    emp = seq("emp", leaf("empno"), leaf("ename"), leaf("sal"))
    employees = seq("employees", many(emp))
    dept = seq("dept", leaf("dname"), leaf("loc"), employees)
    return StructuralSchema(dept)


class TestModelBasics:
    def test_particle_cardinality(self):
        decl = leaf("x")
        assert Particle(decl, "1").at_most_one
        assert Particle(decl, "?").at_most_one
        assert not Particle(decl, "*").at_most_one
        assert not Particle(decl, "+").at_most_one

    def test_particle_required(self):
        decl = leaf("x")
        assert Particle(decl, "1").required
        assert Particle(decl, "+").required
        assert not Particle(decl, "?").required

    def test_invalid_occurs(self):
        with pytest.raises(SchemaError):
            Particle(leaf("x"), "!")

    def test_invalid_group(self):
        with pytest.raises(SchemaError):
            ElementDecl("x", group="bag")

    def test_particle_for(self):
        schema = dept_schema()
        assert schema.root.particle_for("dname").decl.name == "dname"
        assert schema.root.particle_for("nope") is None

    def test_child_names(self):
        assert dept_schema().root.child_names() == ["dname", "loc", "employees"]

    def test_leaf(self):
        decl = leaf("sal")
        assert decl.is_leaf
        assert decl.has_text


class TestAnalyses:
    def test_iter_decls(self):
        names = sorted(d.name for d in dept_schema().iter_decls())
        assert names == [
            "dept", "dname", "emp", "employees", "empno", "ename", "loc",
            "sal",
        ]

    def test_not_recursive(self):
        assert not dept_schema().is_recursive()

    def test_direct_recursion_detected(self):
        node = ElementDecl("tree", group=SEQUENCE)
        node.particles = [Particle(node, MANY)]
        assert StructuralSchema(node).is_recursive()

    def test_indirect_recursion_detected(self):
        a = ElementDecl("a", group=SEQUENCE)
        b = ElementDecl("b", group=SEQUENCE)
        a.particles = [Particle(b)]
        b.particles = [Particle(a, "?")]
        assert StructuralSchema(a).is_recursive()

    def test_unique_parent(self):
        schema = dept_schema()
        # empno only ever appears under emp (paper §3.5's example)
        assert schema.unique_parent("empno") == "emp"
        assert schema.unique_parent("emp") == "employees"

    def test_ambiguous_parent(self):
        shared = leaf("name")
        a = seq("a", shared)
        b = seq("b", Particle(shared))
        root = seq("root", a, b)
        schema = StructuralSchema(root)
        assert schema.unique_parent("name") is None
        assert schema.parents_of("name") == {"a", "b"}

    def test_root_has_no_parent(self):
        assert dept_schema().unique_parent("dept") is None

    def test_find_decl(self):
        schema = dept_schema()
        assert schema.find_decl("sal").name == "sal"
        assert schema.find_decl("zzz") is None


class TestValidate:
    def test_valid_instance(self):
        document = parse_document(
            "<dept><dname>A</dname><loc>B</loc>"
            "<employees><emp><empno>1</empno><ename>N</ename><sal>2</sal></emp>"
            "</employees></dept>",
        )
        assert dept_schema().validate(document) == []

    def test_wrong_root(self):
        document = parse_document("<other/>")
        assert dept_schema().validate(document)

    def test_unexpected_child(self):
        document = parse_document(
            "<dept><dname>A</dname><loc>B</loc><employees/><bogus/></dept>"
        )
        violations = dept_schema().validate(document)
        assert any("bogus" in violation for violation in violations)

    def test_sequence_order_violation(self):
        document = parse_document(
            "<dept><loc>B</loc><dname>A</dname><employees/></dept>"
        )
        violations = dept_schema().validate(document)
        assert any("order" in violation for violation in violations)

    def test_missing_required_child(self):
        document = parse_document("<dept><dname>A</dname><employees/></dept>")
        violations = dept_schema().validate(document)
        assert any("loc" in violation for violation in violations)

    def test_choice_with_two_children(self):
        schema = StructuralSchema(choice("c", leaf("a"), leaf("b")))
        document = parse_document("<c><a/><b/></c>")
        assert schema.validate(document)

    def test_one_or_more_needs_one(self):
        from repro.schema import schema_from_dtd

        schema = schema_from_dtd(
            "<!ELEMENT a (b+, c)><!ELEMENT b (#PCDATA)>"
            "<!ELEMENT c (#PCDATA)>")
        violations = schema.validate(parse_document("<a><c>x</c></a>"))
        assert violations == ["/a: <b> occurs 0 times, expected at least 1"]
        for conforming in ("<a><b>1</b><c>x</c></a>",
                           "<a><b>1</b><b>2</b><b>3</b><c>x</c></a>"):
            assert schema.validate(parse_document(conforming)) == []

    def test_all_group_takes_any_order_but_keeps_counts(self):
        schema = StructuralSchema(all_group("r", leaf("a"), leaf("b")))
        assert schema.validate(parse_document("<r><b/><a/></r>")) == []
        assert schema.validate(parse_document("<r><b/><a/><b/></r>")) == [
            "/r: <b> occurs 2 times, expected 1"]

    def test_one_content_model_per_declaration(self):
        schema = dept_schema()
        model = schema.content_model(schema.root)
        assert schema.content_model(schema.root) is model
        assert model.index_of == {"dname": 0, "loc": 1, "employees": 2}
        assert model.violations([0, 1, 2]) == ()
        assert model.violations([0, 2]) == [
            "<loc> occurs 0 times, expected 1"]

    def test_optional_child_absent_ok(self):
        schema = StructuralSchema(seq("r", optional(leaf("o")), leaf("m")))
        assert schema.validate(parse_document("<r><m/></r>")) == []

    def test_many_children_ok(self):
        document = parse_document(
            "<dept><dname>A</dname><loc>B</loc>"
            "<employees>"
            "<emp><empno>1</empno><ename>N</ename><sal>2</sal></emp>"
            "<emp><empno>2</empno><ename>M</ename><sal>3</sal></emp>"
            "</employees></dept>"
        )
        assert dept_schema().validate(document) == []


class TestConstructors:
    def test_all_group(self):
        decl = all_group("x", leaf("a"), leaf("b"))
        assert decl.group == "all"

    def test_choice_group(self):
        decl = choice("x", leaf("a"), leaf("b"))
        assert decl.group == CHOICE
