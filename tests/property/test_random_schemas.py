"""Property tests over *randomly generated schemas*.

The rewrite's trickiest code paths depend on the schema shape (model
groups, cardinalities, optional children).  Here hypothesis generates
random non-recursive schemas, random conforming documents, and simple
stylesheets targeting random element types — and checks the rewrite
equivalence plus storage round-trips across all of them.
"""

import string

from hypothesis import given, settings, strategies as st

from repro.api import TransformOptions
from repro.core.partial_eval import partially_evaluate
from repro.schema.model import (
    ElementDecl,
    Particle,
    StructuralSchema,
)
from repro.xmlmodel.builder import TreeBuilder
from repro.xmlmodel import serialize_children
from repro.xquery.evaluator import evaluate_module, sequence_to_document
from repro.xslt import compile_stylesheet, transform
from repro.core.xquery_gen import generate_xquery

XSL = 'xmlns:xsl="http://www.w3.org/1999/XSL/Transform"'
FUNCTIONAL = TransformOptions(strategy="functional")

_NAMES = [
    "alpha", "beta", "gamma", "delta", "epsi", "zeta", "eta", "theta",
    "iota", "kappa", "lam", "mu", "nu", "xi", "omi", "pi", "rho", "sigma",
    "tau", "upsi",
]


@st.composite
def schemas(draw):
    """A random non-recursive schema, 2–3 levels deep.

    Element names are unique per schema (each declaration appears once),
    matching the shredding/sample-generation preconditions.
    """
    available = list(_NAMES)
    draw(st.randoms(use_true_random=False)).shuffle(available)

    def make_decl(depth):
        name = available.pop()
        if depth >= 2 or not available or draw(st.booleans()):
            return ElementDecl(name, has_text=True)
        if len(available) < 2:
            return ElementDecl(name, has_text=True)
        group = draw(st.sampled_from(["sequence", "choice"]))
        width = draw(st.integers(1, 3))
        particles = []
        for _ in range(width):
            if len(available) < 2:
                break
            child = make_decl(depth + 1)
            occurs = draw(st.sampled_from(["1", "?", "*", "+"]))
            if group == "choice":
                occurs = draw(st.sampled_from(["1", "?"]))
            particles.append(Particle(child, occurs))
        if not particles:
            return ElementDecl(name, has_text=True)
        return ElementDecl(name, group=group, particles=particles)

    root = make_decl(0)
    if root.is_leaf:
        # ensure at least one level of structure
        child = ElementDecl(available.pop(), has_text=True)
        root = ElementDecl(
            available.pop() if available else "root",
            group="sequence",
            particles=[Particle(child, draw(st.sampled_from(["1", "*"])))],
        )
    return StructuralSchema(root)


@st.composite
def conforming_documents(draw, schema):
    builder = TreeBuilder()

    def emit(decl):
        builder.start_element(decl.name)
        if decl.group == "choice":
            candidates = [p for p in decl.particles]
            particle = draw(st.sampled_from(candidates))
            if particle.occurs == "1" or draw(st.booleans()):
                emit(particle.decl)
        else:
            for particle in decl.particles:
                if particle.occurs == "1":
                    count = 1
                elif particle.occurs == "?":
                    count = draw(st.integers(0, 1))
                elif particle.occurs == "+":
                    count = draw(st.integers(1, 3))
                else:
                    count = draw(st.integers(0, 3))
                for _ in range(count):
                    emit(particle.decl)
        if decl.has_text and decl.is_leaf:
            # "&", "<" and ">" make every door's escaping visible
            builder.text(draw(st.text(
                alphabet=string.ascii_letters + string.digits + "&<>",
                min_size=1, max_size=6,
            )))
        builder.end_element()

    emit(schema.root)
    return builder.finish()


@st.composite
def schema_and_document(draw):
    schema = draw(schemas())
    document = draw(conforming_documents(schema))
    return schema, document


def sheet(body):
    return '<xsl:stylesheet version="1.0" %s>%s</xsl:stylesheet>' % (XSL, body)


def check_equivalence(stylesheet_text, schema, document):
    compiled = compile_stylesheet(stylesheet_text)
    partial = partially_evaluate(compiled, schema)
    module = generate_xquery(partial)
    vm_out = serialize_children(transform(compiled, document))
    xq_out = serialize_children(
        sequence_to_document(evaluate_module(module, document))
    )
    assert xq_out == vm_out, (
        "schema root <%s>: XQuery %r != XSLT %r"
        % (schema.root.name, xq_out, vm_out)
    )


class TestRandomSchemaEquivalence:
    @given(pair=schema_and_document())
    @settings(max_examples=50, deadline=None)
    def test_builtin_only_equivalence(self, pair):
        schema, document = pair
        check_equivalence(sheet(""), schema, document)

    @given(pair=schema_and_document(), data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_single_template_equivalence(self, pair, data):
        schema, document = pair
        names = sorted({decl.name for decl in schema.iter_decls()})
        target = data.draw(st.sampled_from(names))
        body = (
            '<xsl:template match="%s"><hit>'
            '<xsl:value-of select="."/></hit></xsl:template>' % target
        )
        check_equivalence(sheet(body), schema, document)

    @given(pair=schema_and_document(), data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_wrapping_template_equivalence(self, pair, data):
        schema, document = pair
        names = sorted({decl.name for decl in schema.iter_decls()})
        target = data.draw(st.sampled_from(names))
        body = (
            '<xsl:template match="%s"><w><xsl:apply-templates/></w>'
            "</xsl:template>" % target
        )
        check_equivalence(sheet(body), schema, document)

    @given(pair=schema_and_document())
    @settings(max_examples=30, deadline=None)
    def test_sample_document_validates(self, pair):
        from repro.schema import generate_sample

        schema, _ = pair
        sample = generate_sample(schema)
        # choice groups are deliberately over-populated in samples, so
        # validation is only exact for choice-free schemas
        if all(decl.group != "choice" for decl in schema.iter_decls()):
            assert schema.validate(sample.document) == []

    @given(pair=schema_and_document())
    @settings(max_examples=30, deadline=None)
    def test_document_conforms(self, pair):
        schema, document = pair
        assert schema.validate(document) == []


class TestRandomSchemaStorageEquivalence:
    """The full triangle over random schemas: functional XSLT ≡ merged SQL
    over object-relational storage (when the rewrite applies)."""

    @given(pair=schema_and_document(), data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_storage_rewrite_triangle(self, pair, data):
        from repro.core import xml_transform
        from repro.rdb import Database
        from repro.rdb.storage import ObjectRelationalStorage

        schema, document = pair
        names = sorted({decl.name for decl in schema.iter_decls()})
        target = data.draw(st.sampled_from(names))
        # a template, or none: the built-in rules alone return the
        # document's text at the top level of each row
        body = data.draw(st.sampled_from([
            '<xsl:template match="%s"><hit>'
            '<xsl:value-of select="."/></hit></xsl:template>' % target,
            "",
        ]))
        db = Database()
        storage = ObjectRelationalStorage(db, schema, "rs")
        storage.load(document)
        rewritten = xml_transform(db, storage, sheet(body))
        functional = xml_transform(db, storage, sheet(body),
                                   options=FUNCTIONAL)
        assert rewritten.serialized_rows() == functional.serialized_rows()

    @given(pair=schema_and_document(), data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_view_source_matches_storage_and_rewrite(self, pair, data):
        """The View door parses each row's markup into the document the
        VM reads: byte-identical to the storage's own materialisation
        and to the rewrite, whatever the schema."""
        from repro.core import xml_transform
        from repro.rdb import Database
        from repro.rdb.storage import ObjectRelationalStorage

        schema, document = pair
        names = sorted({decl.name for decl in schema.iter_decls()})
        target = data.draw(st.sampled_from(names))
        body = data.draw(st.sampled_from([
            '<xsl:template match="%s"><hit>'
            '<xsl:value-of select="."/></hit></xsl:template>',
            '<xsl:template match="%s"><w n="{count(node())}">'
            '<xsl:apply-templates/></w></xsl:template>',
            '<xsl:template match="%s"><xsl:copy-of select="."/>'
            '<p><xsl:value-of select="count(preceding::*)"/></p>'
            "</xsl:template>",
        ])) % target
        db = Database()
        storage = ObjectRelationalStorage(db, schema, "vs")
        storage.load(document)
        view = xml_transform(db, storage.make_view_query(), sheet(body),
                             options=FUNCTIONAL)
        functional = xml_transform(db, storage, sheet(body),
                                   options=FUNCTIONAL)
        rewritten = xml_transform(db, storage, sheet(body))
        assert view.strategy == functional.strategy == "functional"
        assert view.serialized_rows() == functional.serialized_rows()
        assert view.serialized_rows() == rewritten.serialized_rows()

    @given(pair=schema_and_document())
    @settings(max_examples=25, deadline=None)
    def test_reconstruction_view_roundtrip(self, pair):
        from repro.rdb import Database
        from repro.rdb.sqlxml import content_markup
        from repro.rdb.storage import ObjectRelationalStorage
        from repro.xmlmodel import serialize

        schema, document = pair
        db = Database()
        storage = ObjectRelationalStorage(db, schema, "rv")
        storage.load(document)
        rows, _ = db.execute(storage.make_view_query())
        assert content_markup(rows[0][0]) == serialize(document)


def _as_tree(element):
    """[name, child trees, text] of an element (text only on a leaf)."""
    children = [_as_tree(child) for child in element.child_elements()]
    return [element.name.local, children,
            "" if children else element.string_value()]


def _rebuild(tree):
    builder = TreeBuilder()

    def emit(node):
        builder.start_element(node[0])
        for child in node[1]:
            emit(child)
        if node[2]:
            builder.text(node[2])
        builder.end_element()

    emit(tree)
    return builder.finish()


@st.composite
def mutated_documents(draw):
    """A schema and a conforming document with one child dropped,
    duplicated, swapped with its neighbour or renamed."""
    schema, document = draw(schema_and_document())
    tree = _as_tree(document.document_element)
    parents, stack = [], [tree]
    while stack:
        node = stack.pop()
        if node[1]:
            parents.append(node)
            stack.extend(node[1])
    if not parents:
        return schema, document
    children = draw(st.sampled_from(parents))[1]
    at = draw(st.integers(0, len(children) - 1))
    kind = draw(st.sampled_from(["drop", "duplicate", "swap", "rename"]))
    if kind == "drop":
        del children[at]
    elif kind == "duplicate":
        children.insert(at, children[at])
    elif kind == "swap":
        other = (at + 1) % len(children)
        children[at], children[other] = children[other], children[at]
    else:
        children[at] = [draw(st.sampled_from(_NAMES))] + children[at][1:]
    return schema, _rebuild(tree)


class TestConformanceDifferential:
    """One content model, three callers: ``validate`` finds a violation
    exactly when ``load`` and ``load_stream`` refuse the document."""

    @given(pair=mutated_documents())
    @settings(max_examples=200, deadline=None)
    def test_validate_load_and_load_stream_agree(self, pair):
        from repro.errors import DatabaseError
        from repro.rdb import Database
        from repro.rdb.storage import ObjectRelationalStorage
        from repro.xmlmodel import serialize

        schema, document = pair
        violations = schema.validate(document)
        states = []
        for door in ("load", "load_stream"):
            storage = ObjectRelationalStorage(Database(), schema, "s")
            try:
                if door == "load":
                    storage.load(document)
                else:
                    storage.load_stream(serialize(document), chunk_size=7)
            except DatabaseError as error:
                assert violations, (door, str(error))
                assert str(error) in [
                    "document does not conform to schema: " + violation
                    for violation in violations]
            else:
                assert violations == [], door
            states.append((storage.fingerprint(), {
                binding.table_name: list(
                    storage.db.table(binding.table_name).scan())
                for binding in storage.tables}))
        assert states[0] == states[1]
        if violations:
            assert not any(states[0][1].values())


class TestAttributeSchemas:
    """Schemas with attributes: sample generation, shredding and the
    rewrite must all carry them."""

    @st.composite
    @staticmethod
    def attributed_pair(draw):
        leaf_a = ElementDecl("item", has_text=True, attributes=["k"])
        root = ElementDecl(
            "box", group="sequence",
            particles=[Particle(leaf_a, draw(st.sampled_from(["1", "*"])))],
            attributes=["label"],
        )
        schema = StructuralSchema(root)
        builder = TreeBuilder()
        builder.start_element("box")
        builder.attribute("label", draw(st.text(
            alphabet=string.ascii_letters, min_size=1, max_size=6)))
        count = (1 if root.particles[0].occurs == "1"
                 else draw(st.integers(0, 3)))
        for index in range(count):
            builder.start_element("item")
            builder.attribute("k", "k%d" % index)
            builder.text(draw(st.text(
                alphabet=string.ascii_letters, min_size=1, max_size=5)))
            builder.end_element()
        builder.end_element()
        return schema, builder.finish()

    @given(pair=attributed_pair())
    @settings(max_examples=30, deadline=None)
    def test_attribute_avt_equivalence(self, pair):
        schema, document = pair
        body = (
            '<xsl:template match="box"><o name="{@label}">'
            '<xsl:apply-templates select="item"/></o></xsl:template>'
            '<xsl:template match="item"><i key="{@k}">'
            '<xsl:value-of select="."/></i></xsl:template>'
        )
        check_equivalence(sheet(body), schema, document)

    @given(pair=attributed_pair())
    @settings(max_examples=20, deadline=None)
    def test_attribute_storage_triangle(self, pair):
        from repro.core import xml_transform
        from repro.rdb import Database
        from repro.rdb.storage import ObjectRelationalStorage

        schema, document = pair
        body = (
            '<xsl:template match="box"><o name="{@label}">'
            '<xsl:apply-templates select="item[@k = \'k0\']"/></o>'
            "</xsl:template>"
            '<xsl:template match="item"><hit/></xsl:template>'
        )
        db = Database()
        storage = ObjectRelationalStorage(db, schema, "ab")
        storage.load(document)
        rewritten = xml_transform(db, storage, sheet(body))
        functional = xml_transform(db, storage, sheet(body),
                                   options=FUNCTIONAL)
        assert rewritten.serialized_rows() == functional.serialized_rows()
