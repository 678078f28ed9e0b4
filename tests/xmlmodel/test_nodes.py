"""Unit tests for the DOM node classes."""

import pytest

from repro.xmlmodel import (
    Attribute,
    Comment,
    Document,
    Element,
    NodeKind,
    ProcessingInstruction,
    QName,
    Text,
    doc,
    document_order_key,
    elem,
    text,
)


class TestQName:
    def test_equality_ignores_prefix(self):
        assert QName("a", "urn:x", "p") == QName("a", "urn:x", "q")

    def test_inequality_on_uri(self):
        assert QName("a", "urn:x") != QName("a", "urn:y")

    def test_inequality_on_local(self):
        assert QName("a") != QName("b")

    def test_hash_consistent_with_equality(self):
        assert hash(QName("a", "u", "p")) == hash(QName("a", "u"))

    def test_lexical_with_prefix(self):
        assert QName("template", "urn:xsl", "xsl").lexical == "xsl:template"

    def test_lexical_without_prefix(self):
        assert QName("dept").lexical == "dept"

    def test_compare_with_non_qname(self):
        assert QName("a") != "a"


class TestTreeStructure:
    def make_tree(self):
        root = elem(
            "dept",
            elem("dname", "ACCOUNTING"),
            elem("loc", "NEW YORK"),
            elem("employees", elem("emp", elem("empno", "7782"))),
        )
        return doc(root), root

    def test_children_order(self):
        _, root = self.make_tree()
        names = [c.name.local for c in root.child_elements()]
        assert names == ["dname", "loc", "employees"]

    def test_parent_pointers(self):
        document, root = self.make_tree()
        assert root.parent is document
        for child in root.children:
            assert child.parent is root

    def test_root(self):
        document, root = self.make_tree()
        empno = root.find("employees").find("emp").find("empno")
        assert empno.root() is document

    def test_ancestors(self):
        _, root = self.make_tree()
        empno = root.find("employees").find("emp").find("empno")
        names = [a.name.local for a in empno.ancestors() if a.kind == NodeKind.ELEMENT]
        assert names == ["emp", "employees", "dept"]

    def test_iter_descendants_document_order(self):
        document, _ = self.make_tree()
        element_names = [
            n.name.local
            for n in document.iter_descendants()
            if n.kind == NodeKind.ELEMENT
        ]
        assert element_names == [
            "dept", "dname", "loc", "employees", "emp", "empno",
        ]

    def test_document_order_monotonic(self):
        document, _ = self.make_tree()
        orders = [n.order for n in document.iter_descendants()]
        assert orders == sorted(orders)
        assert len(set(orders)) == len(orders)

    def test_following_siblings(self):
        _, root = self.make_tree()
        dname = root.find("dname")
        names = [s.name.local for s in dname.following_siblings()]
        assert names == ["loc", "employees"]

    def test_preceding_siblings_reverse_order(self):
        _, root = self.make_tree()
        employees = root.find("employees")
        names = [s.name.local for s in employees.preceding_siblings()]
        assert names == ["loc", "dname"]

    def test_document_element(self):
        document, root = self.make_tree()
        assert document.document_element is root

    def test_renumber_after_surgery(self):
        document, root = self.make_tree()
        # Move "loc" to the end, out of order, then renumber.
        loc = root.find("loc")
        root.children.remove(loc)
        root.children.append(loc)
        document.renumber()
        orders = [n.order for n in document.iter_descendants()]
        assert orders == sorted(orders)


class TestStringValue:
    def test_element_concatenates_descendant_text(self):
        root = elem("a", elem("b", "one"), text("two"), elem("c", elem("d", "three")))
        assert root.string_value() == "onetwothree"

    def test_text(self):
        assert Text("hello").string_value() == "hello"

    def test_attribute(self):
        assert Attribute("x", "v").string_value() == "v"

    def test_comment_and_pi(self):
        assert Comment("c").string_value() == "c"
        assert ProcessingInstruction("t", "d").string_value() == "d"

    def test_document(self):
        document = doc(elem("a", "x"))
        assert document.string_value() == "x"


class TestAttributes:
    def test_set_and_get(self):
        element = elem("e")
        element.set_attribute("k", "v")
        assert element.get_attribute("k") == "v"

    def test_get_missing_returns_default(self):
        assert elem("e").get_attribute("nope", default="d") == "d"

    def test_set_replaces_existing(self):
        element = elem("e")
        element.set_attribute("k", "v1")
        element.set_attribute("k", "v2")
        assert element.get_attribute("k") == "v2"
        assert len(element.attributes) == 1

    def test_attribute_parent_is_element(self):
        element = elem("e")
        attribute = element.set_attribute("k", "v")
        assert attribute.parent is element

    def test_attribute_order_key_after_element(self):
        document = doc(elem("e", elem("child")))
        element = document.document_element
        attribute = element.set_attribute("k", "v")
        child = element.children[0]
        assert document_order_key(element) < document_order_key(attribute)
        assert document_order_key(attribute) < document_order_key(child)


class TestNamespaces:
    def test_lookup_prefix_walks_ancestors(self):
        inner = Element(QName("b"))
        outer = Element(QName("a"), namespaces={"p": "urn:p"})
        outer.append(inner)
        assert inner.lookup_prefix("p") == "urn:p"

    def test_lookup_prefix_shadowing(self):
        inner = Element(QName("b"), namespaces={"p": "urn:inner"})
        outer = Element(QName("a"), namespaces={"p": "urn:outer"})
        outer.append(inner)
        assert inner.lookup_prefix("p") == "urn:inner"

    def test_lookup_prefix_missing(self):
        assert Element(QName("a")).lookup_prefix("nope") is None


class TestFind:
    def test_find_first_match(self):
        root = elem("r", elem("x", "1"), elem("x", "2"))
        assert root.find("x").string_value() == "1"

    def test_findall(self):
        root = elem("r", elem("x"), elem("y"), elem("x"))
        assert len(root.findall("x")) == 2

    def test_find_respects_namespace(self):
        root = Element("r")
        root.append(Element(QName("x", "urn:one")))
        assert root.find("x") is None
        assert root.find("x", uri="urn:one") is not None

    def test_sibling_of_detached_node(self):
        detached = elem("alone")
        assert list(detached.following_siblings()) == []
        assert list(detached.preceding_siblings()) == []


def orders(document):
    """(kind, order) of every node, attributes right after their element."""
    out = []
    for node in document.iter_subtree():
        out.append((node.kind, node.order))
        if node.kind == NodeKind.ELEMENT:
            out.extend((a.kind, a.order) for a in node.attributes)
    return out


class TestAttributeOrderNumbering:
    """Two numberings exist, and XPath's document order (which sorts
    attributes by owner and list position) is the same under both:

    * an attribute added to an element that is already stamped — the
      TreeBuilder, the materialiser — shares the element's slot and
      consumes no counter value;
    * an attribute already on a subtree when a document adopts it — the
      parser, ``doc(elem(...))`` — is stamped with a slot of its own.
    """

    E, A, T = NodeKind.ELEMENT, NodeKind.ATTRIBUTE, NodeKind.TEXT

    def test_builder_attributes_share_the_element_slot(self):
        from repro.xmlmodel import TreeBuilder

        builder = TreeBuilder()
        builder.start_element("r")
        builder.attribute("a", "1")
        builder.attribute("b", "2")
        builder.start_element("c")
        builder.attribute("d", "3")
        builder.text("t")
        builder.end_element()
        builder.comment("x")
        builder.processing_instruction("p", "q")
        builder.end_element()
        assert orders(builder.finish()) == [
            (NodeKind.DOCUMENT, 0), (self.E, 1), (self.A, 1), (self.A, 1),
            (self.E, 2), (self.A, 2), (self.T, 3),
            (NodeKind.COMMENT, 4), (NodeKind.PI, 5),
        ]

    def test_adopted_attributes_get_their_own_slots(self):
        document = doc(elem("r", elem("c", "t", d="3"), a="1", b="2"))
        assert orders(document) == [
            (NodeKind.DOCUMENT, 0), (self.E, 1), (self.A, 2), (self.A, 3),
            (self.E, 4), (self.A, 5), (self.T, 6),
        ]

    def test_set_attribute_on_a_stamped_element_shares_and_consumes_nothing(self):
        document = doc(elem("r", elem("c")))
        root = document.document_element
        attribute = root.set_attribute("late", "v")
        assert attribute.order == root.order == 1
        assert document.append(Comment("next")).order == 3

    def test_set_attribute_on_an_unstamped_element_stays_unnumbered(self):
        element = Element("loose")
        assert element.set_attribute("k", "v").order == -1
        # even below a parent, as long as no document has stamped it
        parent = Element("p")
        parent.append(element)
        assert element.set_attribute("k2", "v").order == -1

    def test_both_numberings_sort_the_same(self):
        from repro.xmlmodel import TreeBuilder

        builder = TreeBuilder()
        builder.copy_node(doc(elem("r", elem("c", "t", d="3"), a="1", b="2")))
        for document in (
            builder.finish(),
            doc(elem("r", elem("c", "t", d="3"), a="1", b="2")),
        ):
            nodes = []
            for node in document.iter_subtree():
                nodes.append(node)
                nodes.extend(getattr(node, "attributes", ()))
            assert sorted(reversed(nodes), key=document_order_key) == nodes

    def test_attribute_free_elements_share_one_empty_tuple(self):
        first, second = Element("a"), Element("b")
        assert first.attributes == () and first.attributes is second.attributes
        first.set_attribute("k", "v")
        assert len(first.attributes) == 1 and second.attributes == ()


class TestBuilderNumbersLikeAppend:
    def test_builder_equals_the_generic_append_path(self):
        """TreeBuilder stamps from its own document; ``append`` finds the
        document by walking up.  Same numbers either way."""
        from repro.xmlmodel import TreeBuilder

        builder = TreeBuilder()
        document = Document()
        stack = [document]
        script = [
            ("start", "r"), ("text", "a"), ("start", "x"), ("start", "y"),
            ("text", "b"), ("end",), ("comment", "c"), ("end",),
            ("pi", "t", "v"), ("text", "d"), ("text", "e"), ("start", "z"),
            ("end",), ("end",),
        ]
        for op in script:
            if op[0] == "start":
                builder.start_element(op[1])
                stack.append(stack[-1].append(Element(op[1])))
            elif op[0] == "end":
                builder.end_element()
                stack.pop()
            elif op[0] == "text":
                builder.text(op[1])
                last = stack[-1].children[-1:] or [None]
                if isinstance(last[0], Text):
                    last[0].value += op[1]
                else:
                    stack[-1].append(Text(op[1]))
            elif op[0] == "comment":
                builder.comment(op[1])
                stack[-1].append(Comment(op[1]))
            else:
                builder.processing_instruction(op[1], op[2])
                stack[-1].append(ProcessingInstruction(op[1], op[2]))
        built = builder.finish()
        assert orders(built) == orders(document)
        assert [n.string_value() for n in built.iter_subtree()] == \
            [n.string_value() for n in document.iter_subtree()]
        assert all(child.parent is node for node in built.iter_subtree()
                   for child in node.children)
