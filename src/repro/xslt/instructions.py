"""Compiled XSLT instruction tree — what a stylesheet program is bound from.

The tree is plain data: the XQuery generator walks it and compile artifacts
pickle it.  Each instruction's semantics live in one ``bind(program)`` that
returns a closure ``run(vm, context, output)`` over its pre-resolved names,
its expressions' closures and its nested bodies' closures — ``vm`` is the
:class:`~repro.xslt.vm.XsltVM` holding the run's state, ``context`` an
:class:`~repro.xpath.context.XPathContext`, ``output`` an output handler
(:mod:`repro.xmlmodel.builder`: a tree or markup).  ``program`` is the
:class:`~repro.xslt.program.Program` doing the binding; what differs under
partial evaluation (every branch explored, predicates dropped) is asked of
it at bind time, never tested per node.

Each instruction carries a ``site_id`` (assigned by the compiler), which is
how the partial evaluator's trace-table keys ``apply-templates`` and
``call-template`` sites (paper §4.3), and how the XQuery generator maps
instructions back to stylesheet constructs.
"""

from __future__ import annotations

from repro.errors import XsltRuntimeError
from repro.xmlmodel.nodes import Node, NodeKind, QName
from repro.xpath.datamodel import to_boolean, to_number, to_string


class Instruction:
    """Base class; ``site_id`` is stamped by the compiler."""

    site_id = -1

    def bind(self, program):
        """This instruction as ``run(vm, context, output)``."""
        raise NotImplementedError

    def child_bodies(self):
        """Nested instruction lists, for generic tree walks."""
        return ()

    def iter_tree(self):
        yield self
        for body in self.child_bodies():
            for instruction in body:
                for nested in instruction.iter_tree():
                    yield nested


class SortSpec:
    """One ``<xsl:sort>`` specification."""

    __slots__ = ("select", "data_type", "order")

    def __init__(self, select, data_type="text", order="ascending"):
        self.select = select
        self.data_type = data_type
        self.order = order


class WithParam:
    """One ``<xsl:with-param>``: a name plus a select expr or a body."""

    __slots__ = ("name", "select", "body")

    def __init__(self, name, select=None, body=None):
        self.name = name
        self.select = select
        self.body = body or []


class TextInstr(Instruction):
    """Literal character data (from literal text or ``<xsl:text>``)."""

    def __init__(self, value):
        self.value = value

    def bind(self, program):
        value = self.value
        return lambda vm, context, output: output.text(value)


class LiteralElementInstr(Instruction):
    """A literal result element with AVT attributes."""

    def __init__(self, name, attributes, namespaces, body):
        self.name = name                  # QName
        self.attributes = attributes      # list of (QName, Avt)
        self.namespaces = namespaces      # prefix -> uri to re-declare
        self.body = body

    def child_bodies(self):
        return (self.body,)

    def bind(self, program):
        name, namespaces = self.name, self.namespaces
        attributes = [(attr_name, avt.compile())
                      for attr_name, avt in self.attributes]
        body = program.body(self.body)

        def literal_element(vm, context, output):
            output.start_element(name, namespaces)
            for attr_name, value in attributes:
                output.attribute(attr_name, value(context))
            body(vm, context, output)
            output.end_element()

        return literal_element


class ValueOfInstr(Instruction):
    """``<xsl:value-of select=...>``."""

    def __init__(self, select):
        self.select = select

    def bind(self, program):
        select = self.select.bound()
        return lambda vm, context, output: output.text(
            to_string(select(context)))


class ApplyTemplatesInstr(Instruction):
    """``<xsl:apply-templates>`` — the dynamic dispatch site."""

    def __init__(self, select=None, mode=None, sorts=None, with_params=None):
        self.select = select
        self.mode = mode
        self.sorts = sorts or []
        self.with_params = with_params or []

    def bind(self, program):
        select = (program.select(self.select, "apply-templates select")
                  if self.select is not None else None)
        sort = program.sorter(self.sorts)
        with_params = program.with_params(self.with_params)
        apply = program.applier(self.mode)
        site = self

        def apply_templates(vm, context, output):
            nodes = context.node.children if select is None else select(context)
            if sort is not None:
                nodes = sort(nodes, context)
            apply(vm, nodes, with_params(vm, context), context, output, site)

        return apply_templates


class CallTemplateInstr(Instruction):
    """``<xsl:call-template name=...>``."""

    def __init__(self, name, with_params=None):
        self.name = name
        self.with_params = with_params or []

    def bind(self, program):
        name, site = self.name, self
        with_params = program.with_params(self.with_params)
        enter = None

        def call_template(vm, context, output):
            nonlocal enter
            params = with_params(vm, context)
            if enter is None:  # an unknown name is an error once reached
                enter = vm.program.named_template(name)
            enter(vm, params, context, output, site)

        return call_template


class ForEachInstr(Instruction):
    """``<xsl:for-each select=...>``."""

    def __init__(self, select, sorts=None, body=None):
        self.select = select
        self.sorts = sorts or []
        self.body = body or []

    def child_bodies(self):
        return (self.body,)

    def bind(self, program):
        select = program.select(self.select, "for-each select")
        sort = program.sorter(self.sorts)
        body = program.body(self.body)

        def for_each(vm, context, output):
            nodes = select(context)
            if sort is not None:
                nodes = sort(nodes, context)
            if nodes:
                # one context for the loop, re-pointed at each node
                focus = context.with_node(nodes[0], 0, len(nodes))
                for node in nodes:
                    focus.node = focus.current = node
                    focus.position += 1
                    body(vm, focus, output)

        return for_each


class IfInstr(Instruction):
    """``<xsl:if test=...>``."""

    def __init__(self, test, body):
        self.test = test
        self.body = body

    def child_bodies(self):
        return (self.body,)

    def bind(self, program):
        body = program.body(self.body)
        if program.explore:
            # Partial evaluation explores every branch: the test depends on
            # content values the sample document does not carry.
            return body
        test = self.test.bound()

        def if_(vm, context, output):
            if to_boolean(test(context)):
                body(vm, context, output)

        return if_


class ChooseInstr(Instruction):
    """``<xsl:choose>`` with ``when`` branches and optional ``otherwise``."""

    def __init__(self, whens, otherwise):
        self.whens = whens            # list of (test expr, body)
        self.otherwise = otherwise    # body or []

    def child_bodies(self):
        return tuple(body for _, body in self.whens) + (self.otherwise,)

    def bind(self, program):
        bodies = [program.body(body) for _, body in self.whens]
        otherwise = program.body(self.otherwise)
        if program.explore:
            def every_branch(vm, context, output):
                for body in bodies:
                    body(vm, context, output)
                otherwise(vm, context, output)

            return every_branch
        whens = [(test.bound(), body)
                 for (test, _), body in zip(self.whens, bodies)]

        def choose(vm, context, output):
            for test, body in whens:
                if to_boolean(test(context)):
                    return body(vm, context, output)
            otherwise(vm, context, output)

        return choose


class VariableInstr(Instruction):
    """``<xsl:variable>`` — its closure *returns* the context extended with
    the new binding, which the enclosing body threads into the following
    siblings."""

    def __init__(self, name, select=None, body=None):
        self.name = name
        self.select = select
        self.body = body or []

    def child_bodies(self):
        return (self.body,)

    def bind(self, program):
        name, value = self.name, program.value(self.select, self.body)
        return lambda vm, context, output: context.with_variables(
            {name: value(vm, context)})


class ParamInstr(VariableInstr):
    """``<xsl:param>`` — like a variable, but the caller may override."""


class CopyInstr(Instruction):
    """``<xsl:copy>`` — shallow copy of the context node."""

    def __init__(self, body):
        self.body = body

    def child_bodies(self):
        return (self.body,)

    def bind(self, program):
        body = program.body(self.body)

        def copy(vm, context, output):
            node = context.node
            kind = node.kind
            if kind == NodeKind.ELEMENT:
                output.start_element(node.name, node.namespaces)
                body(vm, context, output)
                output.end_element()
            elif kind == NodeKind.DOCUMENT:
                body(vm, context, output)
            elif kind == NodeKind.TEXT:
                output.text(node.value)
            elif kind == NodeKind.ATTRIBUTE:
                output.attribute(node.name, node.value)
            elif kind == NodeKind.COMMENT:
                output.comment(node.value)
            elif kind == NodeKind.PI:
                output.processing_instruction(node.target, node.value)

        return copy


class CopyOfInstr(Instruction):
    """``<xsl:copy-of select=...>`` — deep copy of the selected value."""

    def __init__(self, select):
        self.select = select

    def bind(self, program):
        select = self.select.bound()

        def copy_of(vm, context, output):
            value = select(context)
            for item in value if isinstance(value, list) else (value,):
                if isinstance(item, Node):
                    output.copy_node(item)
                else:
                    output.text(to_string(item))

        return copy_of


class ElementInstr(Instruction):
    """``<xsl:element name={...}>``."""

    def __init__(self, name_avt, body):
        self.name_avt = name_avt
        self.body = body

    def child_bodies(self):
        return (self.body,)

    def bind(self, program):
        name, body = self.name_avt.compile(), program.body(self.body)

        def element(vm, context, output):
            output.start_element(QName(name(context)))
            body(vm, context, output)
            output.end_element()

        return element


class AttributeInstr(Instruction):
    """``<xsl:attribute name={...}>``."""

    def __init__(self, name_avt, body):
        self.name_avt = name_avt
        self.body = body

    def child_bodies(self):
        return (self.body,)

    def bind(self, program):
        name, text = self.name_avt.compile(), program.text_of(self.body)
        return lambda vm, context, output: output.attribute(
            QName(name(context)), text(vm, context))


class CommentInstr(Instruction):
    """``<xsl:comment>``."""

    def __init__(self, body):
        self.body = body

    def child_bodies(self):
        return (self.body,)

    def bind(self, program):
        text = program.text_of(self.body)
        return lambda vm, context, output: output.comment(text(vm, context))


class PiInstr(Instruction):
    """``<xsl:processing-instruction name={...}>``."""

    def __init__(self, name_avt, body):
        self.name_avt = name_avt
        self.body = body

    def child_bodies(self):
        return (self.body,)

    def bind(self, program):
        target, text = self.name_avt.compile(), program.text_of(self.body)
        return lambda vm, context, output: output.processing_instruction(
            target(context), text(vm, context))


class ApplyImportsInstr(Instruction):
    """``<xsl:apply-imports/>`` — re-match the current node using only
    rules of lower import precedence than the current template's."""

    def bind(self, program):
        site = self
        return lambda vm, context, output: vm.program.apply_imports(
            vm, context, output, site)


class FallbackInstr(Instruction):
    """``<xsl:fallback>`` — inert in a plain XSLT 1.0 processor (its body
    only runs inside an unsupported extension element, which this
    processor rejects at compile time anyway)."""

    def __init__(self, body):
        self.body = body

    def child_bodies(self):
        return (self.body,)

    def bind(self, program):
        return lambda vm, context, output: None


class NumberInstr(Instruction):
    """``<xsl:number>`` — level="single"/"any", formats 1 a A i I."""

    def __init__(self, level="single", count=None, from_=None, value=None,
                 format_avt=None):
        self.level = level
        self.count = count        # Pattern or None (defaults to node's name)
        self.from_ = from_        # Pattern or None
        self.value = value        # Expr or None
        self.format_avt = format_avt

    def bind(self, program):
        if self.value is not None:
            value = self.value.bound()
            number = lambda context: int(to_number(value(context)))  # noqa: E731
        else:
            number = program.counter(self.level, self.count, self.from_)
        format_spec = (
            self.format_avt.compile() if self.format_avt
            else lambda context: "1"
        )
        return lambda vm, context, output: output.text(
            format_number_token(number(context), format_spec(context)))


def format_number_token(number, format_spec):
    """Format one number per the xsl:number format tokens 1/a/A/i/I."""
    token = format_spec or "1"
    suffix = ""
    if len(token) > 1 and token[-1] in ".)]":
        token, suffix = token[:-1], token[-1]
    if token == "a":
        return _alphabetic(number).lower() + suffix
    if token == "A":
        return _alphabetic(number) + suffix
    if token == "i":
        return _roman(number).lower() + suffix
    if token == "I":
        return _roman(number) + suffix
    # '1', '01', ... zero padding to the token's width
    return str(number).zfill(len(token)) + suffix


def _alphabetic(number):
    out = []
    while number > 0:
        number, remainder = divmod(number - 1, 26)
        out.append(chr(ord("A") + remainder))
    return "".join(reversed(out)) or "A"


_ROMAN = [
    (1000, "M"), (900, "CM"), (500, "D"), (400, "CD"), (100, "C"),
    (90, "XC"), (50, "L"), (40, "XL"), (10, "X"), (9, "IX"),
    (5, "V"), (4, "IV"), (1, "I"),
]


def _roman(number):
    if number <= 0:
        return str(number)
    out = []
    for value, glyph in _ROMAN:
        while number >= value:
            out.append(glyph)
            number -= value
    return "".join(out)


class MessageInstr(Instruction):
    """``<xsl:message>`` — collected on the VM; may terminate."""

    def __init__(self, body, terminate=False):
        self.body = body
        self.terminate = terminate

    def child_bodies(self):
        return (self.body,)

    def bind(self, program):
        text, terminate = program.text_of(self.body), self.terminate

        def message(vm, context, output):
            message = text(vm, context)
            vm.messages.append(message)
            if terminate:
                raise XsltRuntimeError("xsl:message terminate: %s" % message)

        return message
