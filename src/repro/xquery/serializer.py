"""Render XQuery ASTs back to query text.

The XSLT rewrite emits ASTs; this serializer produces the human-readable
query text shown in the paper's Table 8 — including ``(: ... :)`` comments
that the generator attaches to expressions via the ``xq_comment`` attribute.
Output is re-parseable by :func:`repro.xquery.parser.parse_xquery`.
"""

from __future__ import annotations

from repro.xquery import ast as xq
from repro.xpath.ast import Expr


def xquery_to_text(node):
    """Serialize a Module or expression to XQuery text."""
    writer = _Writer()
    if isinstance(node, xq.Module):
        _render_module(node, writer)
    else:
        _render(node, writer)
    return writer.text()


class _Writer:
    def __init__(self):
        self.parts = []
        self.indent = 0
        self.at_line_start = True

    def write(self, text):
        if self.at_line_start and text:
            self.parts.append("  " * self.indent)
            self.at_line_start = False
        self.parts.append(text)

    def newline(self):
        self.parts.append("\n")
        self.at_line_start = True

    def text(self):
        return "".join(self.parts)


def _render_module(module, writer):
    for declaration in module.variables:
        writer.write("declare variable $%s := " % declaration.name)
        _render(declaration.expr, writer)
        writer.write(";")
        writer.newline()
    for declaration in module.functions:
        writer.write(
            "declare function %s(%s) {"
            % (
                declaration.name,
                ", ".join("$%s" % param for param in declaration.params),
            )
        )
        writer.newline()
        writer.indent += 1
        _render(declaration.body, writer)
        writer.newline()
        writer.indent -= 1
        writer.write("};")
        writer.newline()
    _render(module.body, writer)
    writer.newline()


def _render(node, writer):
    comment = getattr(node, "xq_comment", None)
    if comment:
        writer.write("(: %s :)" % comment)
        writer.newline()
    renderer = _RENDERERS.get(type(node))
    if renderer is not None:
        renderer(node, writer)
    else:
        writer.write(node.to_text())


def _render_flwor(node, writer):
    for clause in node.clauses:
        if isinstance(clause, xq.ForClause):
            writer.write("for $%s " % clause.variable)
            if clause.position_variable:
                writer.write("at $%s " % clause.position_variable)
            writer.write("in ")
            _render_inline(clause.expr, writer)
        elif isinstance(clause, xq.LetClause):
            writer.write("let $%s := " % clause.variable)
            _render_inline(clause.expr, writer)
        elif isinstance(clause, xq.WhereClause):
            writer.write("where ")
            _render_inline(clause.expr, writer)
        elif isinstance(clause, xq.OrderByClause):
            writer.write("order by ")
            for index, spec in enumerate(clause.specs):
                if index:
                    writer.write(", ")
                _render_inline(spec.expr, writer)
                if spec.descending:
                    writer.write(" descending")
        writer.newline()
    writer.write("return")
    writer.newline()
    writer.indent += 1
    _render(node.return_expr, writer)
    writer.indent -= 1


def _render_inline(node, writer):
    """Render a sub-expression on the current line (no trailing newline)."""
    if isinstance(
        node,
        (xq.FlworExpr, xq.IfExpr, xq.SequenceExpr, xq.DirectElementConstructor),
    ):
        writer.write("(")
        writer.newline()
        writer.indent += 1
        _render(node, writer)
        writer.newline()
        writer.indent -= 1
        writer.write(")")
    else:
        comment = getattr(node, "xq_comment", None)
        if comment:
            writer.write("(: %s :) " % comment)
        writer.write(node.to_text())


def _render_if(node, writer):
    writer.write("if (")
    _render_inline(node.condition, writer)
    writer.write(") then")
    writer.newline()
    writer.indent += 1
    _render(node.then_expr, writer)
    writer.newline()
    writer.indent -= 1
    writer.write("else")
    writer.newline()
    writer.indent += 1
    _render(node.else_expr, writer)
    writer.indent -= 1


def _render_sequence(node, writer):
    writer.write("(")
    writer.newline()
    writer.indent += 1
    for index, item in enumerate(node.items):
        _render(item, writer)
        if index < len(node.items) - 1:
            writer.write(",")
        writer.newline()
    writer.indent -= 1
    writer.write(")")


def _render_constructor(node, writer):
    writer.write("<%s" % node.name.lexical)
    for prefix, uri in sorted(node.namespaces.items()):
        if prefix:
            writer.write(' xmlns:%s="%s"' % (prefix, uri))
        else:
            writer.write(' xmlns="%s"' % uri)
    for attribute in node.attributes:
        writer.write(' %s="' % attribute.name.lexical)
        for part in attribute.parts:
            if isinstance(part, str):
                writer.write(_escape_attr(part))
            else:
                writer.write("{")
                writer.write(part.to_text())
                writer.write("}")
        writer.write('"')
    if not node.content:
        writer.write("/>")
        return
    writer.write(">")
    # Mixed content must be rendered inline: pretty-printing would inject
    # whitespace into significant text and change the query's meaning.
    if any(isinstance(item, str) for item in node.content):
        for item in node.content:
            if isinstance(item, str):
                writer.write(_escape_text(item))
            elif isinstance(item, xq.DirectElementConstructor):
                _render_constructor(item, writer)
            else:
                writer.write("{")
                writer.write(item.to_text())
                writer.write("}")
        writer.write("</%s>" % node.name.lexical)
        return
    writer.newline()
    writer.indent += 1
    for item in node.content:
        if isinstance(item, str):
            writer.write(_escape_text(item))
            writer.newline()
        elif isinstance(item, xq.DirectElementConstructor):
            _render(item, writer)
            writer.newline()
        else:
            writer.write("{")
            writer.newline()
            writer.indent += 1
            _render(item, writer)
            writer.newline()
            writer.indent -= 1
            writer.write("}")
            writer.newline()
    writer.indent -= 1
    writer.write("</%s>" % node.name.lexical)


def _escape_text(text):
    return (
        text.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace("{", "{{")
        .replace("}", "}}")
    )


def _escape_attr(text):
    return _escape_text(text).replace('"', "&quot;")


_RENDERERS = {
    xq.FlworExpr: _render_flwor,
    xq.IfExpr: _render_if,
    xq.SequenceExpr: _render_sequence,
    xq.DirectElementConstructor: _render_constructor,
}
