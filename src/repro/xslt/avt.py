"""Attribute value templates: ``"border-{$width}px"``.

An AVT is compiled into a list of parts, each either a literal string or a
compiled XPath expression; ``{{`` and ``}}`` escape literal braces.
"""

from __future__ import annotations

from repro.errors import XsltCompileError
from repro.xpath.datamodel import to_string
from repro.xpath.parser import compile_xpath


class Avt:
    """A compiled attribute value template."""

    __slots__ = ("parts", "source")

    def __init__(self, parts, source):
        self.parts = parts  # list of str (literal) or Expr (expression)
        self.source = source

    def compile(self):
        """``value(context) -> str`` over the parts' bound closures."""
        parts = [part if isinstance(part, str) else part.bound()
                 for part in self.parts]
        if len(parts) == 1:
            part = parts[0]
            if isinstance(part, str):
                return lambda context: part
            return lambda context: to_string(part(context))
        return lambda context: "".join([
            part if isinstance(part, str) else to_string(part(context))
            for part in parts
        ])

    @property
    def is_constant(self):
        return all(isinstance(part, str) for part in self.parts)

    def constant_value(self):
        assert self.is_constant
        return "".join(self.parts)

    def __repr__(self):
        return "Avt(%r)" % self.source


def compile_avt(source):
    """Compile an attribute value template string."""
    parts = []
    literal = []
    pos = 0
    length = len(source)
    while pos < length:
        char = source[pos]
        if char == "{":
            if source.startswith("{{", pos):
                literal.append("{")
                pos += 2
                continue
            end = source.find("}", pos + 1)
            if end < 0:
                raise XsltCompileError(
                    "unterminated '{' in attribute value template %r" % source
                )
            if literal:
                parts.append("".join(literal))
                literal = []
            expression = source[pos + 1:end]
            if not expression.strip():
                raise XsltCompileError(
                    "empty expression in attribute value template %r" % source
                )
            parts.append(compile_xpath(expression))
            pos = end + 1
        elif char == "}":
            if source.startswith("}}", pos):
                literal.append("}")
                pos += 2
                continue
            raise XsltCompileError(
                "unescaped '}' in attribute value template %r" % source
            )
        else:
            literal.append(char)
            pos += 1
    if literal:
        parts.append("".join(literal))
    if not parts:
        parts.append("")
    return Avt(parts, source)
