"""XSLT 1.0 match patterns.

A pattern is a union of *location path patterns*; a node matches if it
matches any alternative.  Matching is implemented by the reverse-step walk
the paper attributes to [6] (Moerkotte) and [9]: the node must match the
last step, its parent chain must satisfy the remaining steps, and a leading
``/`` anchors the chain at the document root.  Like the expression tree,
a pattern is plain data whose ``compile()`` returns the matcher closure;
the stylesheet program binds each rule's matcher once.  Patterns speak the
expression tree's structural protocol (``child_exprs()``, ``rebuilt(fn)``,
``without_predicates()`` over their steps' predicates).

Each alternative carries the XSLT 1.0 *default priority* (§5.5), used for
template conflict resolution:

* QName or ``processing-instruction('name')`` test → 0
* ``prefix:*`` → −0.25
* bare kind test (``*``, ``node()``, ``text()``, ...) → −0.5
* anything else (multiple steps or predicates) → +0.5
"""

from __future__ import annotations

from repro.errors import XPathSyntaxError
from repro.xmlmodel.nodes import NodeKind
from repro.xpath import lexer as lex
from repro.xpath.ast import (
    KindTest,
    Memoised,
    NameTest,
    Structure,
    bind_prefix,
    compile_predicate,
)
from repro.xpath.lexer import Lexer
from repro.xpath.parser import XPathParser

# Connectors between pattern steps.
CHILD = "/"
ANCESTOR = "//"


class StepPattern(Structure):
    """One pattern step: child or attribute axis, node test, predicates."""

    __slots__ = ("axis", "test", "predicates")
    _parts = ("predicates",)

    def __init__(self, axis, test, predicates):
        self.axis = axis
        self.test = test
        self.predicates = predicates

    def without_predicates(self):
        return self.clone(predicates=[]) if self.predicates else self

    @property
    def principal(self):
        return (
            NodeKind.ATTRIBUTE if self.axis == "attribute" else NodeKind.ELEMENT
        )

    def admits(self, node, namespaces):
        """Can this step's node test match a node of ``node``'s kind and
        name?  What a dispatch table keys on: ``True``/``False``, or
        ``None`` when the test's prefix is not in ``namespaces`` — the
        matcher decides then, raising when it is reached."""
        prefix = getattr(self.test, "prefix", None)
        if prefix is not None and prefix not in namespaces:
            return None if node.kind == self.principal else False
        match = self.test.matcher(self.principal, namespaces.get(prefix))
        return match is None or match(node)

    def compile(self):
        """``matches(node, context)``: does ``node`` satisfy this step's
        test and predicates?  Pattern predicates count position among the
        like-tested siblings."""
        principal, test = self.principal, self.test
        filters = [compile_predicate(expr) for expr in self.predicates]

        def build(uri):
            match = test.matcher(principal, uri) or (lambda node: True)
            if not filters:
                return lambda node, context: match(node)

            def step(node, context):
                if not match(node):
                    return False
                parent = node.parent
                if parent is None:
                    siblings = [node]
                elif principal == NodeKind.ATTRIBUTE:
                    siblings = [a for a in parent.attributes if match(a)]
                else:
                    siblings = [c for c in parent.children if match(c)]
                for keep in filters:
                    siblings = keep(siblings, context)
                return any(candidate is node for candidate in siblings)

            return step

        return bind_prefix(test, build)

    def to_text(self):
        prefix = "@" if self.axis == "attribute" else ""
        text = prefix + self.test.to_text()
        for predicate in self.predicates:
            text += "[%s]" % predicate.to_text()
        return text


def _chain_matches(steps, connectors, anchored, node, index, context):
    """Check steps[0..index-1] against the ancestors of ``node``."""
    if index == 0:
        if not anchored:
            return True
        parent = node.parent
        return parent is not None and parent.kind == NodeKind.DOCUMENT
    prior = steps[index - 1]
    ancestor = node.parent
    if connectors[index - 1] == CHILD:
        return (ancestor is not None and prior(ancestor, context)
                and _chain_matches(steps, connectors, anchored, ancestor,
                                   index - 1, context))
    # '//': some ancestor matches the prior step
    while ancestor is not None:
        if prior(ancestor, context) and _chain_matches(
            steps, connectors, anchored, ancestor, index - 1, context
        ):
            return True
        ancestor = ancestor.parent
    return False


class PathPattern(Memoised, Structure):
    """One alternative of a pattern: steps joined by '/' or '//'."""

    _parts = ("steps",)

    def __init__(self, steps, connectors, anchored, source=""):
        # steps[i] is joined to steps[i+1] by connectors[i]
        self.steps = steps
        self.connectors = connectors
        self.anchored = anchored
        self.source = source

    @property
    def keyed(self):
        """Decided by the node's kind and name alone: one unanchored,
        predicate-free step (the default-priority <= 0 shapes)."""
        return (len(self.steps) == 1 and not self.anchored
                and not self.steps[0].predicates)

    def compile(self):
        """``matches(node, context)`` for this alternative."""
        if not self.steps:  # the pattern "/" — matches the document node
            return lambda node, context: node.kind == NodeKind.DOCUMENT
        steps = [step.compile() for step in self.steps]
        if len(steps) == 1 and not self.anchored:
            return steps[0]
        connectors, anchored = self.connectors, self.anchored
        last, rest = steps[-1], len(steps) - 1
        return lambda node, context: last(node, context) and _chain_matches(
            steps, connectors, anchored, node, rest, context)

    def matches(self, node, context):
        return self.compile()(node, context)

    def default_priority(self):
        if len(self.steps) != 1 or self.anchored:
            return 0.5
        step = self.steps[0]
        if step.predicates:
            return 0.5
        test = step.test
        if isinstance(test, NameTest):
            if test.local == "*":
                if test.prefix is None:
                    return -0.5
                return -0.25
            return 0.0
        if isinstance(test, KindTest):
            if test.kind == NodeKind.PI and test.target is not None:
                return 0.0
            return -0.5
        return 0.5  # pragma: no cover - test kinds are exhaustive

    def to_text(self):
        if not self.steps:
            return "/"
        parts = []
        if self.anchored:
            parts.append("/")
        for index, step in enumerate(self.steps):
            if index:
                parts.append(self.connectors[index - 1])
            parts.append(step.to_text())
        return "".join(parts)


class Pattern(Memoised, Structure):
    """A full match pattern: union of :class:`PathPattern` alternatives."""

    _parts = ("alternatives",)

    def __init__(self, alternatives, source):
        self.alternatives = alternatives
        self.source = source

    def compile(self):
        alternatives = [alt.compile() for alt in self.alternatives]
        if len(alternatives) == 1:
            return alternatives[0]
        return lambda node, context: any(
            matches(node, context) for matches in alternatives)

    def matches(self, node, context):
        return self.compile()(node, context)

    def to_text(self):
        return " | ".join(alt.to_text() for alt in self.alternatives)

    def __repr__(self):
        return "Pattern(%r)" % self.source


class _PatternParser(XPathParser):
    """Parses the pattern grammar, reusing the XPath step machinery."""

    def parse_pattern(self):
        alternatives = [self.parse_location_path_pattern()]
        while self.at(lex.OPERATOR, "|"):
            self.advance()
            alternatives.append(self.parse_location_path_pattern())
        return alternatives

    def parse_location_path_pattern(self):
        anchored = False
        steps = []
        connectors = []
        token = self.peek()
        if token.type == lex.SLASH:
            self.advance()
            anchored = True
            if not self._at_pattern_step_start():
                return PathPattern([], [], anchored=True)
        elif token.type == lex.DSLASH:
            self.advance()
            # Leading '//' is equivalent to unanchored.
        steps.append(self.parse_step_pattern())
        while self.at(lex.SLASH) or self.at(lex.DSLASH):
            connector = CHILD if self.advance().type == lex.SLASH else ANCESTOR
            connectors.append(connector)
            steps.append(self.parse_step_pattern())
        return PathPattern(steps, connectors, anchored)

    def _at_pattern_step_start(self):
        return self.peek().type in (
            lex.NAME,
            lex.STAR,
            lex.NCWILD,
            lex.AT,
            lex.AXIS,
            lex.NODETYPE,
        )

    def parse_step_pattern(self):
        axis = "child"
        token = self.peek()
        if token.type == lex.AT:
            self.advance()
            axis = "attribute"
        elif token.type == lex.AXIS:
            if token.value not in ("child", "attribute"):
                raise XPathSyntaxError(
                    "patterns allow only child/attribute axes, got %r"
                    % token.value
                )
            axis = self.advance().value
        test = self.parse_node_test()
        predicates = []
        while self.at(lex.LBRACK):
            self.advance()
            predicates.append(self.parse_expr())
            self.expect(lex.RBRACK)
        return StepPattern(axis, test, predicates)


def parse_pattern(source):
    """Parse a pattern string into a :class:`Pattern`."""
    lexer = Lexer(source)
    parser = _PatternParser(lexer)
    alternatives = parser.parse_pattern()
    trailing = lexer.peek()
    if trailing.type != lex.EOF:
        raise XPathSyntaxError(
            "unexpected trailing input %r in pattern %r" % (trailing.value, source)
        )
    for alternative in alternatives:
        alternative.source = source
    return Pattern(alternatives, source)


_PATTERN_CACHE = {}
_PATTERN_CACHE_LIMIT = 1024


def compile_pattern(source):
    """Parse a pattern with memoisation."""
    pattern = _PATTERN_CACHE.get(source)
    if pattern is None:
        pattern = parse_pattern(source)
        if len(_PATTERN_CACHE) >= _PATTERN_CACHE_LIMIT:
            _PATTERN_CACHE.clear()
        _PATTERN_CACHE[source] = pattern
    return pattern
