"""Evaluation context for XPath (and, extended, XQuery) expressions."""

from __future__ import annotations

from repro.errors import XPathEvaluationError


class XPathContext:
    """Carries everything an expression needs at evaluation time.

    :param node: the context node (or item, for XQuery sequences).
    :param position: 1-based context position.
    :param size: context size.
    :param variables: mapping of variable name (``local`` or
        ``prefix:local``) to XPath value.
    :param namespaces: prefix → URI bindings for resolving prefixed name
        tests in the expression.
    :param functions: extra function library entries overlaid on the core
        library (the XSLT VM registers ``current()``, ``key()``, ...).
    :param current: XSLT's "current node" (for the ``current()`` function);
        defaults to the context node.
    """

    __slots__ = (
        "node",
        "position",
        "size",
        "variables",
        "namespaces",
        "functions",
        "current",
        "extra",
    )

    def __init__(
        self,
        node,
        position=1,
        size=1,
        variables=None,
        namespaces=None,
        functions=None,
        current=None,
        extra=None,
    ):
        self.node = node
        self.position = position
        self.size = size
        self.variables = variables if variables is not None else {}
        self.namespaces = namespaces if namespaces is not None else {}
        self.functions = functions if functions is not None else {}
        self.current = current if current is not None else node
        # Host-specific payload (the XSLT VM stores key indexes etc. here).
        self.extra = extra if extra is not None else {}

    def with_node(self, node, position=1, size=1):
        """A context focused on a different node, sharing the environment.

        The compiled evaluator makes one of these per predicate pass (or
        ``for-each`` / ``apply-templates`` loop) and re-points its ``node``
        and ``position`` at each candidate; nothing keeps a context past
        the evaluation it was made for."""
        return XPathContext(node, position, size, self.variables,
                            self.namespaces, self.functions, self.current,
                            self.extra)

    def with_variables(self, new_variables):
        """A context with additional variable bindings layered on."""
        merged = dict(self.variables)
        merged.update(new_variables)
        return XPathContext(self.node, self.position, self.size, merged,
                            self.namespaces, self.functions, self.current,
                            self.extra)

    def lookup_variable(self, name):
        if name in self.variables:
            return self.variables[name]
        raise XPathEvaluationError("undefined variable $%s" % name)

    def resolve_prefix(self, prefix):
        """Resolve a namespace prefix used inside the expression."""
        if prefix in self.namespaces:
            return self.namespaces[prefix]
        raise XPathEvaluationError(
            "undeclared namespace prefix %r in expression" % prefix
        )
