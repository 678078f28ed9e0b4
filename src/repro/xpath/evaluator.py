"""Convenience entry point for evaluating XPath expressions."""

from __future__ import annotations

from repro.xpath.context import XPathContext
from repro.xpath.parser import compile_xpath


def evaluate_xpath(source, node, variables=None, namespaces=None, functions=None):
    """Compile and evaluate ``source`` with ``node`` as the context node.

    Returns an XPath value: node list, string, float or bool.
    """
    expr = compile_xpath(source)
    context = XPathContext(
        node,
        variables=variables,
        namespaces=namespaces,
        functions=functions,
    )
    return expr.evaluate(context)
