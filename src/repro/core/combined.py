"""Combined XSLT + XQuery optimisation (paper §2.2, example 2).

An XSLT view wraps ``XMLTransform()`` (Table 9); a further ``XMLQuery()``
FLWOR runs over its result (Table 10).  The combined rewrite:

1. rewrites the XSLT view into a SQL/XML query over the base tables
   (the example-1 pipeline);
2. derives the structure of the *transformed* XML from that query's
   construction expression — "the static typing result of the equivalent
   XQuery" (§3.2);
3. merges the user's XQuery into it, producing one relational query with
   no XML navigation at all — the paper's Table 11.
"""

from __future__ import annotations

from repro.errors import RewriteError
from repro.xquery.ast import Module
from repro.xquery.parser import parse_xquery
from repro.core.pipeline import XsltRewriter, compile_context
from repro.core.sql_rewrite import SqlRewriter


def rewrite_xquery_over_view(user_query, view, fragment_ok=True):
    """Merge a user XQuery (text or parsed Module) into an XMLType view.

    This is the generic ``XMLQuery(... PASSING view_column)`` rewrite; the
    view may itself be the output of an XSLT rewrite.  ``view`` is its
    query, a :class:`~repro.rdb.database.View` or an object-relational
    storage (whose structure every compile against it shares).
    """
    if not isinstance(user_query, Module):
        user_query = parse_xquery(user_query)
    context = compile_context(view)
    rewriter = SqlRewriter(context.view_query, context.rooted(fragment_ok))
    return rewriter.rewrite_module(user_query)


def compose_modules(inner, outer, prefix="i_"):
    """Splice one XQuery module's result in as another's context document.

    The outer module must start with ``declare variable $X := .`` (the
    shape our generator emits); that variable is re-bound to
    ``document { <inner body> }`` so the outer query's child steps work.
    Inner names are prefixed to avoid collisions.
    """
    from repro.xpath.ast import is_context_item
    from repro.xquery.ast import DocumentConstructor, Module, VariableDecl
    from repro.xquery.rename import prefix_module

    if not outer.variables or not is_context_item(outer.variables[0].expr):
        raise RewriteError(
            "the outer module must bind its context item first"
        )
    inner_renamed = prefix_module(inner, prefix)
    context_declaration = VariableDecl(
        outer.variables[0].name,
        DocumentConstructor(inner_renamed.body),
    )
    return Module(
        list(inner_renamed.variables)
        + [context_declaration]
        + list(outer.variables[1:]),
        list(inner_renamed.functions) + list(outer.functions),
        outer.body,
    )


def rewrite_xslt_over_xquery(stylesheet, inner_module, input_schema):
    """XSLT over an XQuery-defined XMLType (§3.2, third bullet).

    The inner query's *result* structure is derived by static typing
    (:mod:`repro.xquery.static_type`); the stylesheet is partially
    evaluated against it; the two queries are composed into one module.

    :returns: ``(composed_module, outcome)``.
    """
    from repro.xquery.static_type import infer_result_schema
    from repro.core.pipeline import XsltRewriter

    result_schema = infer_result_schema(inner_module, input_schema)
    outcome = XsltRewriter().rewrite_to_xquery(stylesheet, result_schema)
    composed = compose_modules(inner_module, outcome.xquery_module)
    return composed, outcome


def rewrite_combined(stylesheet, base_view_query, user_query):
    """The full example-2 pipeline.

    :param stylesheet: the XSLT applied by the XSLT view (Table 9);
    :param base_view_query: the underlying XMLType view (Table 3);
    :param user_query: the XQuery over the XSLT result (Table 10);
    :returns: ``(combined_sql_query, xslt_outcome)`` — the optimal
        relational query (Table 11) and the intermediate XSLT rewrite.
    """
    outcome = XsltRewriter().rewrite_view(stylesheet, base_view_query)
    if outcome.sql_query is None:
        raise RewriteError("the XSLT view itself could not be rewritten")
    combined = rewrite_xquery_over_view(user_query, outcome.sql_query)
    return combined, outcome
