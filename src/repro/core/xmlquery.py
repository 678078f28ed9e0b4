"""The SQL/XML *query* function equivalents the paper's introduction lists:
``XMLQuery()``, ``XMLExists()``/``existsNode()`` and ``extract()``, each
rewritten against the XMLType view instead of evaluated functionally.

``rewrite_xquery_over_view`` (in :mod:`repro.core.combined`) is the
``XMLQuery()`` rewrite; this module adds:

* :func:`rewrite_xml_exists` — ``SELECT ... FROM v WHERE XMLExists(col,
  path)`` becomes a relational filter over the view's base plan (index-
  eligible when the path carries a value predicate);
* :func:`rewrite_extract` — ``extract(col, path)`` becomes a projection of
  the view's construction for the selected elements.

Both fall back by raising :class:`RewriteError`, like everything else in
the pipeline.
"""

from __future__ import annotations

from repro.errors import RewriteError
from repro.xquery.parser import parse_xquery
from repro.core.pipeline import compile_context
from repro.core.sql_rewrite import SqlRewriter


def _module_body(path_text):
    module = parse_xquery(path_text)
    if module.variables or module.functions:
        raise RewriteError("a plain path expression is expected")
    return module.body


def _rewriter(view, fragment_ok):
    """A :class:`SqlRewriter` over ``view`` — a view query, a
    :class:`~repro.rdb.database.View` or an object-relational storage,
    whose structure is then the one derived for every compile."""
    context = compile_context(view)
    return SqlRewriter(context.view_query, context.rooted(fragment_ok))


def rewrite_xml_exists(view, path_text, fragment_ok=True):
    """``XMLExists(view_column, path)`` as a relational query.

    Returns a :class:`Query` producing the view's rows (all original output
    columns) restricted to those whose XML value contains the path.
    """
    rewriter = _rewriter(view, fragment_ok)
    env = rewriter.context_env()
    condition = rewriter._condition(_module_body(path_text), env)
    return rewriter.view_rows(
        [(name, rewriter._own(expr))
         for name, expr in rewriter.view_query.outputs], condition)


def rewrite_extract(view, path_text, fragment_ok=True):
    """``extract(view_column, path)`` as a relational query.

    Returns a :class:`Query` with one XML output per view row: the
    selected elements, reconstructed directly from the base tables.
    """
    rewriter = _rewriter(view, fragment_ok)
    env = rewriter.context_env()
    output = rewriter._copy_of(_module_body(path_text), env)
    return rewriter.view_rows([(None, output)])
