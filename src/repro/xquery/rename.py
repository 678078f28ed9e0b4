"""Uniform variable/function renaming over XQuery ASTs.

Used when composing two generated modules (e.g. XSLT over an XQuery view):
both generators number their variables ``$var000, $var002, ...``, so the
inner module's names are prefixed before splicing.  Renaming is uniform —
every variable and every ``local:`` function name gets the prefix — which
is safe because generated modules are closed except for the context item.
The tree copy is ``rebuilt()``; what is written here is the places a name
lives: references, calls, ``for``/``let``/quantifier binders, declarations
— each renamed on a ``clone()``, never on the node handed in (it may be
shared).
"""

from __future__ import annotations

from repro.xpath import ast as xp
from repro.xquery import ast as xq


def prefix_module(module, prefix):
    """A copy of ``module`` with every variable and local: function name
    prefixed."""

    def renamed(expr):
        expr = expr.rebuilt(renamed)
        if isinstance(expr, xp.VariableRef):
            return expr.clone(name=prefix + expr.name)
        if isinstance(expr, xq.UserFunctionCall):
            return expr.clone(name=_prefix_function(expr.name, prefix))
        if isinstance(expr, xq.FlworExpr):
            return expr.clone(
                clauses=[binder(clause) for clause in expr.clauses])
        if isinstance(expr, xq.QuantifiedExpr):
            return expr.clone(bindings=[
                (prefix + variable, bound)
                for variable, bound in expr.bindings])
        return expr

    def binder(clause):
        if isinstance(clause, xq.ForClause):
            position = clause.position_variable
            return clause.clone(
                variable=prefix + clause.variable,
                position_variable=position and prefix + position)
        if isinstance(clause, xq.LetClause):
            return clause.clone(variable=prefix + clause.variable)
        return clause

    variables = [
        xq.VariableDecl(prefix + declaration.name, renamed(declaration.expr))
        for declaration in module.variables
    ]
    functions = [
        xq.FunctionDecl(
            _prefix_function(declaration.name, prefix),
            [prefix + param for param in declaration.params],
            renamed(declaration.body),
        )
        for declaration in module.functions
    ]
    return xq.Module(variables, functions, renamed(module.body))


def _prefix_function(name, prefix):
    namespace, _, local = name.rpartition(":")
    if namespace:
        return "%s:%s%s" % (namespace, prefix, local)
    return prefix + name
