"""XQuery → SQL/XML rewrite (paper §2.1, Tables 7/11; refs [3,4]).

Merges a generated (or user) XQuery module into the SQL/XML view that
produces its input: path expressions over the view's constructed XML are
resolved against the view's construction expression, turning navigation
into column references and FLWOR iteration over repeating elements into
correlated subqueries over the underlying tables — where the relational
optimizer can then choose B-tree indexes for the residual value predicates.

The result contains *no XML operators over the input* at all: only SQL/XML
generation functions over base-table columns (the paper's Table 7 shape).

Unsupported shapes raise :class:`RewriteError`; callers fall back to
evaluating the XQuery over materialised documents.

The view is read, never written: a storage's view and structure are
shared by every compile against it, so each view node the merged query
could have numbered, costed or rewritten in place is placed as this
compile's own copy (:meth:`SqlRewriter._own`).
"""

from __future__ import annotations

from repro.errors import RewriteError
from repro.rdb import expressions as sqle
from repro.rdb import sqlxml
from repro.rdb.plan import Filter, Query
from repro.xpath import ast as xp
from repro.xquery import ast as xq


def _filtered(plan, conditions):
    """``plan`` under one :class:`Filter` with the conjuncts folded into
    an AND tree — the planner's conjunct-splitting convention — rather
    than a stack of single-condition Filters."""
    conditions = list(conditions)
    if not conditions:
        return plan
    predicate = conditions[0]
    for condition in conditions[1:]:
        predicate = sqle.BinOp("AND", predicate, condition)
    return Filter(plan, predicate)


def _is_number(expr):
    """Statically a number: a declared-numeric column, a numeric literal."""
    return getattr(expr, "numeric", False) or (
        isinstance(expr, sqle.Const) and type(expr.value) in (int, float))


#: the translated XPath functions whose value is a number
_NUMBER_FUNCTIONS = frozenset([
    "number", "count", "sum", "avg", "min", "max", "string-length"])


def _is_xpath_number(expr):
    """An XPath expression whose value is statically a number."""
    return isinstance(expr, (xp.NumberLiteral, xp.UnaryMinus)) or (
        isinstance(expr, xp.BinaryOp)
        and expr.op in ("+", "-", "*", "div", "mod")) or (
        isinstance(expr, xp.FunctionCall) and expr.name in _NUMBER_FUNCTIONS)


def _as_text(expr):
    """``expr`` where XPath compares text: a declared-numeric column by
    the text it serializes to (NULL stays NULL)."""
    if getattr(expr, "numeric", False):
        return sqle.FuncCall("TO_CHAR", [expr])
    return expr


def _number(expr):
    """``expr`` where XPath wants a number: cast unless statically one."""
    return expr if _is_number(expr) else sqle.FuncCall("NUMBER", [expr])


def _sort_key(key):
    """A numeric sort key that had to be cast: NaN becomes NULL (``k = k``
    fails only for NaN), which sorts where ``xsl:sort`` puts a non-number."""
    if isinstance(key, sqle.FuncCall) and key.name == "NUMBER":
        return sqle.CaseWhen([(sqle.BinOp("=", key, key), key)])
    return key


class SqlRewriter:
    """Rewrites one XQuery module against one XMLType view."""

    def __init__(self, view_query, view_structure, ledger=None):
        self.view_query = view_query
        self.structure = view_structure
        #: DecisionLedger — FLWOR variables are bound to the subquery plan
        #: they become, completing the XSLT → XQuery → SQL provenance chain
        self.ledger = ledger
        self._copy_on_place = view_structure.copy_on_place
        self._owned = {}  # id(view node) -> this rewrite's copy (_own)

    def _own(self, node):
        """``node`` of the view as this rewrite places it: the view's own
        object when no compile writes into it, else one copy per view
        node — placed twice, it is one node, as when every compile built
        its own view.  What the merged query then undergoes (plan node
        numbering, cost stamps, the optimizer's in-place rewrites) touches
        only nodes this compile owns (``ViewStructure.copy_on_place``)."""
        key = id(node)
        if key not in self._copy_on_place:
            return node
        owned = self._owned.get(key)
        if owned is None:
            owned = self._owned[key] = self._copy(node)
        return owned

    def _copy(self, node):
        """A copy of the view node ``node`` whose parts are this rewrite's
        (:meth:`_own`): a :class:`ScalarSubquery` over a new query,
        anything else a shallow copy with each attribute — and each item
        of a list or pair in one — owned."""
        own = self._own
        if isinstance(node, sqle.ScalarSubquery):
            query = node.query
            return sqle.ScalarSubquery(Query(
                own(query.plan),
                [(name, own(expr)) for name, expr in query.outputs]))
        marked = self._copy_on_place
        clone = object.__new__(type(node))
        state = clone.__dict__
        for name, value in vars(node).items():
            if isinstance(value, (list, tuple)):
                value = _owned_items(value, own)
            elif id(value) in marked:
                value = own(value)
            state[name] = value
        return clone

    def view_rows(self, outputs, condition=None):
        """A query producing ``outputs`` per view row (those ``condition``
        keeps), over this rewrite's copy of the view's plan."""
        plan = self._own(self.view_query.plan)
        if condition is not None:
            plan = Filter(plan, condition)
        return Query(plan, outputs)

    def context_env(self):
        """A fresh environment with '.' bound to the view's XML value."""
        root_decl = self.structure.schema.root
        if root_decl.name == "#fragment":
            context_target = _ElementTarget(
                self.structure.source_of(root_decl), root_decl, "1"
            )
        else:
            context_target = _DocTarget(self.structure)
        return {".": context_target}

    def rewrite_module(self, module, context_var=None):
        """Translate the module body; returns a relational :class:`Query`
        producing one XML value per view row."""
        if module.functions:
            raise RewriteError(
                "non-inline (function) XQuery cannot be merged into the view"
            )
        env = self.context_env()
        body = module.body
        context_target = env["."]
        declared = list(module.variables)
        if declared and xp.is_context_item(declared[0].expr):
            first = declared.pop(0)
            env[first.name] = context_target
        for declaration in declared:
            env[declaration.name] = _ScalarBinding(
                self._scalar(declaration.expr, env)
            )
        return self.view_rows([(None, self._xml(body, env))])

    # -- XML-content context ------------------------------------------------------

    def _xml(self, expr, env):
        if isinstance(expr, xq.DirectElementConstructor):
            return self._constructor(expr, env)
        if isinstance(expr, xq.SequenceExpr):
            return sqlxml.XMLConcat(
                [self._xml(item, env) for item in expr.items]
            )
        if isinstance(expr, xq.EmptySequence):
            return sqle.Const(None)
        if isinstance(expr, xp.Literal):
            return sqle.Const(expr.value)
        if isinstance(expr, xq.FlworExpr):
            return self._flwor(expr, env, self._xml)
        if isinstance(expr, xq.IfExpr):
            return sqle.CaseWhen(
                [(self._condition(expr.condition, env),
                  self._xml(expr.then_expr, env))],
                self._xml(expr.else_expr, env),
            )
        if isinstance(expr, xq.ComputedTextConstructor):
            return self._scalar(expr.expr, env)  # a text node's content
        if isinstance(expr, xp.FunctionCall):
            return self._scalar(expr, env)  # string content
        if isinstance(expr, (xp.PathExpr, xp.VariableRef)):
            return self._copy_of(expr, env)
        if isinstance(expr, xp.BinaryOp):
            return self._scalar(expr, env)
        raise RewriteError(
            "cannot translate %s in XML content" % type(expr).__name__
        )

    def _constructor(self, expr, env):
        attributes = []
        for attribute in expr.attributes:
            parts = [
                sqle.Const(part) if isinstance(part, str)
                else self._scalar(part, env)
                for part in attribute.parts
            ]
            value = parts[0] if parts else sqle.Const("")
            for part in parts[1:]:
                value = sqle.BinOp("||", value, part)
            attributes.append((attribute.name.lexical, value))
        content = []
        for item in expr.content:
            if isinstance(item, str):
                content.append(sqle.Const(item))
            else:
                content.append(self._xml(item, env))
        return sqlxml.XMLElement(
            expr.name.lexical, *content, attributes=attributes
        )

    def _flwor(self, expr, env, body_translator):
        clauses = list(expr.clauses)
        if not clauses:
            return body_translator(expr.return_expr, env)
        clause = clauses.pop(0)
        rest = xq.FlworExpr(clauses, expr.return_expr)

        if isinstance(clause, xq.LetClause):
            target = self._value_target(clause.expr, env)
            inner_env = dict(env)
            inner_env[clause.variable] = target
            return self._flwor(rest, inner_env, body_translator)

        if isinstance(clause, xq.ForClause):
            if clause.position_variable:
                raise RewriteError("positional for-variables are unsupported")
            order_by = None
            if clauses and isinstance(clauses[0], xq.OrderByClause):
                order_by = clauses.pop(0)
                rest = xq.FlworExpr(clauses, expr.return_expr)
            return self._for_clause(
                clause, order_by, rest, env, body_translator
            )

        raise RewriteError(
            "unsupported FLWOR clause %s" % type(clause).__name__
        )

    def _for_clause(self, clause, order_by, rest, env, body_translator):
        target = self._resolve(clause.expr, env)
        if isinstance(target, _TextTarget):
            inner_env = dict(env)
            inner_env[clause.variable] = target
            return self._flwor(rest, inner_env, body_translator)
        if isinstance(target, _ElementTarget):
            # FOR over an at-most-one child behaves like LET when the child
            # is required; optional leaves guard on NULL.
            inner_env = dict(env)
            inner_env[clause.variable] = target
            body = self._flwor(rest, inner_env, body_translator)
            if target.occurs == "?" and target.source.text_expr is not None:
                return sqle.CaseWhen(
                    [(sqle.IsNull(self._own(target.source.text_expr),
                                  negated=True), body)],
                    sqle.Const(None),
                )
            if target.occurs == "?":
                raise RewriteError(
                    "FOR over an optional non-leaf child is unsupported"
                )
            return body
        if isinstance(target, _ManyTarget):
            inner_env = dict(env)
            inner_env[clause.variable] = _ElementTarget(
                target.source, target.decl, "1", parent=target.parent
            )
            inner = body_translator(
                xq.FlworExpr(rest.clauses, rest.return_expr), inner_env
            )
            order_specs = list(target.order_by)
            if order_by is not None:
                order_specs = [
                    (_sort_key(self._scalar(spec.expr, inner_env)),
                     spec.descending)
                    for spec in order_by.specs
                ]
            plan = _filtered(target.plan, target.conditions)
            subquery = Query(
                plan, [(None, sqlxml.XMLAgg(inner, order_by=order_specs))]
            )
            scalar = sqle.ScalarSubquery(subquery)
            if self.ledger is not None:
                self.ledger.bind_sql_variable(clause.variable, scalar)
            return scalar
        raise RewriteError("cannot iterate this path")

    def _copy_of(self, expr, env):
        """A bare path/variable in content: embed the view's construction
        of the selected elements (copy semantics)."""
        target = self._resolve(expr, env)
        if isinstance(target, _TextTarget):
            return target.expr
        if isinstance(target, _ElementTarget):
            return self._reconstruct(target)
        if isinstance(target, _ManyTarget):
            if target.leaf_expr is not None:
                # the path continued below the repeating element to a leaf
                inner = sqlxml.XMLElement(
                    target.leaf_decl.name, target.leaf_expr
                )
            else:
                inner = self._reconstruct(
                    _ElementTarget(target.source, target.decl, "1")
                )
            plan = _filtered(target.plan, target.conditions)
            return sqle.ScalarSubquery(
                Query(plan, [(None, sqlxml.XMLAgg(
                    inner, order_by=list(target.order_by)
                ))])
            )
        raise RewriteError("cannot copy this path")

    def _reconstruct(self, target):
        if target.source.constructor is not None:
            return self._own(target.source.constructor)
        # XMLForest-backed leaf: rebuild the element from its text expr.
        return sqlxml.XMLElement(target.decl.name,
                                 self._own(target.source.text_expr))

    # -- scalar context ---------------------------------------------------------

    def _scalar(self, expr, env):
        if isinstance(expr, xp.Literal):
            return sqle.Const(expr.value)
        if isinstance(expr, xp.NumberLiteral):
            value = expr.value
            if value == int(value):
                value = int(value)
            return sqle.Const(value)
        if isinstance(expr, xp.VariableRef):
            target = env.get(expr.name)
            if target is None:
                raise RewriteError("unbound variable $%s" % expr.name)
            return self._string_of_target(target)
        if isinstance(expr, xp.FunctionCall):
            return self._scalar_function(expr, env)
        if isinstance(expr, xp.BinaryOp):
            if expr.op in ("+", "-", "*", "div", "mod"):
                left = self._scalar(expr.left, env)
                right = self._scalar(expr.right, env)
                if expr.op in ("div", "mod"):  # XPath's own, not SQL's
                    return sqle.FuncCall(expr.op.upper(), [left, right])
                return sqle.BinOp(expr.op, left, right)
            raise RewriteError("operator %r in scalar context" % expr.op)
        if isinstance(expr, xp.PathExpr):
            return self._string_of_target(self._resolve(expr, env))
        if isinstance(expr, xp.ContextItem):
            return self._string_of_target(self._context(env))
        if isinstance(expr, xq.IfExpr):
            return sqle.CaseWhen(
                [(self._condition(expr.condition, env),
                  self._scalar(expr.then_expr, env))],
                self._scalar(expr.else_expr, env),
            )
        raise RewriteError(
            "cannot translate %s in scalar context" % type(expr).__name__
        )

    def _scalar_function(self, expr, env):
        name = expr.name
        if name == "string":
            if not expr.args:
                return self._string_of_target(self._context(env))
            return self._scalar(expr.args[0], env)
        if name == "concat":
            out = self._scalar(expr.args[0], env)
            for arg in expr.args[1:]:
                out = sqle.BinOp("||", out, self._scalar(arg, env))
            return out
        if name == "string-join":
            return self._string_join(expr, env)
        if name == "normalize-space" and len(expr.args) == 1:
            return sqle.FuncCall("NORMALIZE_SPACE",
                                 [self._scalar(expr.args[0], env)])
        if name == "string-length":
            return sqle.FuncCall("LENGTH", [self._scalar(expr.args[0], env)])
        if name == "number" and expr.args:
            return _number(self._scalar(expr.args[0], env))
        if name in ("name", "local-name") and len(expr.args) == 1:
            target = self._resolve(expr.args[0], env)
            if isinstance(target, _ElementTarget):
                # the element type is statically known from the view
                return sqle.Const(target.decl.name)
            raise RewriteError("%s() over a non-element path" % name)
        if name in ("count", "sum", "avg", "min", "max"):
            return self._aggregate_function(name, expr, env)
        if name == "substring-before" or name == "substring-after":
            raise RewriteError("%s() is not translated" % name)
        raise RewriteError("function %s() is not translated" % name)

    def _aggregate_function(self, name, expr, env):
        target = self._resolve(expr.args[0], env)
        agg_name = name.upper()
        if isinstance(target, _ManyTarget):
            plan = _filtered(target.plan, target.conditions)
            if agg_name == "COUNT":
                aggregate = sqlxml.AggCall("COUNT")
            else:
                if target.leaf_expr is None:
                    raise RewriteError(
                        "%s() needs a leaf path" % name
                    )
                aggregate = sqlxml.AggCall(agg_name,
                                           _number(target.leaf_expr))
            subquery = sqle.ScalarSubquery(Query(plan, [(None, aggregate)]))
            if agg_name == "SUM":
                # XPath sum() of an empty node-set is 0; SQL SUM is NULL.
                return sqle.FuncCall("COALESCE", [subquery, sqle.Const(0)])
            return subquery
        raise RewriteError("%s() over a non-repeating path" % name)

    def _string_join(self, expr, env):
        """Translates the §3.6 compact form: string-join over text()."""
        if len(expr.args) != 2 or not isinstance(expr.args[1], xp.Literal):
            raise RewriteError("unsupported string-join() shape")
        separator = expr.args[1].value
        inner = expr.args[0]
        if (
            isinstance(inner, xq.FlworExpr)
            and len(inner.clauses) == 1
            and isinstance(inner.clauses[0], xq.ForClause)
        ):
            path = inner.clauses[0].expr
            if isinstance(path, xp.PathExpr) and _is_descendant_text(path):
                base = _strip_descendant_text(path)
                target = (
                    self._context(env)
                    if base is None
                    else self._resolve(base, env)
                )
                if separator != "":
                    raise RewriteError(
                        "string-join over text() with a separator is"
                        " unsupported"
                    )
                return self._string_of_target(target)
        raise RewriteError("unsupported string-join() shape")

    def _string_of_target(self, target):
        if isinstance(target, (_TextTarget, _ScalarBinding)):
            return target.expr
        if isinstance(target, _ElementTarget):
            if target.source.text_expr is not None and target.decl.is_leaf:
                return self._own(target.source.text_expr)
            return self._string_of_subtree(target)
        if isinstance(target, _DocTarget):
            root_decl = self.structure.schema.root
            return self._string_of_subtree(
                _ElementTarget(self.structure.source_of(root_decl),
                               root_decl, "1")
            )
        raise RewriteError("cannot take the string value of this path")

    def _string_of_subtree(self, target):
        """Concatenated text of a whole constructed subtree."""
        decl = target.decl
        text = self._own(target.source.text_expr)
        parts = []
        if decl.is_leaf:
            if text is None:
                raise RewriteError("no text source for <%s>" % decl.name)
            return text
        if decl.has_text and text is not None:
            parts.append(text)
        for particle in decl.particles:
            child_source = self.structure.source_of(particle.decl)
            if particle.at_most_one:
                parts.append(
                    self._string_of_subtree(
                        _ElementTarget(child_source, particle.decl,
                                       particle.occurs)
                    )
                )
            else:
                subquery = child_source.subquery
                if subquery is None:
                    raise RewriteError(
                        "repeating <%s> without a subquery" % particle.decl.name
                    )
                inner = self._string_of_subtree(
                    _ElementTarget(child_source, particle.decl, "1")
                )
                order_by = self._agg_order(subquery)
                parts.append(
                    sqle.ScalarSubquery(
                        Query(
                            self._own(subquery.query.plan),
                            [(None, sqlxml.ListAgg(inner, "",
                                                   order_by=order_by))],
                        )
                    )
                )
        if not parts:
            return sqle.Const("")
        out = parts[0]
        for part in parts[1:]:
            out = sqle.BinOp("||", out, part)
        return out

    # -- boolean context ------------------------------------------------------------

    def _condition(self, expr, env):
        if isinstance(expr, xp.BinaryOp):
            if expr.op in ("=", "!=", "<", "<=", ">", ">="):
                op = "<>" if expr.op == "!=" else expr.op
                left = self._scalar(expr.left, env)
                right = self._scalar(expr.right, env)
                if op not in ("=", "<>") and not (
                        _is_number(left) or _is_number(right)):
                    # XPath orders numbers only (against one, BinOp converts)
                    left, right = _number(left), _number(right)
                elif op in ("=", "<>") and not (
                        _is_xpath_number(expr.left)
                        or _is_xpath_number(expr.right)):
                    # nodes and strings are equal as text, whatever the
                    # column's type (NaN = NaN, 7 != '07')
                    left, right = _as_text(left), _as_text(right)
                return sqle.BinOp(op, left, right)
            if expr.op in ("and", "or"):
                return sqle.BinOp(
                    expr.op.upper(),
                    self._condition(expr.left, env),
                    self._condition(expr.right, env),
                )
            raise RewriteError("operator %r in condition" % expr.op)
        if isinstance(expr, xp.FunctionCall):
            if expr.name == "not":
                return sqle.Not(self._condition(expr.args[0], env))
            if expr.name == "true":
                return sqle.Const(True)
            if expr.name == "false":
                return sqle.Const(False)
            if expr.name in ("exists", "boolean"):
                return self._existence(expr.args[0], env)
            raise RewriteError(
                "function %s() in condition is unsupported" % expr.name
            )
        if isinstance(expr, xp.FilterExpr):
            # pattern-condition form: $v[predicate]
            if not isinstance(expr.primary, xp.VariableRef):
                raise RewriteError("unsupported filter condition")
            target = env.get(expr.primary.name)
            if target is None:
                raise RewriteError("unbound variable in condition")
            inner_env = dict(env)
            inner_env["."] = target
            condition = None
            for predicate in expr.predicates:
                term = self._condition(predicate, inner_env)
                condition = (
                    term if condition is None
                    else sqle.BinOp("AND", condition, term)
                )
            return condition if condition is not None else sqle.Const(True)
        if isinstance(expr, (xp.PathExpr, xp.VariableRef, xp.ContextItem)):
            return self._existence(expr, env)
        raise RewriteError(
            "cannot translate %s as a condition" % type(expr).__name__
        )

    def _existence(self, expr, env):
        if isinstance(expr, xp.ContextItem):
            return sqle.Const(True)
        target = self._resolve(expr, env)
        if isinstance(target, _ElementTarget):
            if target.occurs in ("1", "+"):
                base = sqle.Const(True)
            elif target.source.text_expr is not None:
                base = sqle.IsNull(self._own(target.source.text_expr),
                                   negated=True)
            else:
                raise RewriteError(
                    "existence of optional <%s> cannot be tested"
                    % target.decl.name
                )
            for guard in target.guards:
                base = sqle.BinOp("AND", base, guard)
            return base
        if isinstance(target, _ManyTarget):
            plan = _filtered(target.plan, target.conditions)
            count = sqle.ScalarSubquery(
                Query(plan, [(None, sqlxml.AggCall("COUNT"))])
            )
            return sqle.BinOp(">", count, sqle.Const(0))
        if isinstance(target, _TextTarget):
            return sqle.IsNull(target.expr, negated=True)
        raise RewriteError("cannot test existence of this path")

    # -- path resolution -----------------------------------------------------------

    def _context(self, env):
        target = env.get(".")
        if target is None:
            raise RewriteError("no context item in this scope")
        return target

    def _resolve(self, expr, env):
        if isinstance(expr, xp.VariableRef):
            target = env.get(expr.name)
            if target is None:
                raise RewriteError("unbound variable $%s" % expr.name)
            return target
        if isinstance(expr, xp.ContextItem):
            return self._context(env)
        if not isinstance(expr, xp.PathExpr):
            raise RewriteError(
                "cannot resolve %s as a path" % type(expr).__name__
            )
        if expr.absolute:
            # '/foo' starts at the (virtual) document of the view value
            target = self._context(env)
            for step in expr.steps:
                target = self._step(target, step, env)
            return target
        if expr.start is not None:
            target = self._resolve(expr.start, env)
        else:
            target = self._context(env)
        for step in expr.steps:
            target = self._step(target, step, env)
        return target

    def _step(self, target, step, env):
        if isinstance(target, _DescendantTarget):
            return self._descendant_child(target.base, step, env)
        if step.axis == "attribute":
            return self._attribute_step(target, step)
        if step.axis == "self" and isinstance(step.test, xp.KindTest):
            if step.predicates:
                raise RewriteError("predicated self steps are unsupported")
            return target
        if step.axis == "parent":
            return self._parent_step(target, step, env)
        if step.axis in ("descendant", "descendant-or-self"):
            if step.axis == "descendant":
                # descendant::name ≡ descendant-or-self::node()/child::name
                # for element name tests.
                return self._descendant_child(
                    target,
                    xp.Step("child", step.test, list(step.predicates)),
                    env,
                )
            if (
                step.predicates
                or not isinstance(step.test, xp.KindTest)
                or step.test.kind is not None
            ):
                raise RewriteError("axis %r cannot be merged" % step.axis)
            return _DescendantTarget(target)
        if step.axis != "child":
            raise RewriteError("axis %r cannot be merged" % step.axis)

        if isinstance(step.test, xp.KindTest):
            if step.test.kind == "text":
                return self._text_step(target, step)
            raise RewriteError("kind test %s cannot be merged"
                               % step.test.to_text())
        if not isinstance(step.test, xp.NameTest) or step.test.local == "*":
            raise RewriteError("wildcard steps cannot be merged")

        name = step.test.local
        if isinstance(target, _DocTarget):
            root = self.structure.schema.root
            if root.name != name:
                raise RewriteError("no root element <%s>" % name)
            child = _ElementTarget(self.structure.source_of(root), root, "1",
                                   parent=target)
            return self._apply_step_predicates(child, step, env)
        if isinstance(target, _ElementTarget):
            particle = target.decl.particle_for(name)
            if particle is None:
                raise RewriteError(
                    "<%s> has no child <%s>" % (target.decl.name, name)
                )
            source = self.structure.source_of(particle.decl)
            if particle.at_most_one:
                child = _ElementTarget(source, particle.decl, particle.occurs,
                                       parent=target)
                return self._apply_step_predicates(child, step, env)
            if source.subquery is None:
                raise RewriteError(
                    "repeating <%s> lacks a subquery source" % name
                )
            many = _ManyTarget(
                source,
                particle.decl,
                self._own(source.subquery.query.plan),
                [],
                self._agg_order(source.subquery),
                parent=target,
            )
            return self._apply_step_predicates(many, step, env)
        if isinstance(target, _ManyTarget):
            particle = target.decl.particle_for(name)
            if particle is None:
                raise RewriteError(
                    "<%s> has no child <%s>" % (target.decl.name, name)
                )
            if not particle.at_most_one:
                raise RewriteError(
                    "nested repetition along one path is unsupported"
                )
            source = self.structure.source_of(particle.decl)
            if step.predicates:
                raise RewriteError(
                    "predicates below a repeating step are unsupported"
                )
            if particle.decl.is_leaf and source.text_expr is not None:
                return _ManyTarget(
                    target.source, target.decl, target.plan,
                    list(target.conditions), list(target.order_by),
                    leaf_expr=self._own(source.text_expr),
                    leaf_decl=particle.decl,
                    parent=target.parent,
                )
            raise RewriteError(
                "only leaf children below a repeating step are supported"
            )
        raise RewriteError("cannot navigate from this target")

    def _descendant_child(self, target, step, env):
        """Lower ``//name``: expand the unique schema path from *target*
        down to ``<name>`` into plain child steps.  Zero paths or an
        ambiguous name raise, sending the caller to the functional
        fallback."""
        if (
            step.axis != "child"
            or not isinstance(step.test, xp.NameTest)
            or step.test.local == "*"
        ):
            raise RewriteError(
                "only a named child step can follow a lowered '//'")
        name = step.test.local
        if isinstance(target, _DocTarget):
            root = self.structure.schema.root
            paths = [[root.name] + rest
                     for rest in _schema_paths_to(root, name)]
            if root.name == name:
                paths.insert(0, [root.name])
        elif isinstance(target, (_ElementTarget, _ManyTarget)):
            paths = _schema_paths_to(target.decl, name)
        else:
            raise RewriteError("cannot lower '//' from this target")
        if not paths:
            raise RewriteError("no descendant <%s> in this schema" % name)
        if len(paths) > 1:
            raise RewriteError(
                "descendant <%s> is ambiguous: %s"
                % (name, " vs ".join("/".join(path) for path in paths))
            )
        for interior in paths[0][:-1]:
            target = self._step(
                target, xp.Step("child", xp.NameTest(None, interior)), env
            )
        return self._step(target, step, env)

    def _apply_step_predicates(self, target, step, env):
        if not step.predicates:
            return target
        if isinstance(target, _ManyTarget):
            inner_env = dict(env)
            inner_env["."] = _ElementTarget(target.source, target.decl, "1")
            conditions = list(target.conditions)
            for predicate in step.predicates:
                conditions.append(self._condition(predicate, inner_env))
            return _ManyTarget(
                target.source, target.decl, target.plan, conditions,
                list(target.order_by), target.leaf_expr,
            )
        raise RewriteError(
            "predicates on single-occurrence steps are unsupported"
        )

    def _parent_step(self, target, step, env):
        """parent::name, used by residual pattern conditions (§3.5): the
        parent is statically known from the view structure; only its
        predicates survive as guard conditions."""
        if not isinstance(target, _ElementTarget) or target.parent is None:
            raise RewriteError("parent axis cannot be resolved here")
        parent = target.parent
        if not isinstance(parent, _ElementTarget):
            raise RewriteError("parent axis crosses a repeating boundary")
        if isinstance(step.test, xp.NameTest):
            if step.test.local not in ("*", parent.decl.name):
                raise RewriteError(
                    "parent is <%s>, not <%s>"
                    % (parent.decl.name, step.test.local)
                )
        guards = list(parent.guards)
        if step.predicates:
            inner_env = dict(env)
            inner_env["."] = _ElementTarget(
                parent.source, parent.decl, "1", parent=parent.parent
            )
            for predicate in step.predicates:
                guards.append(self._condition(predicate, inner_env))
        return _ElementTarget(
            parent.source, parent.decl, parent.occurs,
            parent=parent.parent, guards=guards,
        )

    def _attribute_step(self, target, step):
        if not isinstance(step.test, xp.NameTest) or step.test.local == "*":
            raise RewriteError("attribute wildcards are unsupported")
        if isinstance(target, _ElementTarget):
            expr = self._own(
                target.source.attribute_exprs.get(step.test.local))
            if expr is None:
                raise RewriteError(
                    "<%s> has no attribute %s"
                    % (target.decl.name, step.test.local)
                )
            return _TextTarget(expr)
        raise RewriteError("attribute step on a non-element target")

    def _text_step(self, target, step):
        if step.predicates:
            raise RewriteError("predicated text() steps are unsupported")
        if isinstance(target, _ElementTarget):
            if target.source.text_expr is None:
                raise RewriteError(
                    "<%s> has no text source" % target.decl.name
                )
            return _TextTarget(self._own(target.source.text_expr))
        raise RewriteError("text() step on a non-element target")

    def _agg_order(self, subquery):
        """Order specs of the view subquery's XMLAgg (document order)."""
        _, inner = subquery.query.outputs[0]
        if isinstance(inner, sqlxml.XMLAgg):
            return [(self._own(expr), descending)
                    for expr, descending in inner.order_by]
        return []

    def _value_target(self, expr, env):
        """LET binding: a path target when resolvable, else a scalar."""
        if isinstance(expr, (xp.PathExpr, xp.VariableRef, xp.ContextItem)):
            target = self._resolve(expr, env)
            if isinstance(target, _ManyTarget):
                raise RewriteError("LET over a repeating path is unsupported")
            return target
        return _ScalarBinding(self._scalar(expr, env))


# -- target kinds --------------------------------------------------------------


class _DocTarget:
    __slots__ = ("structure",)

    def __init__(self, structure):
        self.structure = structure


class _ElementTarget:
    __slots__ = ("source", "decl", "occurs", "parent", "guards")

    def __init__(self, source, decl, occurs, parent=None, guards=None):
        self.source = source
        self.decl = decl
        self.occurs = occurs
        self.parent = parent    # enclosing _ElementTarget, when known
        self.guards = guards or []  # extra SQL conditions from predicates


class _ManyTarget:
    __slots__ = ("source", "decl", "plan", "conditions", "order_by",
                 "leaf_expr", "leaf_decl", "parent")

    def __init__(self, source, decl, plan, conditions, order_by,
                 leaf_expr=None, parent=None, leaf_decl=None):
        self.source = source
        self.decl = decl
        self.plan = plan
        self.conditions = conditions
        self.order_by = order_by
        self.leaf_expr = leaf_expr
        self.leaf_decl = leaf_decl  # set when the path continues to a leaf
        self.parent = parent    # enclosing _ElementTarget, when known


class _DescendantTarget:
    """Marker produced by ``descendant-or-self::node()``: the next child
    step resolves by unique-path search from ``base``."""

    __slots__ = ("base",)

    def __init__(self, base):
        self.base = base


class _TextTarget:
    __slots__ = ("expr",)

    def __init__(self, expr):
        self.expr = expr


class _ScalarBinding:
    __slots__ = ("expr",)

    def __init__(self, expr):
        self.expr = expr


# -- helpers -----------------------------------------------------------------


def _owned_items(items, own):
    """A list or tuple (of pairs, say) of view parts, each ``own``'s."""
    return type(items)(
        _owned_items(item, own) if isinstance(item, (list, tuple))
        else own(item) for item in items)


def _schema_paths_to(decl, name):
    """Every strictly-descending name path from *decl* to a ``<name>``
    element.  Schemas are non-recursive, so the walk terminates."""
    paths = []
    for particle in decl.particles:
        child = particle.decl
        if child.name == name:
            paths.append([name])
        for rest in _schema_paths_to(child, name):
            paths.append([child.name] + rest)
    return paths


def _is_descendant_text(path):
    steps = path.steps
    return (
        len(steps) >= 2
        and steps[-2].axis == "descendant-or-self"
        and isinstance(steps[-1].test, xp.KindTest)
        and steps[-1].test.kind == "text"
    )


def _strip_descendant_text(path):
    remaining = path.steps[:-2]
    if not remaining:
        return path.start
    return xp.PathExpr(remaining, start=path.start, absolute=path.absolute)


def rewrite_to_sql(module, view_query, view_structure):
    """Convenience wrapper: merge an XQuery module into a view."""
    return SqlRewriter(view_query, view_structure).rewrite_module(module)
