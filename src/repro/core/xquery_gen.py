"""XQuery generation from the partial evaluation result (§3.3–3.7, §4.4).

Two modes, decided by the template execution graph:

* **inline mode** (acyclic graph): template bodies are inlined at their
  dispatch sites (§3.3); children are bound per the model group —
  sequence → straight LET/FOR bindings (Table 14/15), choice → an
  existence-test chain (Table 13), all/mixed → ``for $v in node()`` with
  ``instance of`` tests (Table 12); backward parent-axis tests vanish
  unless a pattern step carries a value predicate (§3.5, Tables 16–19);
  never-instantiated templates produce no code (§3.7); a subtree that only
  ever uses built-in templates compiles to the compact
  ``fn:string-join(//text())`` form (§3.6, Tables 20/21).

* **non-inline mode** (recursive graph): one XQuery function per execution
  graph state ``(template, context declaration)``, with conditional
  function calls at each ``apply-templates`` site — the paper's §4.4
  function mode.

Unsupported constructs raise :class:`RewriteError`; the front door falls
back to functional evaluation, as Oracle's implementation does.
"""

from __future__ import annotations

import itertools

from repro.errors import RewriteError
from repro.xmlmodel.nodes import NodeKind, QName
from repro.xpath import ast as xp
from repro.xpath.context import XPathContext
from repro.xquery import ast as xq
from repro.xslt import instructions as xi


class RewriteOptions:
    """Feature toggles — the ablation tests disable techniques
    individually and hold the output equal."""

    __slots__ = (
        "inline_templates",
        "use_model_groups",
        "remove_backward_tests",
        "prune_templates",
        "builtin_compaction",
        "partial_inline",
    )

    def __init__(self, inline_templates=True, use_model_groups=True,
                 remove_backward_tests=True, prune_templates=True,
                 builtin_compaction=True, partial_inline=True):
        self.inline_templates = inline_templates
        self.use_model_groups = use_model_groups
        self.remove_backward_tests = remove_backward_tests
        self.prune_templates = prune_templates
        self.builtin_compaction = builtin_compaction
        # §7.2 "partial inline mode": with a recursive execution graph,
        # only the states on cycles become functions; acyclic states still
        # inline.  False reproduces the paper's shipping behaviour (any
        # recursion forces everything into function mode).
        self.partial_inline = partial_inline


ROOT_VAR = "var000"


class _Cursor:
    """The generation context: an XQuery variable bound to a sample node."""

    __slots__ = ("var", "node")

    def __init__(self, var, node):
        self.var = var
        self.node = node

    def ref(self):
        return xp.VariableRef(self.var)


class XQueryGenerator:
    """Generates one XQuery module from a partial evaluation."""

    def __init__(self, partial_evaluation, options=None, ledger=None):
        self.pe = partial_evaluation
        self.options = options or RewriteOptions()
        self.vm = partial_evaluation.vm
        self.sample = partial_evaluation.sample
        self.schema = partial_evaluation.schema
        #: DecisionLedger recording §3.3–3.6 choices with provenance
        self.ledger = ledger
        #: templates whose bodies are currently being generated — the XSLT
        #: provenance for decisions made inside them
        self._template_stack = []
        self._counter = itertools.count(2)
        #: observability counters (read by the compile-stage spans):
        #: backward parent/ancestor steps whose tests vanished (§3.5) and
        #: template bodies expanded inline (§3.3/§4.4)
        self.backward_steps_removed = 0
        self.templates_inlined = 0
        self._inline_stack = []
        self._functions = {}      # state key -> FunctionDecl (body may be None while building)
        self._function_order = []
        self._match_context = XPathContext(
            self.sample.document,
            namespaces=self.pe.stylesheet.namespaces,
        )
        self.inline_mode = (
            partial_evaluation.inline_mode and self.options.inline_templates
        )
        if (
            partial_evaluation.recursive
            and self.options.inline_templates
            and self.options.partial_inline
        ):
            self._cyclic_states = partial_evaluation.graph.cyclic_state_keys()
        else:
            self._cyclic_states = None  # all-or-nothing modes

    # -- entry point ----------------------------------------------------------

    def generate(self):
        """Produce the :class:`repro.xquery.ast.Module`."""
        root_cursor = _Cursor(ROOT_VAR, self.sample.document)
        if self.options.builtin_compaction and not self.pe.instantiated_templates:
            body = self._builtin_compact(root_cursor)
            body.xq_comment = "builtin template only (Table 21)"
        else:
            body = self._dispatch_node(root_cursor, None, params={})
        declarations = [xq.VariableDecl(ROOT_VAR, xp.ContextItem())]
        functions = [self._functions[key] for key in self._function_order]
        return xq.Module(declarations, functions, body)

    def _fresh(self):
        return "var%03d" % next(self._counter)

    # -- dispatch --------------------------------------------------------------

    def _dispatch_node(self, cursor, mode, params):
        """Dispatch one bound node (cursor) to its candidate templates —
        the translated form of "find the matching template rule"."""
        node = cursor.node
        candidates = self.vm.find_candidate_rules(node, mode, self._match_context)
        if self.options.prune_templates:
            candidates = [
                rule
                for rule in candidates
                if rule.template in self.pe.instantiated_templates
            ]
        return self._candidate_chain(candidates, cursor, mode, params)

    def _candidate_chain(self, candidates, cursor, mode, params):
        if not candidates:
            return self._builtin(cursor, mode)
        rule = candidates[0]
        condition = self._pattern_condition(rule.pattern, cursor,
                                            template=rule.template)
        body = self._instantiate_template(rule.template, cursor, mode, params)
        if condition is None:
            return body
        rest = self._candidate_chain(candidates[1:], cursor, mode, params)
        return xq.IfExpr(condition, body, rest)

    def _pattern_condition(self, pattern, cursor, template=None):
        """The residual runtime test for a pattern alternative (§3.5).

        Structure was verified against the sample during candidate search,
        so name/ancestor tests are statically true; only *predicates*
        survive — on the last step as ``$v[p]`` existence, on ancestor
        steps as ``exists($v/parent::X[p]...)`` (Table 19).  Without
        predicates the whole test disappears (Tables 16–17).
        """
        terms = []
        steps = pattern.steps
        if not steps:
            return None  # the "/" pattern: structurally decided
        last = steps[-1]
        for predicate in last.predicates:
            terms.append(self._positional_or_value(predicate, last, cursor))
        # ancestor steps: climb from the matched node
        climb = []  # steps from $v upwards
        ancestor_terms = []
        for index in range(len(steps) - 2, -1, -1):
            step = steps[index]
            connector = pattern.connectors[index]
            axis = "parent" if connector == "/" else "ancestor"
            climb.append(xp.Step(axis, step.test, list(step.predicates)))
            if step.predicates:
                ancestor_terms.append(
                    xp.FunctionCall(
                        "exists",
                        [xp.PathExpr(list(climb), start=cursor.ref())],
                    )
                )
        if self.options.remove_backward_tests:
            # structurally guaranteed backward steps vanish; only the
            # predicate-bearing ones survive as exists() terms (§3.5)
            removed = len(climb) - len(ancestor_terms)
            self.backward_steps_removed += removed
            if removed and self.ledger is not None:
                self.ledger.record(
                    "backward-step", "xquery-gen", pattern.source, "removed",
                    reason="the ancestor chain is guaranteed by the"
                           " structural schema, so the parent-axis tests"
                           " are redundant at runtime (§3.5)",
                    detail={
                        "steps_removed": removed,
                        "removed_tests": [
                            step.to_text()
                            for step in climb if not step.predicates
                        ],
                        "surviving_tests": len(ancestor_terms),
                        "variable": cursor.var,
                    },
                    template=template or self._current_template(),
                )
            terms.extend(ancestor_terms)
        elif climb:
            # ablation: keep the full backward chain even when structurally
            # guaranteed — the straightforward [9] translation (Table 17).
            terms.append(
                xp.FunctionCall(
                    "exists", [xp.PathExpr(list(climb), start=cursor.ref())]
                )
            )
        if not terms:
            return None
        condition = terms[0]
        for term in terms[1:]:
            condition = xp.BinaryOp("and", condition, term)
        return condition

    def _positional_or_value(self, predicate, step, cursor):
        """Translate one last-step pattern predicate into a test on $v."""
        if isinstance(predicate, xp.NumberLiteral):
            # emp[N]: N-1 preceding siblings of the same name
            return xp.BinaryOp(
                "=",
                xp.FunctionCall(
                    "count",
                    [xp.PathExpr(
                        [xp.Step("preceding-sibling", step.test, [])],
                        start=cursor.ref(),
                    )],
                ),
                xp.NumberLiteral(predicate.value - 1),
            )
        if _uses_position(predicate):
            if _is_last_call(predicate):
                return xp.BinaryOp(
                    "=",
                    xp.FunctionCall(
                        "count",
                        [xp.PathExpr(
                            [xp.Step("following-sibling", step.test, [])],
                            start=cursor.ref(),
                        )],
                    ),
                    xp.NumberLiteral(0),
                )
            raise RewriteError(
                "positional pattern predicate %r is not supported"
                % predicate.to_text()
            )
        # A value predicate evaluates with $v as the context node; a filter
        # over the singleton binding expresses exactly that (Table 19).
        return xp.FilterExpr(cursor.ref(), [predicate])

    # -- template instantiation ---------------------------------------------------

    def _instantiate_template(self, template, cursor, mode, params):
        if self.inline_mode:
            return self._inline_template(template, cursor, mode, params)
        if self._cyclic_states is not None:
            # partial inline (§7.2): only cyclic states stay functions
            if self._state_key(template, cursor) not in self._cyclic_states:
                return self._inline_template(template, cursor, mode, params)
        return self._call_state_function(template, cursor, mode, params)

    def _state_key(self, template, cursor):
        decl = self.sample.decl_for(cursor.node)
        return (id(template), id(decl) if decl is not None else None)

    def _current_template(self):
        """The template whose body is being generated (XSLT provenance for
        decisions made inside it), or None at the document root."""
        if self._template_stack:
            return self._template_stack[-1]
        return None

    def _inline_template(self, template, cursor, mode, params):
        self.templates_inlined += 1
        decl = self.sample.decl_for(cursor.node)
        key = (id(template), id(decl) if decl is not None else id(cursor.node))
        if key in self._inline_stack:
            raise RewriteError(
                "recursion discovered while inlining %s" % template.label()
            )
        self._inline_stack.append(key)
        self._template_stack.append(template)
        try:
            body = self._template_body(template, cursor, params)
        finally:
            self._template_stack.pop()
            self._inline_stack.pop()
        if isinstance(body, xp.XPathExpr):
            # a bare select can be the tree the parse memo shares between
            # stylesheets: annotate only what this generator built
            body = body.clone()
        body.xq_comment = "<xsl:template %s>" % template.label()
        if self.ledger is not None:
            self.ledger.record(
                "template-inlined", "xquery-gen", template.label(), "inline",
                reason="acyclic dispatch site — the body expands in place"
                       " instead of becoming a function call (§3.3)",
                detail={
                    "context": _node_label(cursor.node),
                    "variable": cursor.var,
                    "depth": len(self._inline_stack) + 1,
                },
                template=template,
                xquery_node=body,
            )
        return body

    def _template_body(self, template, cursor, params, bind_params=True):
        lets = []
        if bind_params:
            for param in template.params:
                if param.name in params:
                    value = params[param.name]
                else:
                    value = self._binding_value(param, cursor)
                lets.append(xq.LetClause(param.name, value))
        body = self._gen_body(template.body, cursor)
        if lets:
            return xq.FlworExpr(lets, body)
        return body

    def _call_state_function(self, template, cursor, mode, params):
        decl = self.sample.decl_for(cursor.node)
        key = (id(template), id(decl) if decl is not None else None)
        name = "local:t%d_%s" % (
            template.position,
            decl.name if decl is not None else "root",
        )
        if key not in self._functions:
            declaration = xq.FunctionDecl(
                name, ["cur"] + [p.name for p in template.params], None
            )
            self._functions[key] = declaration
            self._function_order.append(key)
            inner_cursor = _Cursor("cur", cursor.node)
            self._template_stack.append(template)
            try:
                # Function parameters already bind the template params.
                declaration.body = self._template_body(
                    template, inner_cursor, {}, bind_params=False
                )
            finally:
                self._template_stack.pop()
            if self.ledger is not None:
                self.ledger.record(
                    "template-dispatched", "xquery-gen", template.label(),
                    "function", reason=self._dispatch_reason(template, cursor),
                    detail={"function": name,
                            "context": _node_label(cursor.node)},
                    template=template,
                    xquery_node=declaration.body,
                )
        declaration = self._functions[key]
        args = [cursor.ref()]
        for param in template.params:
            if param.name in params:
                args.append(params[param.name])
            else:
                args.append(self._binding_value(param, cursor))
        return xq.UserFunctionCall(declaration.name, args)

    def _dispatch_reason(self, template, cursor):
        """Why inlining was refused for this state (§4.4 / §7.2)."""
        if not self.options.inline_templates:
            return "template inlining disabled by RewriteOptions"
        if self._cyclic_states is not None:
            return ("state lies on a cycle of the template execution graph;"
                    " only cyclic states stay functions under partial"
                    " inline (§7.2)")
        return ("the template execution graph is recursive, forcing"
                " all-function mode (§4.4)")

    # -- built-in templates ----------------------------------------------------------

    def _builtin(self, cursor, mode):
        node = cursor.node
        if node.kind in (NodeKind.TEXT, NodeKind.ATTRIBUTE):
            return xq.ComputedTextConstructor(
                xp.FunctionCall("string", [cursor.ref()])
            )
        if node.kind in (NodeKind.ELEMENT, NodeKind.DOCUMENT):
            if self.options.builtin_compaction and self._subtree_all_builtin(
                node, mode
            ):
                return self._builtin_compact(cursor)
            return self._children_dispatch(cursor, mode)
        return xq.EmptySequence()  # comments / PIs produce nothing

    def _subtree_all_builtin(self, node, mode):
        """§3.6: no template can fire anywhere below (or at) this node."""
        for candidate in node.iter_subtree():
            nodes = [candidate]
            if candidate.kind == NodeKind.ELEMENT:
                nodes.extend(candidate.attributes)
            for each in nodes:
                rules = self.vm.find_candidate_rules(
                    each, mode, self._match_context
                )
                if self.options.prune_templates:
                    rules = [
                        rule for rule in rules
                        if rule.template in self.pe.instantiated_templates
                    ]
                if rules:
                    return False
        return True

    def _builtin_compact(self, cursor):
        """Table 21: string-join over the descendant text nodes."""
        loop_var = self._fresh()
        flwor = xq.FlworExpr(
            [xq.ForClause(
                loop_var,
                xp.PathExpr(
                    [
                        xp.Step("descendant-or-self", xp.KindTest(None)),
                        xp.Step("self", xp.KindTest(NodeKind.TEXT)),
                    ],
                    start=cursor.ref(),
                ),
            )],
            xp.FunctionCall("string", [xp.VariableRef(loop_var)]),
        )
        # NB the paper's Table 21 joins with " "; a single space would alter
        # the transformation result, so we join with "" (see DESIGN.md).
        compact = xq.ComputedTextConstructor(
            xp.FunctionCall("string-join", [flwor, xp.Literal("")])
        )
        if self.ledger is not None:
            self.ledger.record(
                "builtin-compaction", "xquery-gen",
                _node_label(cursor.node), "string-join",
                reason="no user template can fire at or below this node —"
                       " the built-in traversal collapses to string-join"
                       " over the descendant text (§3.6, Table 21)",
                detail={"variable": loop_var},
                template=self._current_template(),
                xquery_node=compact,
            )
        return compact

    # -- children dispatch (apply-templates without select, §3.4) ---------------------

    def _children_dispatch(self, cursor, mode):
        node = cursor.node
        if node.kind == NodeKind.DOCUMENT:
            items = []
            for child in [c for c in node.children
                          if c.kind == NodeKind.ELEMENT]:
                particle = self.sample.particle_for(child)
                occurs = particle.occurs if particle is not None else "1"
                items.append(
                    self._element_binding(
                        cursor, child, self._child_path(cursor, child),
                        occurs, mode, {},
                    )
                )
            return _seq(items)
        decl = self.sample.decl_for(node)
        if decl is None:
            raise RewriteError("cannot dispatch children of unknown node")
        if decl.is_leaf:
            return self._text_dispatch(cursor, mode)

        group = decl.group if self.options.use_model_groups else "all"
        if decl.has_text:
            group = "all"  # mixed content: dispatch dynamically

        if group == "sequence":
            items = []
            for child in node.child_elements():
                particle = self.sample.particle_for(child)
                occurs = particle.occurs if particle is not None else "*"
                items.append(
                    self._element_binding(
                        cursor, child, self._child_path(cursor, child), occurs, mode, {}
                    )
                )
            return _seq(items)
        if group == "choice":
            return self._choice_dispatch(cursor, node, mode)
        return self._all_dispatch(cursor, node, mode)

    def _choice_dispatch(self, cursor, node, mode):
        """Table 13: if ($cur/a) then ... else if ($cur/b) then ..."""
        chain = xq.EmptySequence()
        for child in reversed(node.child_elements()):
            particle = self.sample.particle_for(child)
            occurs = particle.occurs if particle is not None else "*"
            branch = self._element_binding(
                cursor, child, self._child_path(cursor, child), occurs, mode, {}
            )
            condition = xp.PathExpr(
                [xp.Step("child", xp.NameTest(None, child.name.local), [])],
                start=cursor.ref(),
            )
            chain = xq.IfExpr(condition, branch, chain)
        return chain

    def _all_dispatch(self, cursor, node, mode, select_path=None):
        """Table 12: iterate node() with instance-of dispatch."""
        loop_var = self._fresh()
        loop_cursor_nodes = []
        for child in node.child_elements():
            loop_cursor_nodes.append(child)
        chain = xq.EmptySequence()
        decl = self.sample.decl_for(node)
        # text branch first in the reversed build so it lands last
        if decl is not None and decl.has_text:
            text_node = _text_child(node)
            if text_node is not None:
                text_cursor = _Cursor(loop_var, text_node)
                chain = xq.IfExpr(
                    xq.InstanceOfExpr(xp.VariableRef(loop_var), "text"),
                    self._dispatch_node(text_cursor, mode, {}),
                    chain,
                )
        for child in reversed(loop_cursor_nodes):
            child_cursor = _Cursor(loop_var, child)
            chain = xq.IfExpr(
                xq.InstanceOfExpr(
                    xp.VariableRef(loop_var), "element", child.name.local
                ),
                self._dispatch_node(child_cursor, mode, {}),
                chain,
            )
        select = select_path or xp.PathExpr(
            [xp.Step("child", xp.KindTest(None))], start=cursor.ref()
        )
        return xq.FlworExpr([xq.ForClause(loop_var, select)], chain)

    def _text_dispatch(self, cursor, mode):
        """Children of a text-only element: its text node."""
        text_node = _text_child(cursor.node)
        if text_node is None:
            return xq.EmptySequence()
        candidates = self.vm.find_candidate_rules(
            text_node, mode, self._match_context
        )
        if self.options.prune_templates:
            candidates = [
                rule for rule in candidates
                if rule.template in self.pe.instantiated_templates
            ]
        if not candidates:
            return xq.ComputedTextConstructor(
                xp.FunctionCall("string", [cursor.ref()])
            )
        loop_var = self._fresh()
        text_cursor = _Cursor(loop_var, text_node)
        body = self._candidate_chain(candidates, text_cursor, mode, {})
        return xq.FlworExpr(
            [xq.ForClause(
                loop_var,
                xp.PathExpr(
                    [xp.Step("child", xp.KindTest(NodeKind.TEXT))],
                    start=cursor.ref(),
                ),
            )],
            body,
        )

    def _element_binding(self, cursor, sample_child, path, occurs, mode,
                         params, sorts=None):
        """Bind one selected element type and dispatch it: LET for
        at-most-one children, FOR otherwise (§3.4 cardinality, Table 15)."""
        new_var = self._fresh()
        child_cursor = _Cursor(new_var, sample_child)
        body = self._dispatch_node(child_cursor, mode, params)
        single = occurs in ("1",) and self.options.use_model_groups and not sorts
        if single:
            binding = xq.FlworExpr([xq.LetClause(new_var, path)], body)
        else:
            clauses = [xq.ForClause(new_var, path)]
            if sorts:
                clauses.append(self._order_by(sorts, child_cursor))
            binding = xq.FlworExpr(clauses, body)
        if self.ledger is not None:
            if single:
                reason = ("the model group says the element occurs exactly"
                          " once, so a LET binding replaces iteration (§3.4)")
            elif occurs == "1":
                reason = ("sorting (or disabled model groups) forces a FOR"
                          " even though occurrence is 1")
            else:
                reason = ("schema occurrence %r permits repetition, so the"
                          " binding iterates with FOR (§3.4)" % occurs)
            self.ledger.record(
                "cardinality", "xquery-gen", _node_label(sample_child),
                "LET" if single else "FOR", reason=reason,
                detail={"occurs": occurs, "variable": new_var,
                        "sorted": bool(sorts)},
                template=self._current_template(),
                xquery_node=binding,
            )
        return binding

    def _child_path(self, cursor, sample_child):
        return xp.PathExpr(
            [xp.Step("child", xp.NameTest(None, sample_child.name.local), [])],
            start=cursor.ref(),
        )

    # -- instruction translation ---------------------------------------------------

    def _gen_body(self, instructions, cursor):
        items = []
        index = 0
        while index < len(instructions):
            instruction = instructions[index]
            if isinstance(instruction, xi.VariableInstr):
                value = self._binding_value(instruction, cursor)
                rest = self._gen_body(instructions[index + 1:], cursor)
                items.append(
                    xq.FlworExpr(
                        [xq.LetClause(instruction.name, value)], rest
                    )
                )
                return _seq(items)
            items.append(self._gen_instruction(instruction, cursor))
            index += 1
        return _seq(items)

    def _binding_value(self, binding, cursor):
        if binding.select is not None:
            return self._rebase(binding.select, cursor)
        if not binding.body:
            return xp.Literal("")  # empty default: the empty string
        return self._fragment_element(binding.body, cursor)

    def _fragment_element(self, body, cursor):
        """xsl:variable with content builds a result tree fragment; its
        uses in our subset are string/copy contexts, so a wrapper element
        preserves both the string value and copy-of children semantics
        closely enough for the supported cases."""
        raise RewriteError(
            "xsl:variable with body content is not supported by the rewrite"
        )

    def _gen_instruction(self, instruction, cursor):
        handler = _GENERATORS.get(type(instruction))
        if handler is None:
            raise RewriteError(
                "%s cannot be rewritten" % type(instruction).__name__
            )
        return handler(self, instruction, cursor)

    def _gen_text(self, instruction, cursor):
        # text{} keeps adjacent results concatenating exactly as XSLT does
        # (bare atomics in one sequence would be space-separated); direct
        # constructor content unwraps it back to literal text.
        return xq.ComputedTextConstructor(xp.Literal(instruction.value))

    def _gen_literal_element(self, instruction, cursor):
        attributes = []
        for name, avt in instruction.attributes:
            attributes.append(
                xq.AttributeConstructor(name, self._avt_parts(avt, cursor))
            )
        body = list(instruction.body)
        while body and isinstance(body[0], xi.AttributeInstr):
            attr_instr = body.pop(0)
            if not attr_instr.name_avt.is_constant:
                raise RewriteError(
                    "computed attribute names are not supported"
                )
            attributes.append(
                xq.AttributeConstructor(
                    QName(attr_instr.name_avt.constant_value()),
                    self._attribute_value_parts(attr_instr.body, cursor),
                )
            )
        content = self._content_items(body, cursor)
        return xq.DirectElementConstructor(
            QName(
                instruction.name.local,
                instruction.name.uri,
                instruction.name.prefix,
            ),
            attributes,
            content,
            namespaces=dict(instruction.namespaces),
        )

    def _attribute_value_parts(self, body, cursor):
        parts = []
        for instruction in body:
            if isinstance(instruction, xi.TextInstr):
                parts.append(instruction.value)
            elif isinstance(instruction, xi.ValueOfInstr):
                parts.append(
                    xp.FunctionCall(
                        "string", [self._rebase(instruction.select, cursor)]
                    )
                )
            else:
                raise RewriteError(
                    "only text/value-of are supported inside xsl:attribute"
                )
        return parts

    def _content_items(self, body, cursor):
        expr = self._gen_body(body, cursor)
        if isinstance(expr, xq.SequenceExpr):
            items = expr.items
        elif isinstance(expr, xq.EmptySequence):
            items = []
        else:
            items = [expr]
        content = []
        for item in items:
            if isinstance(item, xp.Literal):
                content.append(item.value)  # exact literal text
            elif isinstance(item, xq.ComputedTextConstructor) and isinstance(
                item.expr, xp.Literal
            ):
                content.append(item.expr.value)
            else:
                content.append(item)
        return content

    def _avt_parts(self, avt, cursor):
        parts = []
        for part in avt.parts:
            if isinstance(part, str):
                parts.append(part)
            else:
                parts.append(self._rebase(part, cursor))
        return parts

    def _gen_value_of(self, instruction, cursor):
        return xq.ComputedTextConstructor(
            xp.FunctionCall(
                "string", [self._rebase(instruction.select, cursor)]
            )
        )

    def _gen_apply_templates(self, instruction, cursor):
        params = {
            with_param.name: self._with_param_value(with_param, cursor)
            for with_param in instruction.with_params
        }
        mode = instruction.mode
        if instruction.select is None:
            if params:
                raise RewriteError(
                    "with-param on select-less apply-templates is not"
                    " supported"
                )
            if instruction.sorts:
                raise RewriteError(
                    "sorted select-less apply-templates is not supported"
                )
            return self._children_dispatch(cursor, mode)
        return self._select_dispatch(
            instruction.select, cursor, mode, params, instruction.sorts
        )

    def _with_param_value(self, with_param, cursor):
        if with_param.select is not None:
            return self._rebase(with_param.select, cursor)
        raise RewriteError("with-param with body content is not supported")

    def _select_dispatch(self, select, cursor, mode, params, sorts):
        """apply-templates select=...: bind each selected element type.

        Union branches are emitted in document order of their selections
        (XSLT processes the union in document order); interleaving branch
        ranges cannot be split into per-branch loops and are rejected.
        """
        branches = (
            select.parts if isinstance(select, xp.UnionExpr) else [select]
        )
        if len(branches) > 1:
            if sorts:
                raise RewriteError("sorting a union selection is unsupported")
            context = self._match_context.with_node(cursor.node)
            ranked = []
            for branch in branches:
                selected = branch.without_predicates().evaluate(context)
                if not isinstance(selected, list):
                    raise RewriteError("union branch must select nodes")
                if not selected:
                    continue
                orders = [node.order for node in selected]
                ranked.append((min(orders), max(orders), branch))
            ranked.sort(key=lambda row: row[0])
            for (_, prev_max, _), (next_min, _, _) in zip(ranked, ranked[1:]):
                if next_min <= prev_max:
                    raise RewriteError(
                        "interleaving union branches cannot be rewritten"
                    )
            branches = [branch for _, _, branch in ranked]
        items = []
        for branch in branches:
            items.append(
                self._select_branch(branch, cursor, mode, params, sorts)
            )
        return _seq([item for item in items if item is not None])

    def _select_branch(self, branch, cursor, mode, params, sorts):
        context = self._match_context.with_node(cursor.node)
        selected = branch.without_predicates().evaluate(context)
        if not isinstance(selected, list):
            raise RewriteError("apply-templates select must be a node-set")
        if not selected:
            return None  # cannot select anything on any conforming instance
        kinds = {node.kind for node in selected}
        if kinds == {NodeKind.TEXT}:
            return self._text_select_binding(branch, selected[0], cursor,
                                             mode, params)
        if NodeKind.ATTRIBUTE in kinds:
            raise RewriteError(
                "attribute-axis apply-templates is not supported"
            )
        decls = []
        for node in selected:
            if node.kind != NodeKind.ELEMENT:
                decls = None
                break
            decl = self.sample.decl_for(node)
            if decl is None:
                raise RewriteError("selected node has no declaration")
            if decl not in decls:
                decls.append(decl)
        if decls is not None and len(decls) == 1:
            sample_child = selected[0]
            occurs = self._branch_cardinality(branch, cursor, sample_child)
            return self._element_binding(
                cursor, sample_child, self._rebase(branch, cursor), occurs,
                mode, params, sorts=sorts,
            )
        # heterogeneous selection: fall back to the dynamic instance-of
        # chain, allowed only without value predicates.
        if _has_predicates(branch):
            raise RewriteError(
                "predicates over a heterogeneous selection are not supported"
            )
        if sorts:
            raise RewriteError("sorting a heterogeneous selection is not supported")
        parent = selected[0].parent
        return self._all_dispatch(
            cursor, parent, mode, select_path=self._rebase(branch, cursor)
        )

    def _text_select_binding(self, branch, text_node, cursor, mode, params):
        loop_var = self._fresh()
        text_cursor = _Cursor(loop_var, text_node)
        body = self._dispatch_node(text_cursor, mode, params)
        return xq.FlworExpr(
            [xq.ForClause(loop_var, self._rebase(branch, cursor))], body
        )

    def _branch_cardinality(self, branch, cursor, sample_child):
        """'1' when the path provably selects at most one node that is
        always present; otherwise '*' (FOR is always safe)."""
        if not isinstance(branch, xp.PathExpr) or branch.absolute:
            return "*"
        if branch.start is not None:
            return "*"
        decl = self.sample.decl_for(cursor.node)
        for step in branch.steps:
            if step.axis != "child" or step.predicates:
                return "*"
            if not isinstance(step.test, xp.NameTest) or step.test.local == "*":
                return "*"
            if decl is None:
                return "*"
            particle = decl.particle_for(step.test.local)
            if particle is None or particle.occurs != "1":
                return "*"
            decl = particle.decl
        return "1"

    def _order_by(self, sorts, cursor):
        specs = []
        for sort in sorts:
            expr = self._rebase(sort.select, cursor)
            if sort.data_type == "number":
                expr = xp.FunctionCall("number", [expr])
            else:
                expr = xp.FunctionCall("string", [expr])
            specs.append(xq.OrderSpec(expr, sort.order == "descending"))
        return xq.OrderByClause(specs)

    def _gen_for_each(self, instruction, cursor):
        branch = instruction.select
        context = self._match_context.with_node(cursor.node)
        selected = branch.without_predicates().evaluate(context)
        if not isinstance(selected, list):
            raise RewriteError("for-each select must be a node-set")
        if not selected:
            return xq.EmptySequence()
        if any(node.kind != NodeKind.ELEMENT for node in selected):
            raise RewriteError(
                "for-each over non-element nodes is not supported"
            )
        distinct = []
        for node in selected:
            decl = self.sample.decl_for(node)
            if decl is None:
                raise RewriteError("for-each selected an unknown node")
            if all(self.sample.decl_for(seen) is not decl
                   for seen in distinct):
                distinct.append(node)
        loop_var = self._fresh()
        clauses = [xq.ForClause(loop_var, self._rebase(branch, cursor))]
        if len(distinct) == 1:
            inner_cursor = _Cursor(loop_var, distinct[0])
            if instruction.sorts:
                clauses.append(self._order_by(instruction.sorts, inner_cursor))
            return xq.FlworExpr(
                clauses, self._gen_body(instruction.body, inner_cursor)
            )
        # heterogeneous selection: dispatch the body per element type
        if instruction.sorts:
            raise RewriteError(
                "sorting a heterogeneous for-each is not supported"
            )
        chain = xq.EmptySequence()
        for node in reversed(distinct):
            inner_cursor = _Cursor(loop_var, node)
            chain = xq.IfExpr(
                xq.InstanceOfExpr(
                    xp.VariableRef(loop_var), "element", node.name.local
                ),
                self._gen_body(instruction.body, inner_cursor),
                chain,
            )
        return xq.FlworExpr(clauses, chain)

    def _gen_if(self, instruction, cursor):
        return xq.IfExpr(
            self._rebase(instruction.test, cursor),
            self._gen_body(instruction.body, cursor),
            xq.EmptySequence(),
        )

    def _gen_choose(self, instruction, cursor):
        chain = self._gen_body(instruction.otherwise, cursor)
        for test, body in reversed(instruction.whens):
            chain = xq.IfExpr(
                self._rebase(test, cursor),
                self._gen_body(body, cursor),
                chain,
            )
        return chain

    def _gen_call_template(self, instruction, cursor):
        template = self.pe.stylesheet.named_templates.get(instruction.name)
        if template is None:
            raise RewriteError("no template named %r" % instruction.name)
        params = {
            with_param.name: self._with_param_value(with_param, cursor)
            for with_param in instruction.with_params
        }
        return self._instantiate_template(template, cursor, None, params)

    def _gen_copy_of(self, instruction, cursor):
        return self._rebase(instruction.select, cursor)

    def _gen_copy(self, instruction, cursor):
        node = cursor.node
        if node.kind == NodeKind.ELEMENT:
            return xq.DirectElementConstructor(
                QName(node.name.local, node.name.uri, node.name.prefix),
                [],
                self._content_items(instruction.body, cursor),
            )
        if node.kind == NodeKind.TEXT:
            return xq.ComputedTextConstructor(
                xp.FunctionCall("string", [cursor.ref()])
            )
        if node.kind == NodeKind.DOCUMENT:
            return self._gen_body(instruction.body, cursor)
        raise RewriteError("xsl:copy on this node kind is not supported")

    def _gen_element(self, instruction, cursor):
        if not instruction.name_avt.is_constant:
            raise RewriteError("computed element names are not supported")
        attributes = []
        body = list(instruction.body)
        while body and isinstance(body[0], xi.AttributeInstr):
            attr_instr = body.pop(0)
            if not attr_instr.name_avt.is_constant:
                raise RewriteError(
                    "computed attribute names are not supported"
                )
            attributes.append(
                xq.AttributeConstructor(
                    QName(attr_instr.name_avt.constant_value()),
                    self._attribute_value_parts(attr_instr.body, cursor),
                )
            )
        return xq.DirectElementConstructor(
            QName(instruction.name_avt.constant_value()),
            attributes,
            self._content_items(body, cursor),
        )

    # -- expression rebasing --------------------------------------------------------

    def _rebase(self, expr, cursor):
        """Rebase an XSLT-context XPath expression onto the cursor variable."""
        expr = _replace_current(expr, cursor.var)
        return self._rebase_walk(expr, cursor)

    def _rebase_walk(self, expr, cursor):
        if xp.is_context_item(expr):
            return cursor.ref()
        if isinstance(expr, xp.PathExpr):
            if expr.start is not None:
                start = self._rebase_walk(expr.start, cursor)
            elif expr.absolute:
                start = xp.VariableRef(ROOT_VAR)
            else:
                start = cursor.ref()
            return xp.PathExpr(expr.steps, start=start)
        if isinstance(expr, xp.FilterExpr):  # predicates keep their own focus
            return xp.FilterExpr(
                self._rebase_walk(expr.primary, cursor), expr.predicates
            )
        if isinstance(expr, xp.FunctionCall):
            if expr.name in ("position", "last"):
                raise RewriteError(
                    "%s() outside predicates cannot be rewritten" % expr.name
                )
            if expr.name in (
                "key", "generate-id", "document", "id", "format-number",
                "system-property", "unparsed-entity-uri", "current-group",
            ):
                # XSLT-specific functions have no XQuery counterpart.
                raise RewriteError(
                    "%s() is not supported by the rewrite" % expr.name
                )
            if not expr.args and expr.name in (
                "name", "local-name", "namespace-uri", "string",
                "string-length", "normalize-space", "number",
            ):
                # zero-arg forms default to the context node, which the
                # generated FLWOR no longer focuses — pass it explicitly
                return xp.FunctionCall(expr.name, [cursor.ref()])
        return expr.rebuilt(lambda child: self._rebase_walk(child, cursor))


def _replace_current(expr, var):
    """Replace current() with the cursor variable, everywhere (including
    inside predicates, where the context item differs from current())."""
    if isinstance(expr, xp.FunctionCall) and expr.name == "current":
        return xp.VariableRef(var)
    return expr.rebuilt(lambda child: _replace_current(child, var))


def _uses_position(expr):
    return any(
        isinstance(node, xp.FunctionCall) and node.name in ("position", "last")
        for node in expr.iter_tree()
    )


def _is_last_call(expr):
    return isinstance(expr, xp.FunctionCall) and expr.name == "last"


def _has_predicates(expr):
    for node in expr.iter_tree():
        if isinstance(node, xp.PathExpr) and any(
            step.predicates for step in node.steps
        ):
            return True
        if isinstance(node, xp.FilterExpr) and node.predicates:
            return True
    return False


def _node_label(node):
    """Readable subject label for a sample node (element name or kind)."""
    name = node.name
    if name is not None:
        return name.lexical
    return "<%s>" % node.kind


def _text_child(element):
    for child in element.children:
        if child.kind == NodeKind.TEXT:
            return child
    return None


def _seq(items):
    if not items:
        return xq.EmptySequence()
    if len(items) == 1:
        return items[0]
    return xq.SequenceExpr(items)


_GENERATORS = {
    xi.TextInstr: XQueryGenerator._gen_text,
    xi.LiteralElementInstr: XQueryGenerator._gen_literal_element,
    xi.ValueOfInstr: XQueryGenerator._gen_value_of,
    xi.ApplyTemplatesInstr: XQueryGenerator._gen_apply_templates,
    xi.ForEachInstr: XQueryGenerator._gen_for_each,
    xi.IfInstr: XQueryGenerator._gen_if,
    xi.ChooseInstr: XQueryGenerator._gen_choose,
    xi.CallTemplateInstr: XQueryGenerator._gen_call_template,
    xi.CopyOfInstr: XQueryGenerator._gen_copy_of,
    xi.CopyInstr: XQueryGenerator._gen_copy,
    xi.ElementInstr: XQueryGenerator._gen_element,
}


def generate_xquery(partial_evaluation, options=None, ledger=None):
    """Generate the XQuery module for a partially evaluated stylesheet."""
    return XQueryGenerator(partial_evaluation, options, ledger=ledger).generate()
