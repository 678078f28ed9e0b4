"""The bound stylesheet program: one per :class:`~.stylesheet.Stylesheet`.

Where :mod:`repro.rdb.binding` binds a plan once per (plan, catalog), this
binds a stylesheet once: every instruction body becomes a closure
``run(vm, context, output)`` (see :mod:`.instructions`), every expression
and pattern a closure from its own ``compile()``, and template dispatch a
table per mode keyed by the node's kind and expanded name, holding
best-first only the rules whose last step can match that key — a rule that
is one unanchored predicate-free step is decided by the key alone.
Binding is lazy (a template's body on its first instantiation, a table row
on the first node with that key) and idempotent, and the closures hold no
per-run state — that lives on the :class:`~.vm.XsltVM` passed to every call
— so one program serves every thread.  Closures reach the program through
``vm.program``, never by capturing it: stylesheet → program → closures is a
tree the reference counter frees.

:class:`TracingProgram` is the variant partial evaluation (paper §4.3) and
``trace=`` runs use: dispatch records every event, and under ``explore``
selects and patterns run as their ``without_predicates()`` form (a handle
on the memoised tree, so its closure is shared across compiles like the
plain one) and every candidate template and every conditional branch runs.
It is chosen when the VM is constructed and bound as lazily, once per VM.
"""

from __future__ import annotations

from types import MappingProxyType

from repro.errors import XsltRuntimeError
from repro.xmlmodel.builder import TreeBuilder
from repro.xmlmodel.nodes import NodeKind
from repro.xpath.ast import NODE_SET_EXPRS
from repro.xpath.datamodel import to_node_set, to_number, to_string
from repro.xslt import trace as trace_mod
from repro.xslt.instructions import VariableInstr

MAX_TEMPLATE_DEPTH = 500

_ELEMENT, _ATTRIBUTE = NodeKind.ELEMENT, NodeKind.ATTRIBUTE
_DOCUMENT, _TEXT = NodeKind.DOCUMENT, NodeKind.TEXT
_NO_PARAMS = MappingProxyType({})


def dispatch_key(node):
    """What template dispatch keys a node on: kind and expanded name."""
    kind = node.kind
    if kind == _ELEMENT or kind == _ATTRIBUTE:
        name = node._name
        return (kind, name.local, name.uri)
    return (kind, node.target) if kind == NodeKind.PI else kind


def rule_is_conditional(rule):
    """True when any step of the rule's pattern carries predicates (the
    match can fail on real data even though structure matches)."""
    return any(step.predicates for step in rule.pattern.steps)


def builtin_kind(node):
    kind = node.kind
    if kind == _ELEMENT or kind == _DOCUMENT:
        return trace_mod.BUILTIN_RECURSE
    if kind == _TEXT or kind == _ATTRIBUTE:
        return trace_mod.BUILTIN_TEXT
    return trace_mod.BUILTIN_SKIP


def _sort_key(value, numeric):
    if numeric:
        number = to_number(value)
        # NaN sorts before any number.
        return (0, 0.0) if number != number else (1, number)
    return (1, to_string(value))


class Program:
    """The plain variant: what ``XsltVM(stylesheet)`` runs."""

    explore = False
    trace = None

    def __init__(self, stylesheet):
        # the parts dispatch reads, not the stylesheet: no back-reference
        self.rules_by_mode = stylesheet.rules_by_mode
        self.named_templates = stylesheet.named_templates
        self.namespaces = stylesheet.namespaces
        self.global_bindings = stylesheet.global_bindings
        self._templates = {}    # Template -> enter(vm, params, ctx, out, site)
        self._tables = {}       # mode -> {dispatch key: entries}
        self._appliers = {}     # mode -> apply(vm, nodes, params, ctx, out, site)
        self._globals = None

    # -- bodies and values -----------------------------------------------------

    def body(self, instructions):
        """An instruction list as one closure.  An ``xsl:variable`` step
        returns the context extended with its binding, threaded into the
        steps after it; the executed count is added per body."""
        steps = [(isinstance(instruction, VariableInstr), instruction.bind(self))
                 for instruction in instructions]
        count = len(steps)

        def body(vm, context, output):
            vm.instructions_executed += count
            for binds, run in steps:
                if binds:
                    context = run(vm, context, output)
                else:
                    run(vm, context, output)

        return body

    def value(self, select, body):
        """``value(vm, context)`` of a variable, param or with-param: its
        select, else its body as a result tree fragment."""
        if select is not None:
            select = select.bound()
            return lambda vm, context: select(context)
        run = self.body(body)

        def fragment(vm, context):
            builder = TreeBuilder()
            run(vm, context, builder)
            return builder.finish()

        return fragment

    def text_of(self, body):
        fragment = self.value(None, body)
        return lambda vm, context: fragment(vm, context).string_value()

    def with_params(self, with_params):
        if not with_params:
            return lambda vm, context: _NO_PARAMS
        values = [(param.name, self.value(param.select, param.body))
                  for param in with_params]
        return lambda vm, context: {
            name: value(vm, context) for name, value in values}

    def global_values(self):
        if self._globals is None:
            self._globals = [
                (binding, self.value(binding.select, binding.body))
                for binding in self.global_bindings]
        return self._globals

    def select(self, expr, what):
        """A dispatching select (apply-templates / for-each) as a closure
        returning a node list; ``what`` names it in the type error."""
        select = expr.bound()
        if isinstance(expr, NODE_SET_EXPRS):
            return select
        return lambda context: to_node_set(select(context), what)

    def pattern(self, rule):
        return rule.pattern

    def sorter(self, sorts):
        """``sort(nodes, context)`` for xsl:sort specs (stable, last spec
        applied first), or ``None``."""
        if not sorts:
            return None
        specs = [(spec.select.bound(), spec.data_type == "number",
                  spec.order == "descending") for spec in sorts]

        def sort(nodes, context):
            ordered = list(nodes)
            if not ordered:
                return ordered
            # Key values are computed in the *unsorted* context.
            focus = context.with_node(ordered[0], 0, len(ordered))
            keys = {}
            for node in ordered:
                focus.node = node
                focus.position += 1
                keys[id(node)] = [_sort_key(select(focus), numeric)
                                  for select, numeric, _ in specs]
            for index in range(len(specs) - 1, -1, -1):
                ordered.sort(key=lambda node: keys[id(node)][index],
                             reverse=specs[index][2])
            return ordered

        return sort

    def counter(self, level, count, from_):
        """``number(context)`` for xsl:number level="single"/"any"."""
        count = count.compile() if count is not None else None
        from_ = from_.compile() if from_ is not None else None

        def number(context):
            node = context.node

            def matches(candidate):
                if count is not None:
                    return count(candidate, context)
                return candidate.kind == node.kind and candidate.name == node.name

            if level == "single":
                target = node
                while target is not None and not matches(target):
                    target = target.parent
                if target is None:
                    return 0
                return 1 + sum(
                    1 for sibling in target.preceding_siblings()
                    if matches(sibling))
            # level="any": count matching nodes up to and including this
            # one, restarting after the closest preceding 'from' match.
            total = 0
            for candidate in node.root().iter_subtree():
                if from_ is not None and from_(candidate, context):
                    total = 0
                if matches(candidate):
                    total += 1
                if candidate is node:
                    break
            return total

        return number

    # -- templates -----------------------------------------------------------------

    def template(self, template):
        enter = self._templates.get(template)
        if enter is None:
            enter = self._templates[template] = self.bind_template(template)
        return enter

    def named_template(self, name):
        template = self.named_templates.get(name)
        if template is None:
            raise XsltRuntimeError("no template named %r" % name)
        return self.template(template)

    def template_body(self, template):
        return self.body(template.body)

    def bind_template(self, template):
        """``enter(vm, params, context, output, site)``.  The body and the
        param defaults are bound on the first instantiation."""
        defaults = body = None

        def enter(vm, params, context, output, site):
            nonlocal defaults, body
            if body is None:
                program = vm.program
                defaults = [(param.name, program.value(param.select, param.body))
                            for param in template.params]
                body = program.template_body(template)
            if vm._depth >= MAX_TEMPLATE_DEPTH:
                raise XsltRuntimeError(
                    "template nesting exceeded %d (possible infinite recursion"
                    " in %s)" % (MAX_TEMPLATE_DEPTH, template.label())
                )
            vm.templates_dispatched += 1
            if defaults:
                context = context.with_variables({
                    name: params[name] if name in params
                    else default(vm, context)
                    for name, default in defaults})
            vm._depth += 1
            try:
                body(vm, context, output)
            finally:
                vm._depth -= 1

        return enter

    # -- dispatch ----------------------------------------------------------------------

    def rules_for(self, mode, node):
        """The dispatch-table row for nodes keyed like ``node``: tuples
        ``(rule, matcher, conditional, current_rule, enter)`` best-first,
        ``matcher`` ``None`` when the key alone decides."""
        table = self._tables.setdefault(mode, {})
        key = dispatch_key(node)
        entries = table.get(key)
        if entries is None:
            entries = table[key] = self.bind_row(mode, node)
        return entries

    def bind_row(self, mode, node):
        entries = []
        for rule in self.rules_by_mode.get(mode, ()):
            pattern = self.pattern(rule)
            steps = pattern.steps
            if steps:
                admitted = steps[-1].admits(node, self.namespaces)
            else:  # "/"
                admitted = node.kind == _DOCUMENT
            if admitted is False:
                continue
            keyed = admitted and (not steps or pattern.keyed)
            matcher = None if keyed else pattern.compile()
            conditional = rule_is_conditional(rule)
            entries.append((rule, matcher, conditional, (rule.template, mode),
                            self.template(rule.template)))
            if matcher is None and not conditional:
                break  # later rules can never fire
        return tuple(entries)

    def applier(self, mode):
        apply = self._appliers.get(mode)
        if apply is None:
            apply = self._appliers[mode] = self.bind_apply(mode)
        return apply

    def bind_apply(self, mode):
        """``apply(vm, nodes, params, context, output, site)``: dispatch
        each node in ``mode`` — best rule, else the built-in rule."""
        table = self._tables.setdefault(mode, {})

        def apply(vm, nodes, params, context, output, site):
            if not nodes:
                return
            # one context for the loop, re-pointed at each node
            focus = context.with_node(nodes[0], 0, len(nodes))
            outer_rule = vm._rule
            try:
                for node in nodes:
                    focus.node = focus.current = node
                    focus.position += 1
                    key = dispatch_key(node)
                    entries = table.get(key)
                    if entries is None:
                        entries = table[key] = vm.program.bind_row(mode, node)
                    for _, matcher, _, current, enter in entries:
                        if matcher is None or matcher(node, focus):
                            vm._rule = current
                            enter(vm, params, focus, output, site)
                            break
                    else:
                        vm.program.builtin(vm, node, mode, focus, output, site)
            finally:
                vm._rule = outer_rule

        return apply

    def apply_imports(self, vm, context, output, site):
        """xsl:apply-imports: match with rules of strictly lower import
        precedence than the current template rule, in its mode."""
        if vm._rule is None:
            raise XsltRuntimeError("xsl:apply-imports outside any template rule")
        current, mode = outer_rule = vm._rule
        node = context.node
        for rule in self.rules_by_mode.get(mode, ()):
            if rule.precedence < current.precedence and self.pattern(
                    rule).compile()(node, context):
                if self.trace is not None:
                    self.trace.record_apply(site, current, node, node,
                                            rule.template, mode)
                vm._rule = (rule.template, mode)
                try:
                    return self.template(rule.template)(
                        vm, _NO_PARAMS, context, output, site)
                finally:
                    vm._rule = outer_rule
        self.builtin(vm, node, mode, context, output, site)

    def builtin(self, vm, node, mode, context, output, site):
        """The built-in rule: recurse into an element's or the document's
        children, copy a text or attribute value, skip the rest."""
        vm.templates_dispatched += 1
        kind = node.kind
        if kind == _ELEMENT or kind == _DOCUMENT:
            self.applier(mode)(vm, node.children, _NO_PARAMS, context, output,
                               None)
        elif kind == _TEXT or kind == _ATTRIBUTE:
            output.text(node.value)


def _caller(vm):
    return vm._template_stack[-1] if vm._template_stack else None


class TracingProgram(Program):
    """The variant behind ``XsltVM(stylesheet, trace=, explore=)``, bound
    per VM: tracing, and the paper's §4.3 stance decided at bind time."""

    def __init__(self, stylesheet, trace, explore):
        Program.__init__(self, stylesheet)
        self.trace = trace if trace is not None else trace_mod.TraceRecorder()
        self.explore = explore

    def select(self, expr, what):
        if self.explore:
            expr = expr.without_predicates()
        return Program.select(self, expr, what)

    def pattern(self, rule):
        if self.explore:
            return rule.pattern.without_predicates()
        return rule.pattern

    def rules_for(self, mode, node):
        """Every rule of the mode behind its pattern's matcher: a one-shot
        run does not earn a keyed table back."""
        entries = self._tables.get(mode)
        if entries is None:
            entries = self._tables[mode] = tuple(
                (rule, self.pattern(rule).compile(), rule_is_conditional(rule),
                 (rule.template, mode), self.template(rule.template))
                for rule in self.rules_by_mode.get(mode, ()))
        return entries

    def template_body(self, template):
        body = self.body(template.body)

        def traced_body(vm, context, output):
            vm._template_stack.append(template)
            try:
                body(vm, context, output)
            finally:
                vm._template_stack.pop()

        return traced_body

    def bind_template(self, template):
        enter = Program.bind_template(self, template)
        record, explore = self.trace.record_instantiation, self.explore

        def traced_enter(vm, params, context, output, site):
            if explore:
                # Partial evaluation: a template re-entered on the same
                # sample node is a recursion — record it (the trace already
                # holds the edge) but do not re-execute, so exploration
                # terminates.  The execution graph becomes cyclic and
                # forces non-inline mode.
                marker = (id(template), id(context.node))
                if marker in vm._explore_stack:
                    return
                vm._explore_stack.append(marker)
            try:
                record(template, context.node, site, _caller(vm))
                enter(vm, params, context, output, site)
            finally:
                if explore:
                    vm._explore_stack.pop()

        return traced_enter

    def named_template(self, name):
        enter = Program.named_template(self, name)  # raises when unknown
        template, record = self.named_templates[name], self.trace.record_call

        def traced_call(vm, params, context, output, site):
            record(site, _caller(vm), context.node, template)
            enter(vm, params, context, output, site)

        return traced_call

    def bind_apply(self, mode):
        record, explore = self.trace.record_apply, self.explore

        def apply(vm, nodes, params, context, output, site):
            program, caller, outer_rule = vm.program, _caller(vm), vm._rule
            size = len(nodes)
            try:
                for position, node in enumerate(nodes, start=1):
                    focus = context.with_node(node, position, size)
                    focus.current = node
                    # the best rule — exploring: every candidate, and the
                    # built-in rule too when all of them are conditional
                    chosen, fallback = [], True
                    for entry in program.rules_for(mode, node):
                        _, matcher, conditional, _, _ = entry
                        if matcher(node, focus):
                            chosen.append(entry)
                            fallback = explore and conditional
                            if not fallback:
                                break
                    for rule, _, _, current, enter in chosen:
                        record(site, caller, context.node, node,
                               rule.template, mode)
                        vm._rule = current
                        enter(vm, params, focus, output, site)
                    if fallback:
                        record(site, caller, context.node, node,
                               builtin_kind(node), mode)
                        program.builtin(vm, node, mode, focus, output, site)
            finally:
                vm._rule = outer_rule

        return apply

    def builtin(self, vm, node, mode, context, output, site):
        self.trace.record_instantiation(builtin_kind(node), node, site,
                                        _caller(vm))
        Program.builtin(self, vm, node, mode, context, output, site)
