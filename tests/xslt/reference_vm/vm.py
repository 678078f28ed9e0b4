"""The tree-walking XSLT VM the bound stylesheet program replaced.

``XsltVM`` and every ``Instruction.execute`` body as they stood before the
stylesheet was bound once (``repro.xslt.program``), kept as the
differential reference the way PR 18 kept the row-dict materialiser and
PR 20 the char-loop parsers: :class:`ReferenceVM` re-interprets the
instruction tree and the XPath AST per node, allocates a context per node,
walks the rule list linearly and builds its function table per instance.
The instruction classes in ``src`` are plain data now, so the ``execute``
bodies live here as functions dispatched on the instruction's type; every
expression goes through :mod:`tests.xslt.reference_vm.xpath`, never through
a compiled closure.  ``strip_space``, ``format_decimal`` and
``format_number_token`` are pure helpers the new VM kept as they were and
are imported from ``src``.
"""

import sys

from repro.errors import XsltRuntimeError
from repro.xmlmodel.builder import TreeBuilder
from repro.xmlmodel.nodes import Node, NodeKind, QName
from repro.xpath.context import XPathContext
from repro.xpath.datamodel import (
    to_boolean,
    to_node_set,
    to_number,
    to_string,
)
from repro.xslt import instructions as instr
from repro.xslt import trace as trace_mod
from repro.xslt.instructions import (
    ParamInstr,
    VariableInstr,
    format_number_token,
)
from repro.xslt.stylesheet import _Compiler
from repro.xslt.vm import format_decimal, strip_space

from tests.xslt.reference_vm.xpath import evaluate, pattern_matches

_MAX_TEMPLATE_DEPTH = 500

# Each template instantiation costs ~10 Python frames; make sure our own
# depth guard (_MAX_TEMPLATE_DEPTH, a clean XsltRuntimeError) trips before
# the interpreter's RecursionError would.
sys.setrecursionlimit(max(sys.getrecursionlimit(), 100_000))


class ReferenceVM:
    """One VM instance per transformation run.

    ``explore`` is the paper's §4.3 partial-evaluation stance, whole:
    dispatching selects and match patterns are evaluated as the node's own
    ``without_predicates()`` form (predicates assumed true — the one thing
    this reference shares with ``src``), *every* conditional branch
    executes and *every* candidate template is instantiated at each
    dispatch, so the trace covers everything that could fire on any
    conforming document.
    """

    def __init__(self, stylesheet, trace=None, explore=False):
        self.stylesheet = stylesheet
        self.trace = trace
        self.explore = explore
        self.messages = []
        #: observability counters, read by the obs layer / TransformResult
        self.instructions_executed = 0
        self.templates_dispatched = 0
        self._key_indexes = {}
        self._template_stack = []
        # (template, mode) of the current template *rule*, for apply-imports
        self._rule_stack = []
        self._explore_stack = []
        self._depth = 0
        self._functions = self._build_function_table()

    # -- entry point ------------------------------------------------------------

    def transform_document(self, document, params=None):
        """Run the stylesheet; returns the result tree :class:`Document`."""
        if self.stylesheet.strip_space_names:
            document = strip_space(document, self.stylesheet.strip_space_names,
                                   self.stylesheet.preserve_space_names)
        output = TreeBuilder()
        context = XPathContext(
            document,
            variables={},
            namespaces=self.stylesheet.namespaces,
            functions=self._functions,
        )
        context.variables.update(self._resolve_globals(context, params or {}))
        self.apply_templates([document], None, {}, context, output, site=None)
        return output.finish()

    # -- template dispatch ---------------------------------------------------------

    def apply_templates(self, nodes, mode, params, context, output, site):
        caller = self._template_stack[-1] if self._template_stack else None
        size = len(nodes)
        for position, node in enumerate(nodes, start=1):
            sub = context.with_node(node, position=position, size=size)
            sub.current = node
            if self.explore:
                self._apply_exploring(node, mode, params, sub, output, site,
                                      caller, context)
                continue
            rule = self.find_rule(node, mode, sub)
            resolved = rule.template if rule else _builtin_kind(node)
            if self.trace is not None:
                self.trace.record_apply(
                    site, caller, context.node, node, resolved, mode
                )
            if rule is not None:
                self._instantiate(rule.template, params, sub, output, site,
                                  mode=mode)
            else:
                self._builtin(node, mode, sub, output, site)

    def _apply_exploring(self, node, mode, params, sub, output, site, caller,
                         context):
        """Explore-mode dispatch: instantiate every candidate template (and
        the built-in rule when all candidates are conditional)."""
        candidates = self.find_candidate_rules(node, mode, sub)
        for rule in candidates:
            if self.trace is not None:
                self.trace.record_apply(
                    site, caller, context.node, node, rule.template, mode
                )
            self._instantiate(rule.template, params, sub, output, site)
        if not candidates or all(
            _rule_is_conditional(rule) for rule in candidates
        ):
            if self.trace is not None:
                self.trace.record_apply(
                    site, caller, context.node, node, _builtin_kind(node), mode
                )
            self._builtin(node, mode, sub, output, site)

    def find_rule(self, node, mode, context):
        """Best matching rule for ``node`` in ``mode`` (or None)."""
        for rule in self.stylesheet.rules_for_mode(mode):
            if pattern_matches(self._pattern(rule), node, context):
                return rule
        return None

    def find_candidate_rules(self, node, mode, context):
        """All rules that could match ``node`` with predicates assumed true,
        best-first, cut after the first unconditional rule (later rules can
        never fire)."""
        candidates = []
        for rule in self.stylesheet.rules_for_mode(mode):
            if pattern_matches(self._pattern(rule), node, context):
                candidates.append(rule)
                if not _rule_is_conditional(rule):
                    break
        return candidates

    def _pattern(self, rule):
        if self.explore:
            return rule.pattern.without_predicates()
        return rule.pattern

    def eval_select(self, select, context):
        """Evaluate a dispatching select (stripped when exploring)."""
        if self.explore:
            select = select.without_predicates()
        return evaluate(select, context)

    def apply_imports(self, context, output, site=None):
        """xsl:apply-imports: match with rules of strictly lower import
        precedence than the current template rule, in its mode."""
        if not self._rule_stack:
            raise XsltRuntimeError(
                "xsl:apply-imports outside any template rule"
            )
        current_template, mode = self._rule_stack[-1]
        for rule in self.stylesheet.rules_for_mode(mode):
            if rule.precedence >= current_template.precedence:
                continue
            if pattern_matches(self._pattern(rule), context.node, context):
                if self.trace is not None:
                    self.trace.record_apply(
                        site, current_template, context.node, context.node,
                        rule.template, mode,
                    )
                self._instantiate(rule.template, {}, context, output, site,
                                  mode=mode)
                return
        self._builtin(context.node, mode, context, output, site)

    def call_template(self, name, params, context, output, site):
        template = self.stylesheet.named_templates.get(name)
        if template is None:
            raise XsltRuntimeError("no template named %r" % name)
        caller = self._template_stack[-1] if self._template_stack else None
        if self.trace is not None:
            self.trace.record_call(site, caller, context.node, template)
        self._instantiate(template, params, context, output, site)

    def _instantiate(self, template, params, context, output, site,
                     mode=None):
        if self.explore:
            # Partial evaluation: a template re-entered on the same sample
            # node is a recursion — record it (the trace already holds the
            # edge) but do not re-execute, so exploration terminates.  The
            # execution graph becomes cyclic and forces non-inline mode.
            marker = (id(template), id(context.node))
            if marker in self._explore_stack:
                return
            self._explore_stack.append(marker)
            try:
                self._instantiate_inner(template, params, context, output,
                                        site, mode)
            finally:
                self._explore_stack.pop()
            return
        self._instantiate_inner(template, params, context, output, site, mode)

    def _instantiate_inner(self, template, params, context, output, site,
                           mode=None):
        if self._depth >= _MAX_TEMPLATE_DEPTH:
            raise XsltRuntimeError(
                "template nesting exceeded %d (possible infinite recursion"
                " in %s)" % (_MAX_TEMPLATE_DEPTH, template.label())
            )
        self.templates_dispatched += 1
        if self.trace is not None:
            caller = self._template_stack[-1] if self._template_stack else None
            self.trace.record_instantiation(template, context.node, site, caller)
        bound = {}
        for param in template.params:
            if param.name in params:
                bound[param.name] = params[param.name]
            else:
                bound[param.name] = compute(param, self, context)
        body_context = context.with_variables(bound) if bound else context
        self._template_stack.append(template)
        self._rule_stack.append((template, mode))
        self._depth += 1
        try:
            self.execute_body(template.body, body_context, output)
        finally:
            self._depth -= 1
            self._rule_stack.pop()
            self._template_stack.pop()

    def _builtin(self, node, mode, context, output, site):
        kind = node.kind
        self.templates_dispatched += 1
        if self.trace is not None:
            self.trace.record_instantiation(
                _builtin_kind(node), node, site,
                self._template_stack[-1] if self._template_stack else None,
            )
        if kind in (NodeKind.ELEMENT, NodeKind.DOCUMENT):
            self.apply_templates(
                list(node.children), mode, {}, context, output, site=None
            )
        elif kind in (NodeKind.TEXT, NodeKind.ATTRIBUTE):
            output.text(node.string_value())
        # comments and PIs: no output

    # -- body execution --------------------------------------------------------------

    def execute_body(self, body, context, output):
        """Execute instructions; xsl:variable threads new bindings forward."""
        for instruction in body:
            self.instructions_executed += 1
            if isinstance(instruction, VariableInstr):
                # Covers ParamInstr in bodies too (treated as variable).
                value = compute(instruction, self, context)
                context = context.with_variables({instruction.name: value})
            else:
                execute(instruction, self, context, output)

    def build_fragment(self, body, context):
        """Execute a body into a fresh result tree fragment (a Document)."""
        builder = TreeBuilder()
        self.execute_body(body, context, builder)
        return builder.finish()

    def body_to_string(self, body, context):
        return self.build_fragment(body, context).string_value()

    def copy_value(self, value, output):
        """xsl:copy-of semantics for any XPath value."""
        if isinstance(value, Node):
            output.copy_node(value)
        elif isinstance(value, list):
            for item in value:
                if isinstance(item, Node):
                    output.copy_node(item)
                else:
                    output.text(to_string(item))
        else:
            output.text(to_string(value))

    # -- sorting -----------------------------------------------------------------------

    def sort_nodes(self, nodes, sorts, context):
        """Apply xsl:sort specs (stable, last spec applied first)."""
        ordered = list(nodes)
        size = len(ordered)
        # Precompute key values in the *unsorted* context, as the spec asks.
        key_rows = {}
        for position, node in enumerate(ordered, start=1):
            sub = context.with_node(node, position=position, size=size)
            key_rows[id(node)] = [
                self._sort_key(spec, sub) for spec in sorts
            ]
        for index in range(len(sorts) - 1, -1, -1):
            spec = sorts[index]
            ordered.sort(
                key=lambda node: key_rows[id(node)][index],
                reverse=(spec.order == "descending"),
            )
        return ordered

    @staticmethod
    def _sort_key(spec, context):
        value = evaluate(spec.select, context)
        if spec.data_type == "number":
            number = to_number(value)
            # NaN sorts before any number.
            return (0 if number != number else 1, 0.0 if number != number else number)
        return (1, to_string(value))

    # -- xsl:number ---------------------------------------------------------------------

    def count_number(self, node, level, count_pattern, from_pattern, context):
        def matches(candidate):
            if count_pattern is not None:
                return pattern_matches(
                    count_pattern, candidate, context.with_node(candidate)
                )
            return (
                candidate.kind == node.kind
                and candidate.name == node.name
            )

        if level == "single":
            target = node
            while target is not None and not matches(target):
                target = target.parent
            if target is None:
                return 0
            count = 1
            for sibling in target.preceding_siblings():
                if matches(sibling):
                    count += 1
            return count

        # level="any": count matching nodes up to and including this one,
        # restarting after the closest preceding 'from' match.
        count = 0
        root = node.root()
        for candidate in root.iter_subtree():
            if from_pattern is not None and pattern_matches(
                from_pattern, candidate, context.with_node(candidate)
            ):
                count = 0
            if matches(candidate):
                count += 1
            if candidate is node:
                break
        return count

    # -- globals --------------------------------------------------------------------------

    def _resolve_globals(self, context, params):
        """Evaluate top-level variables/params; forward references are
        resolved by fixed-point iteration."""
        pending = list(self.stylesheet.global_bindings)
        resolved = {}
        while pending:
            progressed = False
            errors = {}
            for binding in list(pending):
                if isinstance(binding, ParamInstr) and binding.name in params:
                    resolved[binding.name] = params[binding.name]
                    pending.remove(binding)
                    progressed = True
                    continue
                try:
                    value = compute(
                        binding, self, context.with_variables(resolved)
                    )
                except Exception as exc:  # retry once dependencies resolve
                    errors[binding.name] = exc
                    continue
                resolved[binding.name] = value
                pending.remove(binding)
                progressed = True
            if not progressed:
                name, exc = next(iter(errors.items()))
                raise XsltRuntimeError(
                    "cannot resolve global binding $%s: %s" % (name, exc)
                )
        return resolved

    # -- XSLT function library ------------------------------------------------------------

    def _build_function_table(self):
        vm = self

        def fn_current(context):
            return [context.current]

        def fn_key(context, name, value):
            name = to_string(name)
            key = vm.stylesheet.keys.get(name)
            if key is None:
                raise XsltRuntimeError("no xsl:key named %r" % name)
            index = vm._key_index(name, key, context)
            if isinstance(value, list) and value and isinstance(value[0], Node):
                wanted = [node.string_value() for node in value]
            else:
                wanted = [to_string(value)]
            found = []
            for want in wanted:
                found.extend(index.get(want, ()))
            from repro.xpath.datamodel import sort_document_order

            return sort_document_order(found)

        def fn_generate_id(context, value=None):
            if value is None:
                node = context.node
            else:
                if not isinstance(value, list):
                    raise XsltRuntimeError("generate-id() expects a node-set")
                if not value:
                    return ""
                node = value[0]
            # Stable across repeated materialisations of the same stored
            # document: document order is deterministic, object ids are not.
            return "id%d" % node.order

        def fn_system_property(context, name):
            name = to_string(name)
            properties = {
                "xsl:version": "1.0",
                "xsl:vendor": "repro-xsltvm",
                "xsl:vendor-url": "https://example.invalid/repro",
            }
            return properties.get(name, "")

        def fn_format_number(context, number, picture, fmt=None):
            return format_decimal(to_number(number), to_string(picture))

        def fn_document(context, *args):
            raise XsltRuntimeError("document() is not supported")

        def fn_unparsed_entity_uri(context, name):
            return ""

        def fn_element_available(context, name):
            local = to_string(name).split(":")[-1]
            return local in _Compiler._INSTRUCTIONS

        def fn_function_available(context, name):
            from repro.xpath.functions import CORE_FUNCTIONS

            local = to_string(name)
            if local.startswith("fn:"):
                local = local[3:]
            return local in CORE_FUNCTIONS or local in vm._functions

        return {
            "current": (0, 0, fn_current),
            "key": (2, 2, fn_key),
            "generate-id": (0, 1, fn_generate_id),
            "system-property": (1, 1, fn_system_property),
            "format-number": (2, 3, fn_format_number),
            "document": (1, 2, fn_document),
            "unparsed-entity-uri": (1, 1, fn_unparsed_entity_uri),
            "element-available": (1, 1, fn_element_available),
            "function-available": (1, 1, fn_function_available),
        }

    def _key_index(self, name, key, context):
        # Keyed by key *name*, holding the document root alongside the
        # index: a live reference keeps the root's id from being reused
        # after GC (which would alias indexes across documents), and
        # moving to the next document simply replaces the entry — the
        # index is evicted together with the document it describes.
        root = context.node.root()
        cached = self._key_indexes.get(name)
        if cached is not None and cached[0] is root:
            return cached[1]
        index = {}
        for node in root.iter_subtree():
            candidates = [node]
            if node.kind == NodeKind.ELEMENT:
                candidates.extend(node.attributes)
            for candidate in candidates:
                if pattern_matches(key.match, candidate,
                                   context.with_node(candidate)):
                    use_value = evaluate(key.use, context.with_node(candidate))
                    if isinstance(use_value, list):
                        values = [item.string_value() if isinstance(item, Node)
                                  else to_string(item) for item in use_value]
                    else:
                        values = [to_string(use_value)]
                    for value in values:
                        index.setdefault(value, []).append(candidate)
        self._key_indexes[name] = (root, index)
        return index


def _rule_is_conditional(rule):
    """True when any step of the rule's pattern carries predicates (the
    match can fail on real data even though structure matches)."""
    return any(step.predicates for step in rule.pattern.steps)


def _builtin_kind(node):
    kind = node.kind
    if kind in (NodeKind.ELEMENT, NodeKind.DOCUMENT):
        return trace_mod.BUILTIN_RECURSE
    if kind in (NodeKind.TEXT, NodeKind.ATTRIBUTE):
        return trace_mod.BUILTIN_TEXT
    return trace_mod.BUILTIN_SKIP


def avt_value(avt, context):
    """``Avt.evaluate``."""
    out = []
    for part in avt.parts:
        if isinstance(part, str):
            out.append(part)
        else:
            out.append(to_string(evaluate(part, context)))
    return "".join(out)


def execute(instruction, vm, context, output):
    """``instruction.execute(vm, context, output)``."""
    _EXECUTE[type(instruction)](instruction, vm, context, output)


def compute(binding, vm, context):
    """``VariableInstr.compute`` (and ``ParamInstr``'s)."""
    return _compute_VariableInstr(binding, vm, context)


# -- the instruction bodies ----------------------------------------------------


def _execute_TextInstr(self, vm, context, output):
    output.text(self.value)


def _execute_LiteralElementInstr(self, vm, context, output):
    output.start_element(self.name, namespaces=self.namespaces)
    for attr_name, avt in self.attributes:
        output.attribute(attr_name, avt_value(avt, context))
    vm.execute_body(self.body, context, output)
    output.end_element()


def _execute_ValueOfInstr(self, vm, context, output):
    output.text(to_string(evaluate(self.select, context)))


def _execute_ApplyTemplatesInstr(self, vm, context, output):
    if self.select is not None:
        value = vm.eval_select(self.select, context)
        nodes = to_node_set(value, "apply-templates select")
    else:
        nodes = list(context.node.children)
    if self.sorts:
        nodes = vm.sort_nodes(nodes, self.sorts, context)
    params = {
        with_param.name: _value_WithParam(with_param, vm, context)
        for with_param in self.with_params
    }
    vm.apply_templates(nodes, self.mode, params, context, output, site=self)


def _execute_CallTemplateInstr(self, vm, context, output):
    params = {
        with_param.name: _value_WithParam(with_param, vm, context)
        for with_param in self.with_params
    }
    vm.call_template(self.name, params, context, output, site=self)


def _execute_ForEachInstr(self, vm, context, output):
    nodes = to_node_set(
        vm.eval_select(self.select, context), "for-each select"
    )
    if self.sorts:
        nodes = vm.sort_nodes(nodes, self.sorts, context)
    size = len(nodes)
    for position, node in enumerate(nodes, start=1):
        sub = context.with_node(node, position=position, size=size)
        sub.current = node
        vm.execute_body(self.body, sub, output)


def _execute_IfInstr(self, vm, context, output):
    if vm.explore:
        # Partial evaluation explores every branch: the test depends on
        # content values the sample document does not carry.
        vm.execute_body(self.body, context, output)
        return
    if to_boolean(evaluate(self.test, context)):
        vm.execute_body(self.body, context, output)


def _execute_ChooseInstr(self, vm, context, output):
    if vm.explore:
        for _, body in self.whens:
            vm.execute_body(body, context, output)
        vm.execute_body(self.otherwise, context, output)
        return
    for test, body in self.whens:
        if to_boolean(evaluate(test, context)):
            vm.execute_body(body, context, output)
            return
    vm.execute_body(self.otherwise, context, output)


def _execute_CopyInstr(self, vm, context, output):
    node = context.node
    kind = node.kind
    if kind == NodeKind.ELEMENT:
        output.start_element(
            QName(node.name.local, node.name.uri, node.name.prefix),
            namespaces=dict(node.namespaces),
        )
        vm.execute_body(self.body, context, output)
        output.end_element()
    elif kind == NodeKind.DOCUMENT:
        vm.execute_body(self.body, context, output)
    elif kind == NodeKind.TEXT:
        output.text(node.value)
    elif kind == NodeKind.ATTRIBUTE:
        output.attribute(
            QName(node.name.local, node.name.uri, node.name.prefix),
            node.value,
        )
    elif kind == NodeKind.COMMENT:
        output.comment(node.value)
    elif kind == NodeKind.PI:
        output.processing_instruction(node.target, node.value)


def _execute_CopyOfInstr(self, vm, context, output):
    value = evaluate(self.select, context)
    vm.copy_value(value, output)


def _execute_ElementInstr(self, vm, context, output):
    name = avt_value(self.name_avt, context)
    output.start_element(QName(name))
    vm.execute_body(self.body, context, output)
    output.end_element()


def _execute_AttributeInstr(self, vm, context, output):
    name = avt_value(self.name_avt, context)
    value = vm.body_to_string(self.body, context)
    output.attribute(QName(name), value)


def _execute_CommentInstr(self, vm, context, output):
    output.comment(vm.body_to_string(self.body, context))


def _execute_PiInstr(self, vm, context, output):
    target = avt_value(self.name_avt, context)
    output.processing_instruction(target, vm.body_to_string(self.body, context))


def _execute_ApplyImportsInstr(self, vm, context, output):
    vm.apply_imports(context, output, site=self)


def _execute_FallbackInstr(self, vm, context, output):
    return None


def _execute_NumberInstr(self, vm, context, output):
    if self.value is not None:
        number = int(to_number(evaluate(self.value, context)))
    else:
        number = vm.count_number(
            context.node, self.level, self.count, self.from_, context
        )
    format_spec = (
        avt_value(self.format_avt, context) if self.format_avt else "1"
    )
    output.text(format_number_token(number, format_spec))


def _execute_MessageInstr(self, vm, context, output):
    message = vm.body_to_string(self.body, context)
    vm.messages.append(message)
    if self.terminate:
        raise XsltRuntimeError("xsl:message terminate: %s" % message)


def _compute_VariableInstr(self, vm, context):
    if self.select is not None:
        return evaluate(self.select, context)
    return vm.build_fragment(self.body, context)


def _value_WithParam(self, vm, context):
    if self.select is not None:
        return evaluate(self.select, context)
    return vm.build_fragment(self.body, context)


_EXECUTE = {
    instr.TextInstr: _execute_TextInstr,
    instr.LiteralElementInstr: _execute_LiteralElementInstr,
    instr.ValueOfInstr: _execute_ValueOfInstr,
    instr.ApplyTemplatesInstr: _execute_ApplyTemplatesInstr,
    instr.CallTemplateInstr: _execute_CallTemplateInstr,
    instr.ForEachInstr: _execute_ForEachInstr,
    instr.IfInstr: _execute_IfInstr,
    instr.ChooseInstr: _execute_ChooseInstr,
    instr.CopyInstr: _execute_CopyInstr,
    instr.CopyOfInstr: _execute_CopyOfInstr,
    instr.ElementInstr: _execute_ElementInstr,
    instr.AttributeInstr: _execute_AttributeInstr,
    instr.CommentInstr: _execute_CommentInstr,
    instr.PiInstr: _execute_PiInstr,
    instr.ApplyImportsInstr: _execute_ApplyImportsInstr,
    instr.FallbackInstr: _execute_FallbackInstr,
    instr.NumberInstr: _execute_NumberInstr,
    instr.MessageInstr: _execute_MessageInstr,
}
